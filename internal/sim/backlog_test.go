package sim

import (
	"testing"

	"flexvc/internal/config"
	"flexvc/internal/core"
	"flexvc/internal/packet"
	"flexvc/internal/traffic"
)

// deliveryCounter is a generator that counts the requests and replies the
// network delivers.
type deliveryCounter struct {
	traffic.Generator
	store             *packet.Store
	requests, replies int64
}

func (g *deliveryCounter) Delivered(now int64, ref packet.Ref) {
	if g.store.Hdr(ref).Class == packet.Request {
		g.requests++
	} else {
		g.replies++
	}
	g.Generator.Delivered(now, ref)
}

// backlogConfig is a Figure 5(a) point far past saturation: UN/MIN, Baseline
// 2/1 at offered load 1.0 on the small network, where most generated
// requests wait at their NICs.
func backlogConfig(reactive bool) config.Config {
	cfg := config.Small()
	cfg.Load = 1.0
	cfg.Scheme = core.Scheme{Policy: core.Baseline, VCs: core.SingleClass(2, 1), Selection: core.JSQ}
	if reactive {
		cfg.Reactive = true
		cfg.Scheme.VCs = core.TwoClass(2, 1, 2, 1)
	}
	return cfg
}

// TestBacklogHoldsNoStoreSlots checks that a request holds a packet-store
// slot only once it is in the network: past saturation the store holds
// exactly the packets injected and not yet delivered, plus, under reactive
// traffic, the delivered requests their replies retain and the replies
// waiting at their NICs, while the requests waiting at the NICs live in the
// pending slab. After 4 000 cycles they outnumber the store's packets 5.0 to
// 1 (3.1 to 1 under reactive traffic), and the gap keeps growing.
func TestBacklogHoldsNoStoreSlots(t *testing.T) {
	for _, reactive := range []bool{false, true} {
		n, err := New(backlogConfig(reactive))
		if err != nil {
			t.Fatal(err)
		}
		dc := &deliveryCounter{Generator: n.gen, store: n.store}
		n.gen = dc
		n.RunCycles(4000)

		var queuedRequests, queuedReplies int
		for i := range n.nodes {
			queuedRequests += n.nodes[i].requests.len()
			queuedReplies += n.nodes[i].replies.len()
		}
		retained := dc.requests - dc.replies
		if !reactive && (retained != dc.requests || dc.replies != 0 || queuedReplies != 0) {
			t.Fatalf("open-loop run delivered %d replies, queued %d", dc.replies, queuedReplies)
		}
		if !reactive {
			retained = 0
		}
		want := n.InFlight() + retained + int64(queuedReplies)
		if got := int64(n.store.InUse()); got != want {
			t.Errorf("reactive=%v: %d store slots in use, want %d in flight + %d retained requests + %d queued replies",
				reactive, got, n.InFlight(), retained, queuedReplies)
		}
		if backlog := n.pending.inUse(); backlog != queuedRequests {
			t.Errorf("reactive=%v: %d pending records, %d requests queued", reactive, backlog, queuedRequests)
		}
		if int64(queuedRequests) < 3*want {
			t.Errorf("reactive=%v: backlog %d is under 3x the %d store slots in use; the run is not past saturation", reactive, queuedRequests, want)
		}
		if dc.requests == 0 || reactive && dc.replies == 0 {
			t.Fatalf("reactive=%v: delivered %d requests, %d replies", reactive, dc.requests, dc.replies)
		}
	}
}
