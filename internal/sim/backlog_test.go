package sim

import (
	"runtime"
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

// TestBacklogHoldsNoStoreSlots checks that the NIC backlog costs no memory:
// a NIC holds at most one request, as a generation cycle and a destination,
// and the rest of its node's backlog is output its source has not been asked
// for yet. Past saturation the store holds exactly the packets injected and
// not yet delivered, plus, under reactive traffic, the delivered requests
// their replies retain and the replies waiting at their NICs, while the
// requests a polled twin of the sources has generated and the NICs have not
// pulled outnumber them more than 3 to 1 after 4 000 cycles, and the gap
// keeps growing.
func TestBacklogHoldsNoStoreSlots(t *testing.T) {
	const cycles = 4000
	for _, reactive := range []bool{false, true} {
		cfg := backlogConfig(reactive)
		n, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		dc := &deliveryCounter{Generator: n.gen, store: n.store}
		n.gen = dc
		n.RunCycles(cycles)

		var held, queuedReplies int
		for i := range n.nodes {
			if n.nodes[i].hasReq {
				held++
			}
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

		// The twin polls every node every cycle: what the sources offered.
		twinNet, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var offered int64
		for now := int64(0); now < cycles; now++ {
			for node := range n.nodes {
				if ref := twinNet.gen.Generate(now, packet.NodeID(node)); ref != packet.NilRef {
					offered++
					twinNet.store.Free(ref)
				}
			}
		}
		backlog := offered - n.generated
		if backlog < 0 || int64(held) > n.generated {
			t.Fatalf("reactive=%v: sources offered %d requests, the NICs pulled %d and hold %d", reactive, offered, n.generated, held)
		}
		if backlog < 3*want {
			t.Errorf("reactive=%v: unpulled backlog %d is under 3x the %d store slots in use; the run is not past saturation", reactive, backlog, want)
		}
		if dc.requests == 0 || reactive && dc.replies == 0 {
			t.Fatalf("reactive=%v: delivered %d requests, %d replies", reactive, dc.requests, dc.replies)
		}
	}
}

// TestBacklogCycleAllocs pins what a growing NIC backlog costs: far past
// saturation, 4 000 cycles after a 4 000-cycle warm-up allocate at most 64
// KiB, however many requests the sources have offered and the network has
// not taken. (Queueing each waiting request at its NIC cost 481 920 bytes
// over the same cycles.)
func TestBacklogCycleAllocs(t *testing.T) {
	n, err := New(backlogConfig(false))
	if err != nil {
		t.Fatal(err)
	}
	n.RunCycles(4000)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	n.RunCycles(4000)
	runtime.ReadMemStats(&ms)
	if got := ms.TotalAlloc - before; got > 64<<10 {
		t.Errorf("4000 cycles past saturation allocated %d bytes, more than 64 KiB", got)
	}
}
