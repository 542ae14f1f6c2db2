package sim

import (
	"testing"

	"flexvc/internal/config"
	"flexvc/internal/core"
	"flexvc/internal/packet"
)

// TestInjectFairness is the regression test for the NIC starvation bug: the
// reply queue used to have absolute priority, so a node whose reply queue
// never drained (replies keep arriving from delivered requests) would never
// inject a locally generated request. The fixed NIC alternates between the
// two classes whenever a request waits beside queued replies. Here the
// requests are a real backlog — the node's source offers a full phit per
// cycle, as much as the injection link carries — and the node's reply queue
// is kept from draining.
func TestInjectFairness(t *testing.T) {
	cfg := config.Small()
	cfg.Load = 1.0
	cfg.Reactive = true
	cfg.Scheme = core.Scheme{Policy: core.Baseline, VCs: core.TwoClass(2, 1, 2, 1), Selection: core.JSQ}
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	const node = packet.NodeID(0)
	dst := packet.NodeID(5)
	ns := &n.nodes[node]
	var id uint64
	mkreply := func() packet.Ref {
		id++
		ref := n.store.Alloc(id, node, dst, cfg.PacketSize, packet.Reply, n.now)
		hdr := n.store.Hdr(ref)
		hdr.SrcRouter = n.topo.RouterOfNode(node)
		hdr.DstRouter = n.topo.RouterOfNode(dst)
		return ref
	}

	var requests, replies, backlogged int
	for cycle := 0; requests+replies < 16 && cycle < 10000; cycle++ {
		if ns.replies.len() < 2 {
			ns.replies.push(mkreply())
			n.queueNode(node)
		}
		if ns.hasReq {
			backlogged++
		}
		last := ns.nextInject
		n.Step()
		if ns.nextInject == last {
			continue
		}
		// The node injected one packet this cycle; it records the class.
		if ns.lastWasReply {
			replies++
		} else {
			requests++
		}
	}
	if backlogged == 0 {
		t.Fatal("no request ever waited at the node; the test drives no backlog")
	}
	if requests == 0 {
		t.Fatalf("requests starved: %d replies injected, 0 requests (round-robin broken)", replies)
	}
	if replies == 0 {
		t.Fatalf("replies starved: %d requests injected, 0 replies", requests)
	}
	// With both classes continuously backlogged, alternation keeps the split
	// even.
	if d := requests - replies; d < -1 || d > 1 {
		t.Fatalf("unbalanced injection under dual backlog: %d requests vs %d replies", requests, replies)
	}
}
