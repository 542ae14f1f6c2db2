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
// two classes whenever both queues hold packets.
func TestInjectFairness(t *testing.T) {
	cfg := config.Small()
	cfg.Load = 0 // no generated traffic; the test drives the queues directly
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

	// Seed a deep backlog of requests and keep the reply queue non-empty
	// forever (the starvation scenario).
	for i := 0; i < 4; i++ {
		n.queueRequest(node, dst)
	}

	injected := make([]packet.Class, 0, 8)
	seen := n.collector.TotalGenerated() // unused; keeps the collector warm
	_ = seen
	for cycle := 0; len(injected) < 8 && cycle < 10000; cycle++ {
		if ns.replies.len() < 2 {
			ns.replies.push(mkreply())
		}
		before := ns.requests.len() + ns.replies.len()
		n.Step()
		if after := ns.requests.len() + ns.replies.len(); after < before {
			// Exactly one packet left the NIC this cycle; record its class
			// from the per-class delta.
			injected = append(injected, lastInjectedClass(before-after, ns, before))
		}
		// Refill requests so both queues stay busy.
		if ns.requests.len() < 2 {
			n.queueRequest(node, dst)
		}
	}

	var requests, replies int
	for _, c := range injected {
		if c == packet.Request {
			requests++
		} else {
			replies++
		}
	}
	if requests == 0 {
		t.Fatalf("requests starved: %d replies injected, 0 requests (round-robin broken)", replies)
	}
	if replies == 0 {
		t.Fatalf("replies starved: %d requests injected, 0 replies", requests)
	}
	// With both queues continuously backlogged, alternation should keep the
	// split even.
	if requests < 3 || replies < 3 {
		t.Fatalf("unbalanced injection under dual backlog: %d requests vs %d replies", requests, replies)
	}
}

// lastInjectedClass infers which class was injected from queue deltas.
func lastInjectedClass(delta int, ns *nodeState, _ int) packet.Class {
	// Injection moves exactly one packet per cycle; the NIC alternates, so
	// the class is whichever the node recorded last.
	if delta != 1 {
		panic("expected exactly one injection")
	}
	if ns.lastWasReply {
		return packet.Reply
	}
	return packet.Request
}
