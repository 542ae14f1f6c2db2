package traffic

import (
	"math"
	"testing"

	"flexvc/internal/packet"
	"flexvc/internal/topology"
)

func testTopo(t *testing.T) topology.Topology {
	t.Helper()
	d, err := topology.NewDragonfly(2, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func params(t *testing.T, load float64) Params {
	return Params{Topo: testTopo(t), Load: load, PacketSize: 8, Seed: 3, AvgBurstLength: 5, Store: packet.NewStore()}
}

// TestUniformLoadAndDestinations checks the offered load accuracy and the
// destination distribution of the UN pattern.
func TestUniformLoadAndDestinations(t *testing.T) {
	p := params(t, 0.5)
	g, err := New("uniform", p, false)
	if err != nil {
		t.Fatal(err)
	}
	cycles := int64(20000)
	counts := make([]int, p.Topo.NumNodes())
	generated := 0
	for now := int64(0); now < cycles; now++ {
		for n := 0; n < p.Topo.NumNodes(); n++ {
			pkt := g.Generate(now, packet.NodeID(n))
			if pkt == packet.NilRef {
				continue
			}
			generated++
			h := p.Store.Hdr(pkt)
			if h.Dst == h.Src {
				t.Fatal("uniform traffic must not pick the source as destination")
			}
			if h.Class != packet.Request || h.Size != 8 || p.Store.Times(pkt).Gen != now {
				t.Fatal("malformed packet")
			}
			if h.SrcRouter != p.Topo.RouterOfNode(h.Src) || h.DstRouter != p.Topo.RouterOfNode(h.Dst) {
				t.Fatal("router endpoints not filled")
			}
			counts[h.Dst]++
		}
	}
	offered := float64(generated) * 8 / float64(cycles) / float64(p.Topo.NumNodes())
	if math.Abs(offered-0.5) > 0.02 {
		t.Errorf("offered load %.3f, want about 0.5", offered)
	}
	// Destination distribution should be roughly uniform.
	mean := float64(generated) / float64(len(counts))
	for n, c := range counts {
		if float64(c) < 0.5*mean || float64(c) > 1.5*mean {
			t.Errorf("node %d received %d packets, mean is %.0f", n, c, mean)
		}
	}
}

// TestAdversarialDestinations checks that ADV sends every packet to the next
// group.
func TestAdversarialDestinations(t *testing.T) {
	p := params(t, 0.3)
	df := p.Topo.(*topology.Dragonfly)
	g, err := New("adv", p, false)
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	for now := int64(0); now < 2000; now++ {
		for n := 0; n < p.Topo.NumNodes(); n++ {
			pkt := g.Generate(now, packet.NodeID(n))
			if pkt == packet.NilRef {
				continue
			}
			seen++
			h := p.Store.Hdr(pkt)
			srcGroup := df.GroupOf(h.SrcRouter)
			dstGroup := df.GroupOf(h.DstRouter)
			if dstGroup != (srcGroup+1)%df.NumGroups() {
				t.Fatalf("packet from group %d went to group %d, want %d", srcGroup, dstGroup, (srcGroup+1)%df.NumGroups())
			}
		}
	}
	if seen == 0 {
		t.Fatal("no adversarial packets generated")
	}
}

// TestBurstyLoadAndBurstLength checks the BURSTY-UN model: offered load close
// to the target and mean burst length close to the configured value, with the
// destination held constant within a burst.
func TestBurstyLoadAndBurstLength(t *testing.T) {
	p := params(t, 0.4)
	g, err := NewBursty(p)
	if err != nil {
		t.Fatal(err)
	}
	cycles := int64(60000)
	generated := 0
	// Track burst statistics for node 0.
	var bursts []int
	cur := 0
	var lastDst packet.NodeID = -1
	lastGen := int64(-100)
	for now := int64(0); now < cycles; now++ {
		for n := 0; n < p.Topo.NumNodes(); n++ {
			pkt := g.Generate(now, packet.NodeID(n))
			if pkt == packet.NilRef {
				continue
			}
			generated++
			if n != 0 {
				continue
			}
			pktDst := p.Store.Hdr(pkt).Dst
			if now-lastGen > int64(p.PacketSize) {
				// A gap larger than the back-to-back spacing means a new burst.
				if cur > 0 {
					bursts = append(bursts, cur)
				}
				cur = 0
				lastDst = -1
			}
			if lastDst >= 0 && pktDst != lastDst {
				if cur > 0 {
					bursts = append(bursts, cur)
				}
				cur = 0
			}
			lastDst = pktDst
			lastGen = now
			cur++
		}
	}
	offered := float64(generated) * 8 / float64(cycles) / float64(p.Topo.NumNodes())
	if math.Abs(offered-0.4) > 0.05 {
		t.Errorf("bursty offered load %.3f, want about 0.4", offered)
	}
	if len(bursts) < 20 {
		t.Fatalf("too few bursts observed: %d", len(bursts))
	}
	sum := 0
	for _, b := range bursts {
		sum += b
	}
	meanBurst := float64(sum) / float64(len(bursts))
	if meanBurst < 3 || meanBurst > 8 {
		t.Errorf("mean burst length %.1f packets, want about 5", meanBurst)
	}
}

// TestReactiveReplies checks that delivered requests produce exactly one
// reply back to the source, drained with priority.
func TestReactiveReplies(t *testing.T) {
	p := params(t, 0.2)
	g, err := New("uniform", p, true)
	if err != nil {
		t.Fatal(err)
	}
	req := p.Store.Alloc(7, 3, 11, 8, packet.Request, 0)
	fillEndpoints(p.Topo, p.Store.Hdr(req))
	g.Delivered(100, req)

	if g.PendingReplies(packet.NodeID(3)) != packet.NilRef {
		t.Fatal("the reply is owed by the request's destination, not its source")
	}
	reply := g.PendingReplies(packet.NodeID(11))
	if reply == packet.NilRef {
		t.Fatal("destination owes a reply")
	}
	h := p.Store.Hdr(reply)
	if h.Class != packet.Reply || h.Src != 11 || h.Dst != 3 || h.Size != 8 {
		t.Fatalf("malformed reply: %v", p.Store.Describe(reply))
	}
	if p.Store.ReplyTo(reply) != req {
		t.Fatal("reply should reference its request")
	}
	if g.PendingReplies(packet.NodeID(11)) != packet.NilRef {
		t.Fatal("only one reply per request")
	}
	// Delivered replies do not generate further traffic.
	g.Delivered(200, reply)
	if g.PendingReplies(packet.NodeID(3)) != packet.NilRef {
		t.Fatal("replies must not trigger replies")
	}
}

// TestGeneratorDeterminism checks that two generators with the same seed
// produce identical traffic.
func TestGeneratorDeterminism(t *testing.T) {
	p := params(t, 0.6)
	for _, name := range []string{"uniform", "adversarial", "bursty-uniform"} {
		a, _ := New(name, p, false)
		b, _ := New(name, p, false)
		for now := int64(0); now < 500; now++ {
			for n := 0; n < p.Topo.NumNodes(); n++ {
				pa := a.Generate(now, packet.NodeID(n))
				pb := b.Generate(now, packet.NodeID(n))
				if (pa == packet.NilRef) != (pb == packet.NilRef) {
					t.Fatalf("%s: generation mismatch at cycle %d node %d", name, now, n)
				}
				if pa != packet.NilRef && p.Store.Hdr(pa).Dst != p.Store.Hdr(pb).Dst {
					t.Fatalf("%s: destination mismatch at cycle %d node %d", name, now, n)
				}
			}
		}
	}
}

func TestUnknownPattern(t *testing.T) {
	if _, err := New("nope", params(t, 0.1), false); err == nil {
		t.Error("expected an error for an unknown pattern")
	}
}

// TestZeroLoad checks that a zero-load generator stays silent.
func TestZeroLoad(t *testing.T) {
	p := params(t, 0)
	for _, name := range []string{"uniform", "bursty-uniform"} {
		g, _ := New(name, p, false)
		for now := int64(0); now < 1000; now++ {
			for n := 0; n < p.Topo.NumNodes(); n++ {
				if g.Generate(now, packet.NodeID(n)) != packet.NilRef {
					t.Fatalf("%s generated traffic at zero load", name)
				}
			}
		}
	}
}

// TestRecycledSourcesMatchFresh checks that a stream reseeded in place by a
// rewound Sources list draws exactly what a fresh nodeRNG stream draws.
func TestRecycledSourcesMatchFresh(t *testing.T) {
	var s Sources
	for node := packet.NodeID(0); node < 4; node++ {
		rng := s.nodeRNG(11, node)
		for i := 0; i < 777; i++ {
			rng.Float64()
		}
	}
	s.Rewind()
	for node := packet.NodeID(0); node < 4; node++ {
		got, want := s.nodeRNG(3, node), (*Sources)(nil).nodeRNG(3, node)
		for i := 0; i < 10000; i++ {
			if g, w := got.Int63(), want.Int63(); g != w {
				t.Fatalf("node %d, draw %d: recycled stream gave %d, fresh %d", node, i, g, w)
			}
		}
	}
}

// TestSourcesRewindAllocs pins reseeding recycled streams at zero allocations.
func TestSourcesRewindAllocs(t *testing.T) {
	var s Sources
	for node := packet.NodeID(0); node < 4; node++ {
		s.nodeRNG(11, node).Int63()
	}
	if allocs := testing.AllocsPerRun(10, func() {
		s.Rewind()
		for node := packet.NodeID(0); node < 4; node++ {
			s.nodeRNG(5, node).Int63()
		}
	}); allocs != 0 {
		t.Errorf("reseeding recycled streams allocates %v times, want 0", allocs)
	}
}
