package topology

import (
	"math/rand"
	"testing"
	"testing/quick"

	"flexvc/internal/packet"
)

func mustDragonfly(t *testing.T, p, a, h int) *Dragonfly {
	t.Helper()
	d, err := NewDragonfly(p, a, h)
	if err != nil {
		t.Fatalf("NewDragonfly(%d,%d,%d): %v", p, a, h, err)
	}
	return d
}

func mustFB(t *testing.T, k, p int) *FlattenedButterfly2D {
	t.Helper()
	f, err := NewFlattenedButterfly2D(k, p)
	if err != nil {
		t.Fatalf("NewFlattenedButterfly2D(%d,%d): %v", k, p, err)
	}
	return f
}

func TestDragonflyCounts(t *testing.T) {
	cases := []struct {
		p, a, h                    int
		groups, routers, nodes, rx int
	}{
		{1, 2, 1, 3, 6, 6, 3},
		{2, 4, 2, 9, 36, 72, 7},
		{4, 8, 4, 33, 264, 1056, 15},
		{8, 16, 8, 129, 2064, 16512, 31},
	}
	for _, c := range cases {
		d := mustDragonfly(t, c.p, c.a, c.h)
		if d.NumGroups() != c.groups || d.NumRouters() != c.routers || d.NumNodes() != c.nodes || d.Radix() != c.rx {
			t.Errorf("dragonfly(%d,%d,%d): got groups=%d routers=%d nodes=%d radix=%d, want %d/%d/%d/%d",
				c.p, c.a, c.h, d.NumGroups(), d.NumRouters(), d.NumNodes(), d.Radix(),
				c.groups, c.routers, c.nodes, c.rx)
		}
	}
}

func TestDragonflyInvalidParams(t *testing.T) {
	if _, err := NewDragonfly(0, 4, 2); err == nil {
		t.Error("expected error for p=0")
	}
	if _, err := NewDragonfly(2, 0, 2); err == nil {
		t.Error("expected error for a=0")
	}
	if _, err := NewDragonfly(2, 4, 0); err == nil {
		t.Error("expected error for h=0")
	}
}

func TestDragonflyValidate(t *testing.T) {
	for _, h := range []int{1, 2, 3} {
		d := mustDragonfly(t, h, 2*h, h)
		if err := Validate(d); err != nil {
			t.Errorf("balanced dragonfly h=%d: %v", h, err)
		}
	}
	// Unbalanced instances must also be structurally valid.
	if err := Validate(mustDragonfly(t, 1, 3, 2)); err != nil {
		t.Errorf("dragonfly(1,3,2): %v", err)
	}
	if err := Validate(mustDragonfly(t, 2, 2, 3)); err != nil {
		t.Errorf("dragonfly(2,2,3): %v", err)
	}
}

func TestFlattenedButterflyValidate(t *testing.T) {
	for _, k := range []int{2, 3, 4} {
		if err := Validate(mustFB(t, k, 2)); err != nil {
			t.Errorf("fbfly k=%d: %v", k, err)
		}
	}
	if _, err := NewFlattenedButterfly2D(1, 2); err == nil {
		t.Error("expected error for k=1")
	}
}

// TestDragonflyGlobalLinkCoverage checks that there is exactly one global
// link between every pair of groups.
func TestDragonflyGlobalLinkCoverage(t *testing.T) {
	d := mustDragonfly(t, 2, 4, 2)
	seen := map[[2]int]int{}
	for r := 0; r < d.NumRouters(); r++ {
		rid := packet.RouterID(r)
		for p := d.FirstGlobalPort(); p < d.Radix(); p++ {
			nr, _ := d.Neighbor(rid, p)
			g1, g2 := d.GroupOf(rid), d.GroupOf(nr)
			if g1 == g2 {
				t.Fatalf("global port %d of router %d stays inside group %d", p, r, g1)
			}
			key := [2]int{min(g1, g2), max(g1, g2)}
			seen[key]++
		}
	}
	pairs := d.NumGroups() * (d.NumGroups() - 1) / 2
	if len(seen) != pairs {
		t.Fatalf("global links cover %d group pairs, want %d", len(seen), pairs)
	}
	for key, count := range seen {
		if count != 2 { // each undirected link seen once from each side
			t.Errorf("group pair %v has %d directed global channels, want 2", key, count)
		}
	}
}

// TestDragonflyLocalCompleteGraph checks that local ports connect every pair
// of routers within a group exactly once.
func TestDragonflyLocalCompleteGraph(t *testing.T) {
	d := mustDragonfly(t, 1, 4, 1)
	for g := 0; g < d.NumGroups(); g++ {
		for i := 0; i < d.A; i++ {
			for j := 0; j < d.A; j++ {
				if i == j {
					continue
				}
				from, to := d.RouterInGroup(g, i), d.RouterInGroup(g, j)
				port := d.LocalPortTo(from, to)
				nr, back := d.Neighbor(from, port)
				if nr != to {
					t.Fatalf("LocalPortTo(%d,%d)=%d reaches %d", from, to, port, nr)
				}
				if br, _ := d.Neighbor(to, back); br != from {
					t.Fatalf("local link %d<->%d not symmetric", from, to)
				}
			}
		}
	}
}

// TestDragonflyMinimalGlobalLink checks that the advertised minimal global
// link indeed connects the two groups.
func TestDragonflyMinimalGlobalLink(t *testing.T) {
	d := mustDragonfly(t, 2, 4, 2)
	for g1 := 0; g1 < d.NumGroups(); g1++ {
		for g2 := 0; g2 < d.NumGroups(); g2++ {
			r, p, ok := d.MinimalGlobalLink(g1, g2)
			if g1 == g2 {
				if ok {
					t.Fatalf("MinimalGlobalLink(%d,%d) should not exist", g1, g2)
				}
				continue
			}
			if !ok {
				t.Fatalf("MinimalGlobalLink(%d,%d) missing", g1, g2)
			}
			if d.GroupOf(r) != g1 || d.PortKind(r, p) != Global {
				t.Fatalf("MinimalGlobalLink(%d,%d) = router %d port %d: wrong group or kind", g1, g2, r, p)
			}
			nr, _ := d.Neighbor(r, p)
			if d.GroupOf(nr) != g2 {
				t.Fatalf("MinimalGlobalLink(%d,%d) lands in group %d", g1, g2, d.GroupOf(nr))
			}
		}
	}
}

// bfsDistance computes router-to-router distance by breadth-first search,
// the ground truth for MinimalHops totals.
func bfsDistance(topo Topology, from packet.RouterID) []int {
	dist := make([]int, topo.NumRouters())
	for i := range dist {
		dist[i] = -1
	}
	dist[from] = 0
	queue := []packet.RouterID{from}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for p := 0; p < topo.Radix(); p++ {
			if topo.PortKind(cur, p) == Terminal {
				continue
			}
			nr, _ := topo.Neighbor(cur, p)
			if dist[nr] < 0 {
				dist[nr] = dist[cur] + 1
				queue = append(queue, nr)
			}
		}
	}
	return dist
}

// TestMinimalHopsMatchesBFS cross-checks the closed-form minimal distances
// against graph search. On the flattened butterfly the two coincide exactly;
// on the dragonfly MinimalHops is the hierarchical l-g-l route, which is
// never shorter than the graph distance and never longer than the diameter.
func TestMinimalHopsMatchesBFS(t *testing.T) {
	fb := mustFB(t, 3, 1)
	for src := 0; src < fb.NumRouters(); src++ {
		dist := bfsDistance(fb, packet.RouterID(src))
		for dst := 0; dst < fb.NumRouters(); dst++ {
			got := fb.MinimalHops(packet.RouterID(src), packet.RouterID(dst)).Total()
			if got != dist[dst] {
				t.Fatalf("%s: MinimalHops(%d,%d)=%d, BFS says %d", fb.Name(), src, dst, got, dist[dst])
			}
		}
	}
	for _, d := range []*Dragonfly{mustDragonfly(t, 1, 4, 2), mustDragonfly(t, 2, 2, 1)} {
		diam := d.Diameter().Total()
		for src := 0; src < d.NumRouters(); src++ {
			dist := bfsDistance(d, packet.RouterID(src))
			for dst := 0; dst < d.NumRouters(); dst++ {
				got := d.MinimalHops(packet.RouterID(src), packet.RouterID(dst)).Total()
				if got < dist[dst] || got > diam {
					t.Fatalf("%s: hierarchical MinimalHops(%d,%d)=%d outside [graph distance %d, diameter %d]",
						d.Name(), src, dst, got, dist[dst], diam)
				}
			}
		}
	}
}

// TestMinimalPathSeqConsistent checks that the fast kind-sequence builders
// agree with walking NextMinimalPort, and with MinimalHops counts.
func TestMinimalPathSeqConsistent(t *testing.T) {
	topos := []Topology{mustDragonfly(t, 2, 4, 2), mustFB(t, 3, 2)}
	rng := rand.New(rand.NewSource(7))
	for _, topo := range topos {
		for i := 0; i < 500; i++ {
			src := packet.RouterID(rng.Intn(topo.NumRouters()))
			dst := packet.RouterID(rng.Intn(topo.NumRouters()))
			fast := MinimalSeq(topo, src, dst)
			slow := MinimalPathSeq(topo, src, dst)
			if fast.Len() != slow.Len() {
				t.Fatalf("%s: seq length mismatch %d vs %d for %d->%d", topo.Name(), fast.Len(), slow.Len(), src, dst)
			}
			for j := 0; j < fast.Len(); j++ {
				if fast.At(j) != slow.At(j) {
					t.Fatalf("%s: seq kind mismatch at %d for %d->%d", topo.Name(), j, src, dst)
				}
			}
			if fast.Counts() != topo.MinimalHops(src, dst) {
				t.Fatalf("%s: seq counts %+v != MinimalHops %+v for %d->%d",
					topo.Name(), fast.Counts(), topo.MinimalHops(src, dst), src, dst)
			}
		}
	}
}

// TestDragonflyMinimalWithinDiameter is a property test: minimal hops never
// exceed the diameter and are symmetric in total length.
func TestDragonflyMinimalWithinDiameter(t *testing.T) {
	d := mustDragonfly(t, 2, 6, 3)
	diam := d.Diameter()
	f := func(a, b uint16) bool {
		src := packet.RouterID(int(a) % d.NumRouters())
		dst := packet.RouterID(int(b) % d.NumRouters())
		hc := d.MinimalHops(src, dst)
		rev := d.MinimalHops(dst, src)
		return hc.Local <= diam.Local && hc.Global <= diam.Global &&
			hc.Total() == rev.Total() &&
			(src != dst || hc.Total() == 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestHopCountHelpers covers the small arithmetic helpers.
func TestHopCountHelpers(t *testing.T) {
	a := HopCount{Local: 2, Global: 1}
	if a.Total() != 3 || a.Of(Local) != 2 || a.Of(Global) != 1 {
		t.Error("Total/Of broken")
	}
}

// TestPathSeq covers the sequence value type.
func TestPathSeq(t *testing.T) {
	s := SeqOf(Local, Global, Local)
	if s.Len() != 3 || s.At(1) != Global {
		t.Fatal("SeqOf broken")
	}
	if s.Counts() != (HopCount{Local: 2, Global: 1}) {
		t.Fatal("Counts broken")
	}
	c := s.Concat(SeqOf(Global))
	if c.Len() != 4 || c.At(3) != Global {
		t.Fatal("Concat broken")
	}
	p := s.Prepend(Global)
	if p.Len() != 4 || p.At(0) != Global || p.At(1) != Local {
		t.Fatal("Prepend broken")
	}
	defer func() {
		if recover() == nil {
			t.Error("expected panic on overflow")
		}
	}()
	over := PathSeq{}
	for i := 0; i <= MaxPathLen; i++ {
		over.Push(Local)
	}
}

// TestTerminalPortRoundTrip checks node <-> terminal port mapping on both
// topologies.
func TestTerminalPortRoundTrip(t *testing.T) {
	topos := []Topology{mustDragonfly(t, 3, 4, 2), mustFB(t, 3, 3)}
	for _, topo := range topos {
		for n := 0; n < topo.NumNodes(); n++ {
			node := packet.NodeID(n)
			r := topo.RouterOfNode(node)
			p := topo.TerminalPort(r, node)
			if topo.PortKind(r, p) != Terminal {
				t.Fatalf("%s: node %d terminal port %d is not terminal", topo.Name(), n, p)
			}
		}
	}
}

// TestPortKindString covers the stringers.
func TestPortKindString(t *testing.T) {
	if Terminal.String() != "terminal" || Local.String() != "local" || Global.String() != "global" {
		t.Error("PortKind.String broken")
	}
	if PortKind(99).String() != "unknown" {
		t.Error("unknown PortKind should stringify to unknown")
	}
}
