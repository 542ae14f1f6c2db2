package topology

import (
	"testing"

	"flexvc/internal/packet"
)

// fuzzCheckTopology runs the structural invariants shared by the fuzz
// targets on one topology instance: node/router/port round trips, link
// symmetry and minimal-path validity for the selected (node, port) probe.
func fuzzCheckTopology(t *testing.T, topo Topology, nodeSel uint32, portSel uint8) {
	t.Helper()
	n := topo.NumNodes()
	if n == 0 {
		return
	}
	node := packet.NodeID(int(nodeSel) % n)

	// Node <-> router <-> terminal-port round trip.
	r := topo.RouterOfNode(node)
	if r < 0 || int(r) >= topo.NumRouters() {
		t.Fatalf("RouterOfNode(%d) = %d out of range", node, r)
	}
	tp := topo.TerminalPort(r, node)
	if tp < 0 || tp >= topo.Radix() || topo.PortKind(r, tp) != Terminal {
		t.Fatalf("TerminalPort(%d,%d) = %d is not a terminal port", r, node, tp)
	}
	found := false
	for i := 0; i < topo.NodesPerRouter(); i++ {
		if topo.NodeAt(r, i) == node {
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("node %d not listed by its router %d", node, r)
	}

	// Link symmetry: following a link and its reverse returns home, and both
	// endpoints agree on the link kind.
	p := int(portSel) % topo.Radix()
	if topo.PortKind(r, p) != Terminal {
		nr, np := topo.Neighbor(r, p)
		if nr == r {
			t.Fatalf("router %d port %d links to itself", r, p)
		}
		if topo.PortKind(nr, np) != topo.PortKind(r, p) {
			t.Fatalf("link kind asymmetric between (%d,%d) and (%d,%d)", r, p, nr, np)
		}
		br, bp := topo.Neighbor(nr, np)
		if br != r || bp != p {
			t.Fatalf("link not symmetric: (%d,%d) -> (%d,%d) -> (%d,%d)", r, p, nr, np, br, bp)
		}
	}

	// Minimal routing from this router to the router of another fuzzed node:
	// the walk must terminate within the declared hop count, and the hop-kind
	// sequence must match MinimalSeq.
	dst := topo.RouterOfNode(packet.NodeID((int(nodeSel) * 7919) % n))
	want := topo.MinimalHops(r, dst)
	seq := MinimalSeq(topo, r, dst)
	cur := r
	var walked HopCount
	for hop := 0; cur != dst; hop++ {
		if hop >= want.Total() {
			t.Fatalf("minimal walk %d->%d exceeds MinimalHops %+v", r, dst, want)
		}
		port := topo.NextMinimalPort(cur, dst)
		if port < 0 || topo.PortKind(cur, port) == Terminal {
			t.Fatalf("NextMinimalPort(%d,%d) = %d invalid", cur, dst, port)
		}
		kind := topo.PortKind(cur, port)
		if seq.At(walked.Total()) != kind {
			t.Fatalf("hop %d of %d->%d is %v, MinimalSeq says %v", walked.Total(), r, dst, kind, seq.At(walked.Total()))
		}
		if kind == Global {
			walked.Global++
		} else {
			walked.Local++
		}
		cur, _ = topo.Neighbor(cur, port)
	}
	if walked != want {
		t.Fatalf("minimal walk %d->%d took %+v hops, MinimalHops says %+v", r, dst, walked, want)
	}
	if seq.Len() != want.Total() {
		t.Fatalf("MinimalSeq length %d != MinimalHops total %d", seq.Len(), want.Total())
	}
}

// fuzzCompareTables checks every table answer of a precomputed instance
// for the probe router against the on-the-fly instance: the neighbour of
// each link port and, on a Dragonfly, the minimal global link from the
// router's group to every group.
func fuzzCompareTables(t *testing.T, plain, fast Topology, nodeSel uint32) {
	t.Helper()
	r := plain.RouterOfNode(packet.NodeID(int(nodeSel) % plain.NumNodes()))
	for p := 0; p < plain.Radix(); p++ {
		if plain.PortKind(r, p) == Terminal {
			continue
		}
		gr, gp := fast.Neighbor(r, p)
		wr, wp := plain.Neighbor(r, p)
		if gr != wr || gp != wp {
			t.Fatalf("Neighbor(%d,%d) = (%d,%d), want (%d,%d)", r, p, gr, gp, wr, wp)
		}
	}
	pd, ok := plain.(*Dragonfly)
	if !ok {
		return
	}
	fd := fast.(*Dragonfly)
	fg := pd.GroupOf(r)
	for tg := 0; tg < pd.NumGroups(); tg++ {
		gr, gp, gok := fd.MinimalGlobalLink(fg, tg)
		wr, wp, wok := pd.MinimalGlobalLink(fg, tg)
		if gr != wr || gp != wp || gok != wok {
			t.Fatalf("MinimalGlobalLink(%d,%d) = (%d,%d,%v), want (%d,%d,%v)", fg, tg, gr, gp, gok, wr, wp, wok)
		}
	}
}

// FuzzDragonflyIDs fuzzes the Dragonfly coordinate arithmetic: group/position
// round trips, node/port round trips, link symmetry and minimal-path
// validity, with and without precomputed tables (both must agree).
func FuzzDragonflyIDs(f *testing.F) {
	f.Add(uint8(1), uint8(2), uint8(1), uint32(0), uint8(0))
	f.Add(uint8(2), uint8(4), uint8(2), uint32(17), uint8(3))
	f.Add(uint8(4), uint8(8), uint8(4), uint32(9001), uint8(11))
	f.Add(uint8(3), uint8(5), uint8(2), uint32(123456), uint8(250))
	f.Fuzz(func(t *testing.T, p, a, h uint8, nodeSel uint32, portSel uint8) {
		// Bound the geometry so a fuzzed instance stays small.
		pp, aa, hh := 1+int(p)%6, 1+int(a)%8, 1+int(h)%6
		plain, err := NewDragonfly(pp, aa, hh)
		if err != nil {
			t.Skip()
		}
		// Group/position round trip for the fuzzed router.
		r := packet.RouterID(int(nodeSel) % plain.NumRouters())
		if plain.RouterInGroup(plain.GroupOf(r), plain.PosInGroup(r)) != r {
			t.Fatalf("group/position round trip broken for router %d", r)
		}
		fuzzCheckTopology(t, plain, nodeSel, portSel)

		fast, err := NewDragonfly(pp, aa, hh)
		if err != nil {
			t.Fatal(err)
		}
		fast.PrecomputeTables(0)
		fuzzCheckTopology(t, fast, nodeSel, portSel)
		fuzzCompareTables(t, plain, fast, nodeSel)
	})
}

// FuzzFlattenedButterflyIDs is the flattened-butterfly counterpart.
func FuzzFlattenedButterflyIDs(f *testing.F) {
	f.Add(uint8(2), uint8(1), uint32(0), uint8(0))
	f.Add(uint8(4), uint8(2), uint32(31), uint8(5))
	f.Add(uint8(8), uint8(8), uint32(512), uint8(200))
	f.Fuzz(func(t *testing.T, k, p uint8, nodeSel uint32, portSel uint8) {
		kk, pp := 2+int(k)%8, 1+int(p)%8
		plain, err := NewFlattenedButterfly2D(kk, pp)
		if err != nil {
			t.Skip()
		}
		r := packet.RouterID(int(nodeSel) % plain.NumRouters())
		row, col := plain.RowCol(r)
		if plain.RouterAt(row, col) != r {
			t.Fatalf("row/col round trip broken for router %d", r)
		}
		fuzzCheckTopology(t, plain, nodeSel, portSel)

		fast, err := NewFlattenedButterfly2D(kk, pp)
		if err != nil {
			t.Fatal(err)
		}
		fast.PrecomputeTables(0)
		fuzzCheckTopology(t, fast, nodeSel, portSel)
		fuzzCompareTables(t, plain, fast, nodeSel)
	})
}
