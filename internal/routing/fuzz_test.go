package routing

import (
	"math/rand"
	"testing"

	"flexvc/internal/core"
	"flexvc/internal/packet"
	"flexvc/internal/topology"
)

// FuzzPathValidity fuzzes the hop rule end to end on walked paths: for a
// fuzzed Dragonfly geometry, source/destination pair and algorithm, it walks
// the route with PlanHop and TakeHop — the router's own hop rule — once per
// single-class VC arrangement between the diameter and the algorithm's
// worst-case planned path that the configuration rules admit, taking a random
// allowed VC at every hop and, where the plan offers an escape, the escape at
// random. The route must eject within the algorithm's declared worst-case hop
// count, only at the destination router and through the destination node's
// terminal port, as a safe hop on VC 0 with no escape, and every range must
// lie inside the arrangement. Under the worst-case arrangement FlexVC and the
// baseline must both offer a VC at every hop; under every arrangement a
// FlexVC hop that is not safe must keep an escape: a non-empty range on the
// first port of the minimal path to the destination node, which is PlanHop's
// escape when that differs from the planned port and the planned hop itself
// otherwise. At the destination router that port is ejection, so a detour
// passing through its destination escapes by ejecting.
func FuzzPathValidity(f *testing.F) {
	f.Add(uint8(1), uint32(0), uint32(1), int64(1), uint8(0))
	f.Add(uint8(2), uint32(3), uint32(29), int64(42), uint8(1))
	f.Add(uint8(3), uint32(100), uint32(7), int64(7), uint8(2))
	f.Add(uint8(2), uint32(11), uint32(11), int64(99), uint8(1))
	// VAL 3/2 on the smallest Dragonfly: a detour passes through its
	// destination router with its planned hop forbidden.
	f.Add(uint8(0), uint32(0), uint32(1), int64(1), uint8(1))
	f.Fuzz(func(t *testing.T, h uint8, srcSel, dstSel uint32, seed int64, algSel uint8) {
		walkPaths(t, h, srcSel, dstSel, seed, algSel)
	})
}

// TestPathValidityReachesEscapes keeps the fuzz target honest: its walks must
// reach opportunistic hops and take escapes, ejection escapes among them, or
// the escape check would hold vacuously.
func TestPathValidityReachesEscapes(t *testing.T) {
	var total walkStats
	for seed := int64(0); seed < 200; seed++ {
		st := walkPaths(t, uint8(seed), uint32(seed*7), uint32(seed*13+5), seed, 1)
		total.opportunistic += st.opportunistic
		total.reverts += st.reverts
		total.ejections += st.ejections
	}
	if total.opportunistic == 0 || total.reverts == 0 || total.ejections == 0 {
		t.Fatalf("VAL walks reached %d opportunistic hops and took %d escapes, %d of them by ejecting; want all three", total.opportunistic, total.reverts, total.ejections)
	}
}

// walkStats counts what the walks of one fuzz input exercised: opportunistic
// hops, escapes taken and, of those, escapes by ejection.
type walkStats struct{ opportunistic, reverts, ejections int }

// walkPaths builds the fuzzed network and walks its route once per admitted
// VC arrangement.
func walkPaths(t *testing.T, h uint8, srcSel, dstSel uint32, seed int64, algSel uint8) walkStats {
	hh := 1 + int(h)%3
	topo, err := topology.NewDragonfly(hh, 2*hh, hh)
	if err != nil {
		t.Skip()
	}
	var alg Algorithm
	mode := core.ModeVAL
	switch algSel % 3 {
	case 0:
		alg, mode = NewMinimal(topo), core.ModeMIN
	case 1:
		alg = NewValiant(topo)
	default:
		// PAR without congestion (zero occupancy probes) degenerates to
		// MIN, but still exercises its commit state machine.
		alg, mode = NewProgressive(topo, zeroProbe{}, PARConfig{ThresholdPhits: 1}), core.ModePAR
	}
	n := topo.NumRouters()
	src := packet.RouterID(int(srcSel) % n)
	dst := packet.RouterID(int(dstSel) % n)

	// The worst-case arrangement holds the planned path of any of the fuzzed
	// algorithms (PAR's Valiant path plus one local hop); smaller ones hold
	// at least the minimal path and, for the non-minimal algorithms, the
	// opportunistic Valiant path config.Validate requires.
	need, diam := alg.MaxPlannedHops(), topo.Diameter()
	ref := core.Reference(topo, mode)
	var st walkStats
	for l := diam.Local; l <= need.Local; l++ {
		for g := diam.Global; g <= need.Global; g++ {
			vcs := core.SingleClass(l, g)
			if core.Classify(vcs, packet.Request, ref) == core.Forbidden {
				continue
			}
			var base *core.Manager
			if l == need.Local && g == need.Global {
				base = core.NewManager(core.Scheme{Policy: core.Baseline, VCs: vcs, Selection: core.JSQ})
			}
			flex := core.NewManager(core.Scheme{Policy: core.FlexVC, VCs: vcs, Selection: core.JSQ})
			walkPath(t, topo, alg, flex, base, src, dst, seed, &st)
		}
	}
	return st
}

// walkPath routes one packet from src to dst the way the router does:
// PlanHop at every hop, TakeHop for the hop taken. base, when set, is a
// baseline manager whose ranges must be non-empty too.
func walkPath(t *testing.T, topo *topology.Dragonfly, alg Algorithm, flex, base *core.Manager, src, dst packet.RouterID, seed int64, st *walkStats) {
	t.Helper()
	vcs := flex.Scheme().VCs
	srcNode, dstNode := topo.NodeAt(src, 0), topo.NodeAt(dst, 0)
	pkt := &testPkt{}
	pkt.ID, pkt.Src, pkt.Dst, pkt.Size, pkt.Class = 1, srcNode, dstNode, 8, packet.Request
	pkt.Route.Reset()
	pkt.SrcRouter = src
	pkt.DstRouter = dst

	need := alg.MaxPlannedHops()
	rng := rand.New(rand.NewSource(seed))
	pick := rand.New(rand.NewSource(^seed))
	cur, inPort := src, topo.TerminalPort(src, srcNode) // the packet starts in an injection queue
	for hop := 0; ; hop++ {
		if hop > need.Total() {
			t.Fatalf("%v route %d->%d exceeded MaxPlannedHops %+v (route state %+v)",
				alg.Kind(), src, dst, need, pkt.Route)
		}
		dec := alg.Route(cur, &pkt.Header, &pkt.Route, rng)
		port := dec.OutPort
		if port < 0 || port >= topo.Radix() {
			t.Fatalf("%v proposed invalid port %d at router %d (dst %d)", alg.Kind(), port, cur, dst)
		}
		// The minimal path to the destination node: the escape of every
		// opportunistic hop, ejection at the destination router.
		minPort := topo.NextMinimalPort(cur, dst)
		if cur == dst {
			minPort = topo.TerminalPort(dst, dstNode)
		}
		eject := topo.PortKind(cur, port) == topology.Terminal
		if eject && port != minPort {
			t.Fatalf("%v ejected through port %d of router %d, destination node %d sits on router %d", alg.Kind(), port, cur, dstNode, dst)
		}

		fh := PlanHop(flex, topo, cur, inPort, port, &pkt.Header, &pkt.Route)
		bh := Hop{VCs: core.VCRange{Lo: 1, Hi: 0}}
		if base != nil {
			// The per-hop VC range must never be empty for a scheme
			// provisioned for the algorithm's worst case.
			bh = PlanHop(base, topo, cur, inPort, port, &pkt.Header, &pkt.Route)
			if fh.VCs.Empty() {
				t.Fatalf("%v: empty FlexVC range at hop %d of %d->%d (hop %+v, route %+v)",
					alg.Kind(), hop, src, dst, fh, pkt.Route)
			}
			if bh.VCs.Empty() {
				t.Fatalf("%v: empty baseline range at hop %d of %d->%d (hop %+v, route %+v)",
					alg.Kind(), hop, src, dst, bh, pkt.Route)
			}
		}
		if eject && (fh != Hop{Kind: topology.Terminal, VCs: core.VCRange{Safe: true}, EscPort: -1}) {
			t.Fatalf("%v %s: ejection at router %d planned as %+v, want a safe hop on VC 0 with no escape", alg.Kind(), vcs, cur, fh)
		}
		if !fh.VCs.Safe {
			st.opportunistic++
			escPort, esc := fh.EscPort, fh.EscVCs
			if escPort < 0 {
				// The planned hop is the minimal one: its own range, which
				// the escape path bounds, is the escape.
				escPort, esc = port, fh.VCs
			}
			if escPort != minPort || esc.Empty() {
				t.Fatalf("%v %s: opportunistic hop %d of %d->%d through port %d has no escape (hop %+v, route %+v)",
					alg.Kind(), vcs, hop, src, dst, port, fh, pkt.Route)
			}
		}
		for _, r := range []Hop{fh, {Kind: fh.EscKind, VCs: fh.EscVCs}, bh} {
			if !r.VCs.Empty() && (r.VCs.Lo < 0 || r.VCs.Hi >= vcs.TotalOf(r.Kind)) {
				t.Fatalf("VC range outside the configured arrangement %s: %s %+v", vcs, r.Kind, r.VCs)
			}
		}

		// Take the planned hop or, at random or when the planned range is
		// empty, the escape, on a random allowed VC; ejecting ends the walk.
		kind, vcRange, revert := fh.Kind, fh.VCs, false
		if fh.EscPort >= 0 && !fh.EscVCs.Empty() && (fh.VCs.Empty() || pick.Intn(2) == 0) {
			port, kind, vcRange, revert = fh.EscPort, fh.EscKind, fh.EscVCs, true
			st.reverts++
		}
		if vcRange.Empty() {
			t.Fatalf("%v %s: no VC to take at hop %d of %d->%d (hop %+v, route %+v)", alg.Kind(), vcs, hop, src, dst, fh, pkt.Route)
		}
		if kind == topology.Terminal {
			if revert {
				st.ejections++
			}
			return
		}
		TakeHop(&pkt.Route, kind, vcRange.Lo+pick.Intn(vcRange.Hi-vcRange.Lo+1), revert)
		cur, inPort = topo.Neighbor(cur, port)
	}
}

// zeroProbe reports empty buffers everywhere, so PAR never diverts.
type zeroProbe struct{}

func (zeroProbe) OutputOccupancy(packet.RouterID, int, int, bool) int { return 0 }
func (zeroProbe) OutputCapacity(packet.RouterID, int, int) int        { return 64 }
