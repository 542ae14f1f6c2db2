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
// the route with PlanHop and TakeHop — the router's own hop rule — under
// every VC arrangement between the diameter and the algorithm's worst-case
// reference path, one message class and two, that core.Admit admits under
// either policy: once per class in use, taking a random allowed VC at every
// hop and, where the plan offers an escape, the escape at random. The route
// must eject within the reference path's hop count, only at the destination
// router and through the destination node's terminal port, as a safe hop on
// VC 0 with no escape, and every range must lie inside the arrangement. A
// baseline hop must always offer a VC, and so must a FlexVC hop when the
// class holds the reference path safely; a FlexVC hop that is not safe must
// keep an escape: a non-empty range on the first port of the minimal path to
// the destination node, which is PlanHop's escape when that differs from the
// planned port and the planned hop itself otherwise. At the destination
// router that port is ejection, so a detour passing through its destination
// escapes by ejecting. Under the baseline, the reference slots of the hops
// taken (baselineSlot) must strictly increase: the fixed order's deadlock
// freedom.
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

// TestAdmittedArrangementsReachDestination walks every source/destination
// pair of the tiny Dragonfly under every arrangement of up to 5/2 VCs per
// class, one class and two, that core.Admit admits, under both policies, for
// MIN, VAL and PAR with a probe that always diverts and one that never does:
// every walk must reach ejection, with a VC on every baseline hop, baseline
// slots strictly increasing, and a VC or an escape on every FlexVC hop. A
// baseline reply subsequence too short for the Valiant path (4/2+2/1) strands
// its replies, so admitting it fails here.
func TestAdmittedArrangementsReachDestination(t *testing.T) {
	topo, err := topology.NewDragonfly(1, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	algs := []Algorithm{
		NewMinimal(topo),
		NewValiant(topo),
		NewProgressive(topo, fullProbe{}, PARConfig{ThresholdPhits: 1}),
		NewProgressive(topo, zeroProbe{}, PARConfig{ThresholdPhits: 1}),
	}
	subs := subsequences(topology.HopCount{}, topology.HopCount{Local: 5, Global: 2})
	var st walkStats
	admitted := 0
	for _, alg := range algs {
		mode := alg.Kind().Mode()
		ref := core.Reference(topo, mode)
		for _, vcs := range arrangements(subs) {
			for _, policy := range core.Policies {
				s := core.Scheme{Policy: policy, VCs: vcs, Selection: core.JSQ}
				if core.Admit(s, topo, mode, vcs.HasReply()) != nil {
					continue
				}
				admitted++
				mgr := core.NewManager(s)
				for seed := int64(0); seed < 3; seed++ {
					for src := range topo.NumRouters() {
						for dst := range topo.NumRouters() {
							if src != dst {
								walkClasses(t, topo, alg, mgr, ref, packet.RouterID(src), packet.RouterID(dst), seed, &st)
							}
						}
					}
				}
			}
		}
	}
	if admitted == 0 || st.opportunistic == 0 || st.reverts == 0 {
		t.Fatalf("walked %d admitted arrangements, %d opportunistic hops, %d escapes; want all three", admitted, st.opportunistic, st.reverts)
	}
}

// walkStats counts what the walks of one fuzz input exercised: opportunistic
// hops, escapes taken and, of those, escapes by ejection.
type walkStats struct{ opportunistic, reverts, ejections int }

// walkPaths builds the fuzzed network and walks its route under every
// arrangement core.Admit admits, between the diameter and the algorithm's
// worst-case reference path.
func walkPaths(t *testing.T, h uint8, srcSel, dstSel uint32, seed int64, algSel uint8) walkStats {
	hh := 1 + int(h)%3
	topo, err := topology.NewDragonfly(hh, 2*hh, hh)
	if err != nil {
		t.Skip()
	}
	var alg Algorithm
	switch algSel % 3 {
	case 0:
		alg = NewMinimal(topo)
	case 1:
		alg = NewValiant(topo)
	default:
		// PAR without congestion (zero occupancy probes) degenerates to
		// MIN, but still exercises its commit state machine.
		alg = NewProgressive(topo, zeroProbe{}, PARConfig{ThresholdPhits: 1})
	}
	mode := alg.Kind().Mode()
	n := topo.NumRouters()
	src := packet.RouterID(int(srcSel) % n)
	dst := packet.RouterID(int(dstSel) % n)
	ref := core.Reference(topo, mode)
	var st walkStats
	for _, vcs := range arrangements(subsequences(topo.Diameter(), ref.Hops())) {
		for _, policy := range core.Policies {
			s := core.Scheme{Policy: policy, VCs: vcs, Selection: core.JSQ}
			if core.Admit(s, topo, mode, vcs.HasReply()) == nil {
				walkClasses(t, topo, alg, core.NewManager(s), ref, src, dst, seed, &st)
			}
		}
	}
	return st
}

// subsequences lists every per-class VC count from lo to hi, per link kind.
func subsequences(lo, hi topology.HopCount) []core.SubpathVCs {
	var subs []core.SubpathVCs
	for l := lo.Local; l <= hi.Local; l++ {
		for g := lo.Global; g <= hi.Global; g++ {
			subs = append(subs, core.SubpathVCs{Local: l, Global: g})
		}
	}
	return subs
}

// arrangements pairs every request subsequence with no reply subsequence
// (one message class) and with every reply subsequence (two).
func arrangements(subs []core.SubpathVCs) []core.VCConfig {
	var out []core.VCConfig
	for _, req := range subs {
		out = append(out, core.VCConfig{Request: req})
		for _, rep := range subs {
			if rep != (core.SubpathVCs{}) {
				out = append(out, core.VCConfig{Request: req, Reply: rep})
			}
		}
	}
	return out
}

// walkClasses walks src->dst once per message class of mgr's arrangement.
func walkClasses(t *testing.T, topo *topology.Dragonfly, alg Algorithm, mgr *core.Manager, ref core.ReferencePath, src, dst packet.RouterID, seed int64, st *walkStats) {
	t.Helper()
	walkPath(t, topo, alg, mgr, packet.Request, ref, src, dst, seed, st)
	if mgr.Scheme().VCs.HasReply() {
		walkPath(t, topo, alg, mgr, packet.Reply, ref, src, dst, seed, st)
	}
}

// walkPath routes one packet of class from src to dst the way the router
// does: PlanHop at every hop, TakeHop for the hop taken. ref is the
// algorithm's worst-case reference path, which bounds the route.
func walkPath(t *testing.T, topo *topology.Dragonfly, alg Algorithm, mgr *core.Manager, class packet.Class, ref core.ReferencePath, src, dst packet.RouterID, seed int64, st *walkStats) {
	t.Helper()
	s := mgr.Scheme()
	vcs := s.VCs
	// The planned hop itself must offer a VC under the baseline, and under
	// FlexVC when the class holds the whole reference path safely.
	mustPlan := s.Policy == core.Baseline || core.Classify(vcs, class, ref) == core.Safe
	srcNode, dstNode := topo.NodeAt(src, 0), topo.NodeAt(dst, 0)
	pkt := &testPkt{}
	pkt.ID, pkt.Src, pkt.Dst, pkt.Size, pkt.Class = 1, srcNode, dstNode, 8, class
	pkt.Route.Reset()
	pkt.SrcRouter = src
	pkt.DstRouter = dst

	rng := rand.New(rand.NewSource(seed))
	pick := rand.New(rand.NewSource(^seed))
	mode := alg.Kind().Mode()
	lastSlot := -1
	cur, inPort := src, topo.TerminalPort(src, srcNode) // the packet starts in an injection queue
	for hop := 0; ; hop++ {
		if hop > ref.Len() {
			t.Fatalf("%v %s %s route %d->%d exceeded the %d-hop reference path (route state %+v)",
				alg.Kind(), s.Policy, class, src, dst, ref.Len(), pkt.Route)
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

		h := PlanHop(mgr, topo, mode, cur, inPort, port, &pkt.Header, &pkt.Route)
		if mustPlan && h.VCs.Empty() {
			t.Fatalf("%v %s %s %s: empty range at hop %d of %d->%d (hop %+v, route %+v)",
				alg.Kind(), s.Policy, vcs, class, hop, src, dst, h, pkt.Route)
		}
		if eject && (h != Hop{Kind: topology.Terminal, VCs: core.VCRange{Safe: true}, EscPort: -1}) {
			t.Fatalf("%v %s %s: ejection at router %d planned as %+v, want a safe hop on VC 0 with no escape", alg.Kind(), s.Policy, vcs, cur, h)
		}
		if !h.VCs.Safe {
			st.opportunistic++
			escPort, esc := h.EscPort, h.EscVCs
			if escPort < 0 {
				// The planned hop is the minimal one: its own range, which
				// the escape path bounds, is the escape.
				escPort, esc = port, h.VCs
			}
			if escPort != minPort || esc.Empty() {
				t.Fatalf("%v %s %s %s: opportunistic hop %d of %d->%d through port %d has no escape (hop %+v, route %+v)",
					alg.Kind(), s.Policy, vcs, class, hop, src, dst, port, h, pkt.Route)
			}
		}
		for _, r := range []Hop{h, {Kind: h.EscKind, VCs: h.EscVCs}} {
			if !r.VCs.Empty() && (r.VCs.Lo < 0 || r.VCs.Hi >= vcs.TotalOf(r.Kind)) {
				t.Fatalf("VC range outside the configured arrangement %s: %s %+v", vcs, r.Kind, r.VCs)
			}
		}

		// Take the planned hop or, at random or when the planned range is
		// empty, the escape, on a random allowed VC; ejecting ends the walk.
		kind, vcRange, revert := h.Kind, h.VCs, false
		if h.EscPort >= 0 && !h.EscVCs.Empty() && (h.VCs.Empty() || pick.Intn(2) == 0) {
			port, kind, vcRange, revert = h.EscPort, h.EscKind, h.EscVCs, true
			st.reverts++
		}
		if vcRange.Empty() {
			t.Fatalf("%v %s %s %s: no VC to take at hop %d of %d->%d (hop %+v, route %+v)", alg.Kind(), s.Policy, vcs, class, hop, src, dst, h, pkt.Route)
		}
		if kind == topology.Terminal {
			if revert {
				st.ejections++
			}
			return
		}
		vc := vcRange.Lo + pick.Intn(vcRange.Hi-vcRange.Lo+1)
		if s.Policy == core.Baseline {
			slot := baselineSlot(ref.Kinds, kind, vc-vcs.ClassOffset(class, kind))
			if slot <= lastSlot || slot >= ref.Len() {
				t.Fatalf("%v %s %s %s route %d->%d (mid %d): hop %d %s VC %d is reference slot %d after slot %d",
					alg.Kind(), s.Policy, vcs, class, src, dst, pkt.Route.Intermediate, hop, kind, vc, slot, lastSlot)
			}
			lastSlot = slot
		}
		TakeHop(topo, mode, &pkt.Route, kind, vc, revert)
		cur, inPort = topo.Neighbor(cur, port)
	}
}

// baselineSlot is the slot of the reference path a baseline hop occupies:
// the index-th slot of its kind, or the path's length when there is none.
// It reads the VC the hop was given, not the route cursor, so the walks check
// the rule rather than restate it.
func baselineSlot(ref topology.PathSeq, kind topology.PortKind, index int) int {
	for i := range ref.Len() {
		if ref.At(i) == kind {
			if index == 0 {
				return i
			}
			index--
		}
	}
	return ref.Len()
}

// fullProbe reports full buffers everywhere, so PAR always diverts.
type fullProbe struct{}

func (fullProbe) OutputOccupancy(packet.RouterID, int, int, bool) int { return 64 }
func (fullProbe) OutputCapacity(packet.RouterID, int, int) int        { return 64 }

// zeroProbe reports empty buffers everywhere, so PAR never diverts.
type zeroProbe struct{}

func (zeroProbe) OutputOccupancy(packet.RouterID, int, int, bool) int { return 0 }
func (zeroProbe) OutputCapacity(packet.RouterID, int, int) int        { return 64 }
