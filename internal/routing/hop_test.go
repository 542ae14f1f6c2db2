package routing_test

import (
	"testing"

	"flexvc/internal/campaign"
	"flexvc/internal/config"
	"flexvc/internal/core"
	"flexvc/internal/packet"
	"flexvc/internal/routing"
	"flexvc/internal/topology"
)

// specArrangements returns every distinct VC arrangement the embedded
// campaign specs compile.
func specArrangements(t *testing.T) []core.VCConfig {
	t.Helper()
	seen := map[core.VCConfig]bool{}
	var out []core.VCConfig
	for _, name := range campaign.BuiltinNames() {
		spec, err := campaign.Builtin(name)
		if err != nil {
			t.Fatal(err)
		}
		sections, err := spec.Compile()
		if err != nil {
			t.Fatal(err)
		}
		for _, sec := range sections {
			for _, v := range sec.Variants {
				cfg := config.Tiny()
				v.Apply(&cfg)
				if vcs := cfg.Scheme.VCs; !seen[vcs] {
					seen[vcs] = true
					out = append(out, vcs)
				}
			}
		}
	}
	return out
}

// TestPlanHopRangesWithinPortVCs is the property that lets the router index
// a downstream buffer with PlanHop's ranges unclipped: over every router,
// input port and VC, output link, class and destination of the tiny Dragonfly
// and the 2×2 flattened butterfly, for a minimal route and for a Valiant
// detour through every intermediate, a few hops into the route (the route
// cursor at slots -1, 1 and 3 of the Valiant reference), under both policies
// and every VC arrangement the embedded specs compile, the planned range and
// the escape range lie in [0, TotalOf(kind)) — the VC count every input port
// of that kind is built with.
func TestPlanHopRangesWithinPortVCs(t *testing.T) {
	tiny, err := config.Tiny().BuildTopology()
	if err != nil {
		t.Fatal(err)
	}
	fb, err := topology.NewFlattenedButterfly2D(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	arrangements := specArrangements(t)
	var ranges, escapes int
	for _, topo := range []topology.Topology{tiny, fb} {
		for _, vcs := range arrangements {
			for _, policy := range []core.Policy{core.Baseline, core.FlexVC} {
				r, e := checkHopRanges(t, core.NewManager(core.Scheme{Policy: policy, VCs: vcs, Selection: core.JSQ}), topo)
				ranges, escapes = ranges+r, escapes+e
			}
		}
	}
	if len(arrangements) < 2 || ranges == 0 || escapes == 0 {
		t.Fatalf("%d arrangements, %d non-empty planned ranges, %d non-empty escapes: the property holds vacuously", len(arrangements), ranges, escapes)
	}
}

// checkHopRanges runs TestPlanHopRangesWithinPortVCs for one manager on one
// topology and counts the non-empty planned and escape ranges it saw.
func checkHopRanges(t *testing.T, mgr *core.Manager, topo topology.Topology) (ranges, escapes int) {
	t.Helper()
	vcs := mgr.Scheme().VCs
	classes := []packet.Class{packet.Request}
	if vcs.HasReply() {
		classes = append(classes, packet.Reply)
	}
	inside := func(kind topology.PortKind, r core.VCRange) bool {
		all := core.VCRange{Lo: 0, Hi: vcs.TotalOf(kind) - 1}
		return r.Empty() || all.Contains(r.Lo) && all.Contains(r.Hi)
	}
	routers := packet.RouterID(topo.NumRouters())
	for cur := packet.RouterID(0); cur < routers; cur++ {
		for in := 0; in < topo.Radix(); in++ {
			states := routeStates(topo, vcs, cur, in)
			for out := 0; out < topo.Radix(); out++ {
				if topo.PortKind(cur, out) == topology.Terminal {
					continue
				}
				for _, class := range classes {
					for dst := packet.RouterID(0); dst < routers; dst++ {
						hdr := packet.Header{Class: class, Dst: topo.NodeAt(dst, 0), DstRouter: dst}
						for _, rt := range states {
							h := routing.PlanHop(mgr, topo, core.ModeVAL, cur, in, out, &hdr, &rt)
							if h.Kind != topo.PortKind(cur, out) || !inside(h.Kind, h.VCs) {
								t.Fatalf("%s on %s: router %d, port %d -> %d, %+v, %+v: planned %s range %+v outside [0, %d)",
									mgr.Scheme(), topo.Name(), cur, in, out, hdr, rt, h.Kind, h.VCs, vcs.TotalOf(h.Kind))
							}
							if h.EscPort >= 0 && !inside(h.EscKind, h.EscVCs) {
								t.Fatalf("%s on %s: router %d, port %d -> %d, %+v, %+v: escape %s range %+v outside [0, %d)",
									mgr.Scheme(), topo.Name(), cur, in, out, hdr, rt, h.EscKind, h.EscVCs, vcs.TotalOf(h.EscKind))
							}
							if !h.VCs.Empty() {
								ranges++
							}
							if h.EscPort >= 0 && !h.EscVCs.Empty() {
								escapes++
							}
						}
					}
				}
			}
		}
	}
	return ranges, escapes
}

// TestPlanHopEjection: ejection is a hop. Through the destination node's
// terminal port, PlanHop plans a safe hop on VC 0 with no escape, whatever
// the policy, the input VC and the route state.
func TestPlanHopEjection(t *testing.T) {
	topo, err := config.Tiny().BuildTopology()
	if err != nil {
		t.Fatal(err)
	}
	want := routing.Hop{Kind: topology.Terminal, VCs: core.VCRange{Lo: 0, Hi: 0, Safe: true}, EscPort: -1}
	for _, policy := range []core.Policy{core.Baseline, core.FlexVC} {
		mgr := core.NewManager(core.Scheme{Policy: policy, VCs: core.SingleClass(3, 2), Selection: core.JSQ})
		for cur := range packet.RouterID(topo.NumRouters()) {
			node := topo.NodeAt(cur, 0)
			hdr := packet.Header{Dst: node, DstRouter: cur}
			for in := 0; in < topo.Radix(); in++ {
				for _, rt := range routeStates(topo, mgr.Scheme().VCs, cur, in) {
					if h := routing.PlanHop(mgr, topo, core.ModeVAL, cur, in, topo.TerminalPort(cur, node), &hdr, &rt); h != want {
						t.Fatalf("%s: ejection at router %d from port %d, %+v: planned %+v, want %+v", policy, cur, in, rt, h, want)
					}
				}
			}
		}
	}
}

// TestPlanHopDetourAtDestinationEjects: a Valiant detour passing through its
// destination router escapes by ejecting. Under FlexVC 3/2, which holds a
// minimal path but not a Valiant one in increasing VCs, every opportunistic
// continuation of such a detour plans the destination node's terminal port
// as its escape, a safe hop on VC 0 — the forbidden ones included, which
// would otherwise leave the head nothing to request.
func TestPlanHopDetourAtDestinationEjects(t *testing.T) {
	topo, err := config.Tiny().BuildTopology()
	if err != nil {
		t.Fatal(err)
	}
	mgr := core.NewManager(core.Scheme{Policy: core.FlexVC, VCs: core.SingleClass(3, 2), Selection: core.JSQ})
	forbidden := 0
	for cur := range packet.RouterID(topo.NumRouters()) {
		node := topo.NodeAt(cur, 0)
		hdr := packet.Header{Dst: node, DstRouter: cur}
		for in := 0; in < topo.Radix(); in++ {
			for _, rt := range routeStates(topo, mgr.Scheme().VCs, cur, in) {
				// Routing never plans from a detour at its intermediate: it
				// turns the packet towards its destination first.
				if rt.Kind != packet.Nonminimal || rt.Intermediate == cur {
					continue
				}
				out := topo.NextMinimalPort(cur, rt.Intermediate)
				h := routing.PlanHop(mgr, topo, core.ModeVAL, cur, in, out, &hdr, &rt)
				if h.VCs.Safe {
					continue
				}
				if h.EscPort != topo.TerminalPort(cur, node) || h.EscKind != topology.Terminal || h.EscVCs != (core.VCRange{Safe: true}) {
					t.Fatalf("detour at its destination router %d via %d from port %d, %+v: escape %d %s %+v, want ejection through port %d",
						cur, rt.Intermediate, in, rt, h.EscPort, h.EscKind, h.EscVCs, topo.TerminalPort(cur, node))
				}
				if h.VCs.Empty() {
					forbidden++
				}
			}
		}
	}
	if forbidden == 0 {
		t.Fatal("no detour at its destination router had its planned hop forbidden: the case is not exercised")
	}
}

// routeStates returns the route states a packet in input port in of router
// cur can hold: minimal or detouring through any intermediate, in any of the
// port's VCs under vcs, a few hops into its route (its cursor past 0, 2 or 4
// reference slots).
func routeStates(topo topology.Topology, vcs core.VCConfig, cur packet.RouterID, in int) []packet.RouteState {
	inVCs := []int32{-1} // an injection queue
	if kind := topo.PortKind(cur, in); kind != topology.Terminal {
		inVCs = inVCs[:0]
		for vc := range int32(vcs.TotalOf(kind)) {
			inVCs = append(inVCs, vc)
		}
	}
	var states []packet.RouteState
	for mid := packet.RouterID(-1); mid < packet.RouterID(topo.NumRouters()); mid++ { // -1 is minimal
		for _, vc := range inVCs {
			for hops := int32(0); hops < 3; hops++ {
				var rt packet.RouteState
				rt.Reset()
				rt.InputVC = vc
				rt.RefSlot, rt.Hops = int8(2*hops-1), hops
				if mid >= 0 {
					rt.Kind, rt.Phase, rt.Intermediate = packet.Nonminimal, packet.PhaseToIntermediate, mid
				}
				states = append(states, rt)
			}
		}
	}
	return states
}
