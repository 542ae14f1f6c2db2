package routing

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"flexvc/internal/core"
	"flexvc/internal/packet"
	"flexvc/internal/topology"
)

func testDF(t *testing.T) *topology.Dragonfly {
	t.Helper()
	d, err := topology.NewDragonfly(2, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// fakeProbe is a configurable congestion oracle for unit tests.
type fakeProbe struct {
	occ map[[2]int]int // (router, port) -> phits
	cap int
}

func (f *fakeProbe) OutputOccupancy(r packet.RouterID, port int, vc int, minOnly bool) int {
	return f.occ[[2]int{int(r), port}]
}
func (f *fakeProbe) OutputCapacity(r packet.RouterID, port int, vc int) int {
	if f.cap == 0 {
		return 64
	}
	return f.cap
}

// testPkt pairs a header with its route state the way the store keeps them in
// parallel arrays, so routing tests can walk a standalone packet.
type testPkt struct {
	packet.Header
	Route packet.RouteState
}

// walk routes a packet hop by hop until delivery, returning the sequence of
// port kinds traversed. It fails the test if the route does not converge.
func walk(t *testing.T, topo topology.Topology, alg Algorithm, pkt *testPkt, rng RandSource) []topology.PortKind {
	t.Helper()
	var kinds []topology.PortKind
	cur := pkt.SrcRouter
	for hops := 0; ; hops++ {
		if hops > 16 {
			t.Fatalf("route %d->%d did not converge", pkt.Src, pkt.Dst)
		}
		dec := alg.Route(cur, &pkt.Header, &pkt.Route, rng)
		kind := topo.PortKind(cur, dec.OutPort)
		if kind == topology.Terminal {
			if cur != pkt.DstRouter || dec.OutPort != topo.TerminalPort(cur, pkt.Dst) {
				t.Fatalf("route %d->%d ejected through port %d of router %d", pkt.Src, pkt.Dst, dec.OutPort, cur)
			}
			return kinds
		}
		kinds = append(kinds, kind)
		TakeHop(topo, alg.Kind().Mode(), &pkt.Route, kind, 0, false)
		cur, _ = topo.Neighbor(cur, dec.OutPort)
	}
}

func newPacket(topo topology.Topology, src, dst packet.NodeID) *testPkt {
	p := &testPkt{}
	p.ID, p.Src, p.Dst, p.Size, p.Class = 1, src, dst, 8, packet.Request
	p.Route.Reset()
	p.SrcRouter = topo.RouterOfNode(src)
	p.DstRouter = topo.RouterOfNode(dst)
	return p
}

// TestMinimalRouteLengths checks MIN routing against MinimalHops for every
// pair of a small dragonfly.
func TestMinimalRouteLengths(t *testing.T) {
	topo := testDF(t)
	alg := NewMinimal(topo)
	rng := rand.New(rand.NewSource(1))
	for src := 0; src < topo.NumNodes(); src += 3 {
		for dst := 0; dst < topo.NumNodes(); dst += 5 {
			if src == dst {
				continue
			}
			pkt := newPacket(topo, packet.NodeID(src), packet.NodeID(dst))
			kinds := walk(t, topo, alg, pkt, rng)
			want := topo.MinimalHops(pkt.SrcRouter, pkt.DstRouter).Total()
			if len(kinds) != want {
				t.Fatalf("MIN route %d->%d took %d hops, want %d", src, dst, len(kinds), want)
			}
			if pkt.Route.Kind != packet.Minimal {
				t.Fatal("MIN must mark packets as minimally routed")
			}
		}
	}
	if alg.Kind() != MIN || core.Reference(topo, alg.Kind().Mode()).Hops() != topo.Diameter() {
		t.Error("MIN metadata broken")
	}
}

// TestValiantRouteShape checks that Valiant routes visit the chosen
// intermediate router and never exceed twice the diameter.
func TestValiantRouteShape(t *testing.T) {
	topo := testDF(t)
	alg := NewValiant(topo)
	rng := rand.New(rand.NewSource(2))
	maxHops := core.Reference(topo, core.ModeVAL).Len()
	nonminimal := 0
	for i := 0; i < 300; i++ {
		src := packet.NodeID(rng.Intn(topo.NumNodes()))
		dst := packet.NodeID(rng.Intn(topo.NumNodes()))
		if src == dst {
			continue
		}
		pkt := newPacket(topo, src, dst)
		kinds := walk(t, topo, alg, pkt, rng)
		if len(kinds) > maxHops {
			t.Fatalf("VAL route %d->%d took %d hops, max is %d", src, dst, len(kinds), maxHops)
		}
		if pkt.Route.Kind != packet.Nonminimal {
			t.Fatal("VAL must mark packets as non-minimally routed")
		}
		if pkt.Route.Phase != packet.PhaseToDestination {
			t.Fatal("delivered packets must have completed the intermediate phase")
		}
		if len(kinds) > topo.MinimalHops(pkt.SrcRouter, pkt.DstRouter).Total() {
			nonminimal++
		}
	}
	if nonminimal == 0 {
		t.Error("Valiant routing never took a longer-than-minimal path across 300 packets")
	}
	if alg.Kind() != VAL {
		t.Error("VAL metadata broken")
	}
}

// TestBaselinePositionDragonfly walks Valiant, PAR and PB routes under the
// baseline and checks the VC of every hop: its slot in the reference path
// (l0-g1-l2-l3-g4-l5 for VAL and PB under 4/2, l0-l1-g2-l3-l4-g5-l6 for PAR
// under 5/2), numbered per link kind. A second leg always starts at l3 (l4
// for PAR), whatever the first leg skipped, so a Valiant intermediate in the
// source group, or the source router itself, keeps the order.
func TestBaselinePositionDragonfly(t *testing.T) {
	topo := testDF(t)
	shape := func(from, to packet.RouterID) string {
		seq := topology.MinimalSeq(topo, from, to)
		var b strings.Builder
		for i := range seq.Len() {
			b.WriteString(seq.At(i).String()[:1])
		}
		return b.String()
	}
	find := func(what string, pred func(r packet.RouterID) bool) packet.RouterID {
		for r := range packet.RouterID(topo.NumRouters()) {
			if pred(r) {
				return r
			}
		}
		t.Fatalf("no router is %s", what)
		return 0
	}
	src := packet.RouterID(0)
	srcGroup := topo.GroupOf(src)
	dst := find("a full l-g-l path away", func(r packet.RouterID) bool { return shape(src, r) == "lgl" })
	dstGroup := topo.GroupOf(dst)
	third := func(from packet.RouterID) packet.RouterID {
		return find("in a third group", func(r packet.RouterID) bool {
			g := topo.GroupOf(r)
			return g != srcGroup && g != dstGroup && shape(from, r) == "lgl" && shape(r, dst) == "lgl"
		})
	}
	gateway, _ := topo.Neighbor(src, topo.NextMinimalPort(src, dst))

	val := NewValiant(topo)
	cases := []struct {
		name string
		alg  Algorithm
		mid  packet.RouterID // the Valiant intermediate, -1 for a minimal packet
		want string
	}{
		{"intermediate is the source router", val, src, "L2 G1 L3"},
		{"intermediate in the source group", val, find("in the source group", func(r packet.RouterID) bool {
			return r != src && topo.GroupOf(r) == srcGroup && shape(r, dst) == "lgl"
		}), "L0 L2 G1 L3"},
		{"intermediate in a third group", val, third(src), "L0 G0 L1 L2 G1 L3"},
		{"intermediate in the destination group", val, find("in the destination group", func(r packet.RouterID) bool {
			return r != dst && topo.GroupOf(r) == dstGroup && shape(src, r) == "lgl"
		}), "L0 G0 L1 L2"},
		{"intermediate is the destination router", val, dst, "L0 G0 L1"},
		{"PAR divert after 0 local hops", NewProgressive(topo, &fakeProbe{occ: map[[2]int]int{
			{int(src), topo.NextMinimalPort(src, dst)}: 48}}, PARConfig{ThresholdPhits: 24}), third(src), "L0 G0 L2 L3 G1 L4"},
		{"PAR divert after 1 local hop", NewProgressive(topo, &fakeProbe{occ: map[[2]int]int{
			{int(gateway), topo.NextMinimalPort(gateway, dst)}: 48}}, PARConfig{ThresholdPhits: 24}), third(gateway), "L0 L1 G0 L2 L3 G1 L4"},
		{"minimal PB packet", NewPiggyback(topo, &fakeProbe{}, NewPBManager(topo, &fakeProbe{}, DefaultPBConfig(8, 0), 1), DefaultPBConfig(8, 0)), -1, "L0 G0 L1"},
	}
	for _, c := range cases {
		vcs := core.SingleClass(4, 2)
		if c.alg.Kind() == PAR {
			vcs = core.SingleClass(5, 2)
		}
		mgr := core.NewManager(core.Scheme{Policy: core.Baseline, VCs: vcs, Selection: core.JSQ})
		pkt := newPacket(topo, topo.NodeAt(src, 0), topo.NodeAt(dst, 0))
		if c.alg.Kind() == VAL {
			pkt.Route.AdaptiveDecided, pkt.Route.Kind, pkt.Route.Phase, pkt.Route.Intermediate = true, packet.Nonminimal, packet.PhaseToIntermediate, c.mid
		}
		rng := fixedRand(max(c.mid, 0))
		mode := c.alg.Kind().Mode()
		var got []string
		cur, in := src, topo.TerminalPort(src, pkt.Src)
		for len(got) <= core.Reference(topo, mode).Len() {
			out := c.alg.Route(cur, &pkt.Header, &pkt.Route, rng).OutPort
			h := PlanHop(mgr, topo, mode, cur, in, out, &pkt.Header, &pkt.Route)
			if h.VCs.Empty() || h.VCs.Lo != h.VCs.Hi {
				t.Fatalf("%s: hop %d planned %+v, want exactly one VC", c.name, len(got), h)
			}
			if h.Kind == topology.Terminal {
				break
			}
			got = append(got, fmt.Sprintf("%s%d", strings.ToUpper(h.Kind.String()[:1]), h.VCs.Lo))
			TakeHop(topo, mode, &pkt.Route, h.Kind, h.VCs.Lo, false)
			cur, in = topo.Neighbor(cur, out)
		}
		if c.mid >= 0 && pkt.Route.Intermediate != c.mid {
			t.Fatalf("%s: routed via %d, want %d", c.name, pkt.Route.Intermediate, c.mid)
		}
		if s := strings.Join(got, " "); s != c.want {
			t.Errorf("%s (%d -> %d via %d): baseline VCs %s, want %s", c.name, src, dst, c.mid, s, c.want)
		}
	}
}

// fixedRand draws the same router every time, so a Valiant decision picks
// the intermediate a test names.
type fixedRand packet.RouterID

func (r fixedRand) Intn(int) int     { return int(r) }
func (r fixedRand) Float64() float64 { return 0 }

// TestPBManagerSaturation checks the saturation marking rule against a fake
// probe.
func TestPBManagerSaturation(t *testing.T) {
	topo := testDF(t)
	probe := &fakeProbe{occ: map[[2]int]int{}}
	cfg := DefaultPBConfig(8, 0)
	cfg.Sensing = SensePerPort
	m := NewPBManager(topo, probe, cfg, 1)

	first := topo.FirstGlobalPort()
	// Router 0: one global port far above the router's average.
	probe.occ[[2]int{0, first}] = 64
	probe.occ[[2]int{0, first + 1}] = 8
	// Router 1: balanced occupancy, nothing saturated.
	probe.occ[[2]int{1, first}] = 32
	probe.occ[[2]int{1, first + 1}] = 32
	m.Update(0)

	if !m.Saturated(packet.Request, 0, 0) {
		t.Error("router 0 global port 0 should be saturated (64 vs average 36)")
	}
	if m.Saturated(packet.Request, 0, 1) {
		t.Error("router 0 global port 1 should not be saturated")
	}
	if m.Saturated(packet.Request, 1, 0) || m.Saturated(packet.Request, 1, 1) {
		t.Error("balanced ports should not be saturated")
	}
	// Below the noise floor nothing is saturated even if unbalanced.
	probe.occ[[2]int{0, first}] = 4
	probe.occ[[2]int{0, first + 1}] = 0
	m.Update(1)
	if m.Saturated(packet.Request, 0, 0) {
		t.Error("occupancy below one packet should never mark saturation")
	}
}

// TestPBManagerPublicationDelay checks that saturation bits only become
// visible at the configured interval.
func TestPBManagerPublicationDelay(t *testing.T) {
	topo := testDF(t)
	probe := &fakeProbe{occ: map[[2]int]int{}}
	cfg := DefaultPBConfig(8, 10)
	m := NewPBManager(topo, probe, cfg, 1)
	first := topo.FirstGlobalPort()

	m.Update(0) // publishes the all-clear state
	probe.occ[[2]int{0, first}] = 64
	m.Update(1)
	if m.Saturated(packet.Request, 0, 0) {
		t.Error("saturation must not be visible before the publication interval")
	}
	m.Update(11)
	if !m.Saturated(packet.Request, 0, 0) {
		t.Error("saturation should be visible after the publication interval")
	}
}

// traceProbe replays a recorded occupancy trace: occ[cycle][router][global
// port index], shifted per sensed VC so the two message classes disagree.
type traceProbe struct {
	occ   [][][]int
	first int // first global port
	cycle int
}

func (p *traceProbe) OutputOccupancy(r packet.RouterID, port int, vc int, minOnly bool) int {
	return p.occ[p.cycle][r][port-p.first] + 5*vc
}
func (p *traceProbe) OutputCapacity(packet.RouterID, int, int) int { return 64 }

// TestPBManagerPublishesPerCycleState pins that computing the saturation bits
// only on publishing cycles is unobservable: over a recorded occupancy trace
// the visible bits must equal, every cycle, those of a reference that
// recomputes every router's bits every cycle and copies them out when the
// interval has elapsed (what Update used to do).
func TestPBManagerPublishesPerCycleState(t *testing.T) {
	topo := testDF(t)
	h, routers, first := topo.H, topo.NumRouters(), topo.FirstGlobalPort()
	const cycles, classes = 200, 2
	rng := rand.New(rand.NewSource(11))
	trace := make([][][]int, cycles)
	for c := range trace {
		trace[c] = make([][]int, routers)
		for r := range trace[c] {
			trace[c][r] = make([]int, h)
			for g := range trace[c][r] {
				// Mostly balanced around 24 phits with occasional spikes, so
				// bits flip often and the noise floor (8) is crossed both ways.
				trace[c][r][g] = rng.Intn(32)
				if rng.Intn(4) == 0 {
					trace[c][r][g] += 40
				}
			}
		}
	}
	for _, interval := range []int64{0, 1, 10} {
		probe := &traceProbe{occ: trace, first: first}
		cfg := DefaultPBConfig(8, interval)
		cfg.ClassVC = [packet.NumClasses]int{0, 1}
		m := NewPBManager(topo, probe, cfg, classes)

		computed := make([]bool, classes*routers*h)
		visible := make([]bool, len(computed))
		lastPub := int64(-1)
		flips := 0
		for now := int64(0); now < cycles; now++ {
			probe.cycle = int(now)
			m.Update(now)

			for c := 0; c < classes; c++ {
				for r := 0; r < routers; r++ {
					sum := 0
					for g := 0; g < h; g++ {
						sum += probe.OutputOccupancy(packet.RouterID(r), first+g, cfg.ClassVC[c], false)
					}
					for g := 0; g < h; g++ {
						occ := probe.OutputOccupancy(packet.RouterID(r), first+g, cfg.ClassVC[c], false)
						computed[(c*routers+r)*h+g] = occ >= cfg.MinSaturationPhits &&
							occ*cfg.SaturationDen*h > cfg.SaturationNum*sum
					}
				}
			}
			if interval <= 0 || lastPub < 0 || now-lastPub >= interval {
				for i := range computed {
					if visible[i] != computed[i] {
						flips++
					}
				}
				copy(visible, computed)
				lastPub = now
			}

			for c := 0; c < classes; c++ {
				for r := 0; r < routers; r++ {
					for g := 0; g < h; g++ {
						if got, want := m.Saturated(packet.Class(c), packet.RouterID(r), g), visible[(c*routers+r)*h+g]; got != want {
							t.Fatalf("interval %d cycle %d class %d router %d port %d: visible=%v, per-cycle reference=%v", interval, now, c, r, g, got, want)
						}
					}
				}
			}
		}
		if flips < cycles/int(max(interval, 1)) {
			t.Fatalf("interval %d: only %d bits ever changed; the trace does not exercise the rule", interval, flips)
		}
	}
}

// TestPiggybackDecision checks that PB diverts exactly when the minimal
// global link is marked saturated or the local comparison favours Valiant.
func TestPiggybackDecision(t *testing.T) {
	topo := testDF(t)
	probe := &fakeProbe{occ: map[[2]int]int{}}
	cfg := DefaultPBConfig(8, 0)
	cfg.Sensing = SensePerPort
	m := NewPBManager(topo, probe, cfg, 1)
	pb := NewPiggyback(topo, probe, m, cfg)
	rng := rand.New(rand.NewSource(3))

	// Destination in another group, nothing congested: route minimally.
	dst := topo.NodeAt(topo.RouterInGroup(2, 1), 0)
	pkt := newPacket(topo, 0, dst)
	m.Update(0)
	dec := pb.Route(pkt.SrcRouter, &pkt.Header, &pkt.Route, rng)
	if pkt.Route.Kind != packet.Minimal {
		t.Fatalf("uncongested PB decision should be minimal, got %v", pkt.Route.Kind)
	}
	if topo.PortKind(pkt.SrcRouter, dec.OutPort) == topology.Terminal {
		t.Fatal("packet cannot be delivered at the source router")
	}

	// Saturate the minimal global link and re-decide with a fresh packet.
	gr, gp, _ := topo.MinimalGlobalLink(0, 2)
	probe.occ[[2]int{int(gr), gp}] = 128
	// Give the router a second, idle global port so the average stays low.
	m.Update(0)
	pkt2 := newPacket(topo, 0, dst)
	pb.Route(pkt2.SrcRouter, &pkt2.Header, &pkt2.Route, rng)
	if pkt2.Route.Kind != packet.Nonminimal {
		t.Fatal("PB should divert when the minimal global link is saturated")
	}

	// Intra-group traffic is always minimal.
	pkt3 := newPacket(topo, 0, topo.NodeAt(3, 0))
	pb.Route(pkt3.SrcRouter, &pkt3.Header, &pkt3.Route, rng)
	if pkt3.Route.Kind != packet.Minimal {
		t.Fatal("intra-group traffic must stay minimal")
	}
	if pb.Kind() != PB || pb.Manager() != m {
		t.Error("PB metadata broken")
	}
}

// TestProgressiveDiverts checks that PAR diverts when the minimal next hop is
// congested and stays minimal otherwise.
func TestProgressiveDiverts(t *testing.T) {
	topo := testDF(t)
	probe := &fakeProbe{occ: map[[2]int]int{}, cap: 64}
	alg := NewProgressive(topo, probe, PARConfig{ThresholdPhits: 24, Sensing: SensePerPort})
	rng := rand.New(rand.NewSource(4))

	dst := topo.NodeAt(topo.RouterInGroup(3, 0), 0)
	pkt := newPacket(topo, 0, dst)
	alg.Route(pkt.SrcRouter, &pkt.Header, &pkt.Route, rng)
	if pkt.Route.Kind != packet.Minimal {
		t.Fatal("PAR should start minimal when uncongested")
	}

	// Congest the minimal first hop of a fresh packet beyond half capacity.
	minPort := topo.NextMinimalPort(0, topo.RouterOfNode(dst))
	probe.occ[[2]int{0, minPort}] = 48
	pkt2 := newPacket(topo, 0, dst)
	alg.Route(pkt2.SrcRouter, &pkt2.Header, &pkt2.Route, rng)
	if pkt2.Route.Kind != packet.Nonminimal {
		t.Fatal("PAR should divert when the minimal next hop is congested")
	}
	if alg.Kind() != PAR || core.Reference(topo, alg.Kind().Mode()).Hops() != (topology.HopCount{Local: 5, Global: 2}) {
		t.Error("PAR metadata broken")
	}
}

func TestParseHelpers(t *testing.T) {
	for _, k := range Kinds {
		got, err := ParseKind(k.String())
		if err != nil || got != k {
			t.Errorf("ParseKind round trip failed for %v", k)
		}
	}
	if _, err := ParseKind("bogus"); err == nil {
		t.Error("expected error for unknown routing kind")
	}
	for _, s := range Sensings {
		got, err := ParseSensing(s.String())
		if err != nil || got != s {
			t.Errorf("ParseSensing round trip failed for %v", s)
		}
	}
	if _, err := ParseSensing("bogus"); err == nil {
		t.Error("expected error for unknown sensing mode")
	}
	if MIN.Mode() != core.ModeMIN || VAL.Mode() != core.ModeVAL || PAR.Mode() != core.ModePAR || PB.Mode() != core.ModeVAL {
		t.Error("Mode broken")
	}
}
