package router

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"flexvc/internal/buffer"
	"flexvc/internal/core"
	"flexvc/internal/packet"
	"flexvc/internal/routing"
	"flexvc/internal/topology"
)

// fakeEnv is a minimal router environment: it wires a single router's output
// ports back to stand-alone input buffers and records scheduled events.
type fakeEnv struct {
	topo       topology.Topology
	downstream map[int]*buffer.InputBuffer // keyed by output port
	arrivals   []struct {
		delay int64
		port  int
		vc    int
		ref   packet.Ref
	}
	credits    int
	deliveries []packet.Ref
	// instantCredits returns credits inside ScheduleCredit, as the benchmark
	// kernels' environments do, instead of only counting them.
	instantCredits bool
}

func (f *fakeEnv) DownstreamInput(r packet.RouterID, port int) *buffer.InputBuffer {
	return f.downstream[port]
}

func (f *fakeEnv) ScheduleArrival(delay int64, to packet.RouterID, port, vc int, ref packet.Ref, kind packet.RouteKind) {
	f.arrivals = append(f.arrivals, struct {
		delay int64
		port  int
		vc    int
		ref   packet.Ref
	}{delay, port, vc, ref})
}

func (f *fakeEnv) ScheduleCredit(delay int64, buf *buffer.InputBuffer, vc, size int, kind packet.RouteKind) {
	f.credits++
	if f.instantCredits {
		buf.ReleaseCredit(vc, size, kind)
	}
}

func (f *fakeEnv) ScheduleDelivery(delay int64, ref packet.Ref) {
	f.deliveries = append(f.deliveries, ref)
}

// newFakeEnv wires router 0's link ports to stand-alone input buffers with
// the port's VC count under scheme, each built by cfg.
func newFakeEnv(topo topology.Topology, scheme core.Scheme, cfg func(numVCs int) buffer.Config) *fakeEnv {
	env := &fakeEnv{topo: topo, downstream: map[int]*buffer.InputBuffer{}}
	for p := 0; p < topo.Radix(); p++ {
		if kind := topo.PortKind(0, p); kind != topology.Terminal {
			env.downstream[p] = buffer.NewInputBuffer(cfg(scheme.VCs.TotalOf(kind)))
		}
	}
	return env
}

// staticVCs returns static buffer configurations of perVC phits per VC.
func staticVCs(perVC int) func(numVCs int) buffer.Config {
	return func(numVCs int) buffer.Config { return buffer.StaticConfig(numVCs, perVC) }
}

func testParams(numClasses int, store *packet.Store) Params {
	return Params{
		Store:            store,
		Speedup:          2,
		Pipeline:         2,
		OutputBufPhits:   32,
		InjectionQueues:  2,
		NumClasses:       numClasses,
		LocalLatency:     4,
		GlobalLatency:    10,
		InjectionLatency: 1,
		BufferConfig: func(kind topology.PortKind, numVCs int) buffer.Config {
			return buffer.StaticConfig(numVCs, 32)
		},
	}
}

func buildRouter(t testing.TB) (*Router, *fakeEnv, *topology.Dragonfly, *packet.Store) {
	t.Helper()
	topo, err := topology.NewDragonfly(2, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	store := packet.NewStore()
	scheme := core.Scheme{Policy: core.FlexVC, VCs: core.SingleClass(2, 1), Selection: core.JSQ}
	rt, err := New(0, topo, scheme, routing.NewMinimal(topo), testParams(1, store), 7)
	if err != nil {
		t.Fatal(err)
	}
	env := newFakeEnv(topo, scheme, staticVCs(64))
	rt.SetEnv(env)
	return rt, env, topo, store
}

// TestParamsValidation checks the parameter guard rails.
func TestParamsValidation(t *testing.T) {
	store := packet.NewStore()
	good := testParams(1, store)
	if err := good.Validate(); err != nil {
		t.Fatalf("valid params rejected: %v", err)
	}
	bad := []func(*Params){
		func(p *Params) { p.Store = nil },
		func(p *Params) { p.Speedup = 0 },
		func(p *Params) { p.Pipeline = -1 },
		func(p *Params) { p.OutputBufPhits = 0 },
		func(p *Params) { p.InjectionQueues = 0 },
		func(p *Params) { p.NumClasses = 0 },
		func(p *Params) { p.BufferConfig = nil },
	}
	for i, mut := range bad {
		p := testParams(1, store)
		mut(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("bad params %d accepted", i)
		}
	}
	if good.LinkLatency(topology.Global) != 10 || good.LinkLatency(topology.Local) != 4 || good.LinkLatency(topology.Terminal) != 1 {
		t.Error("LinkLatency broken")
	}
}

// TestForwardMinimalPacket injects a packet into a router's injection buffer
// and checks that it is allocated, consumes downstream credits and leaves on
// the right link.
func TestForwardMinimalPacket(t *testing.T) {
	rt, env, topo, store := buildRouter(t)

	// A packet from node 0 (attached to router 0) to a node of another
	// group, so its first hop is deterministic.
	dst := topo.NodeAt(topo.RouterInGroup(1, 0), 0)
	ref := store.Alloc(1, topo.NodeAt(0, 0), dst, 8, packet.Request, 0)
	hdr := store.Hdr(ref)
	hdr.SrcRouter = 0
	hdr.DstRouter = topo.RouterOfNode(dst)
	dstRouter := hdr.DstRouter

	inj := rt.Input(0)
	if !inj.Reserve(0, 8, packet.Minimal) {
		t.Fatal("injection buffer should have room")
	}
	rt.EnqueueArrival(0, 0, ref, 0, packet.Minimal)
	if err := rt.AuditActivity(); err != nil {
		t.Fatal(err)
	}

	wantPort := topo.NextMinimalPort(0, dstRouter)
	for cyc := int64(0); cyc < 40 && len(env.arrivals) == 0; cyc++ {
		rt.Step(cyc)
		if err := rt.AuditActivity(); err != nil {
			t.Fatalf("cycle %d: %v", cyc, err)
		}
	}
	if len(env.arrivals) != 1 {
		t.Fatalf("expected one arrival, got %d", len(env.arrivals))
	}
	if rt.Grants() != 1 {
		t.Fatalf("expected one grant, got %d", rt.Grants())
	}
	arr := env.arrivals[0]
	_, wantInPort := topo.Neighbor(0, wantPort)
	if arr.port != wantInPort {
		t.Errorf("packet left through the wrong link (arrives at port %d, want %d)", arr.port, wantInPort)
	}
	if env.downstream[wantPort].CommittedOf(arr.vc) != 8 {
		t.Error("downstream credits were not consumed")
	}
	if env.credits == 0 {
		t.Error("the input buffer credit return was never scheduled")
	}
	rtState := store.Route(ref)
	if rtState.Hops != 1 || int(rtState.InputVC) != arr.vc {
		t.Errorf("route state not updated: %+v", *rtState)
	}
	if rt.ResidentPackets() != 0 {
		t.Error("packet should have left the router")
	}
}

// TestEjectionByClass checks that packets destined to local nodes are
// delivered through the per-class ejection channels.
func TestEjectionByClass(t *testing.T) {
	topo, err := topology.NewDragonfly(2, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	store := packet.NewStore()
	scheme := core.Scheme{Policy: core.Baseline, VCs: core.TwoClass(2, 1, 2, 1), Selection: core.JSQ}
	rt, err := New(0, topo, scheme, routing.NewMinimal(topo), testParams(2, store), 7)
	if err != nil {
		t.Fatal(err)
	}
	env := newFakeEnv(topo, scheme, staticVCs(64))
	rt.SetEnv(env)

	// A reply arriving on a local input port, destined to node 1 of router 0.
	ref := store.Alloc(2, topo.NodeAt(5, 0), topo.NodeAt(0, 1), 8, packet.Reply, 0)
	hdr := store.Hdr(ref)
	hdr.SrcRouter = 5
	hdr.DstRouter = 0
	store.Route(ref).InputVC = 2
	localPort := topo.FirstLocalPort()
	rt.Input(localPort).Reserve(2, 8, packet.Minimal)
	rt.EnqueueArrival(localPort, 2, ref, 0, packet.Minimal)

	for cyc := int64(0); cyc < 40 && len(env.deliveries) == 0; cyc++ {
		rt.Step(cyc)
	}
	if len(env.deliveries) != 1 || env.deliveries[0] != ref {
		t.Fatalf("reply was not delivered (deliveries=%d)", len(env.deliveries))
	}
}

// TestNewRejectsPortsBeyondMask: the allocator scans one 64-bit occupancy
// word per port, so a port kind with more VCs than that must fail at
// construction, naming the kind and the count; exactly 64 is fine.
func TestNewRejectsPortsBeyondMask(t *testing.T) {
	topo, err := topology.NewDragonfly(2, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name          string
		local, global int
		injection     int
		want          string // "" = accepted
	}{
		{"64 everywhere", 64, 64, 64, ""},
		{"65 local", 65, 2, 3, "local ports have 65 VCs"},
		{"65 global", 4, 65, 3, "global ports have 65 VCs"},
		{"65 injection queues", 4, 2, 65, "terminal ports have 65 VCs"},
	} {
		store := packet.NewStore()
		params := testParams(1, store)
		params.InjectionQueues = tc.injection
		scheme := core.Scheme{Policy: core.FlexVC, VCs: core.SingleClass(tc.local, tc.global), Selection: core.JSQ}
		_, err := New(0, topo, scheme, routing.NewMinimal(topo), params, 7)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: rejected: %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: error %v, want one containing %q", tc.name, err, tc.want)
		}
	}
}

// sleepRig is a router whose downstream buffers hold exactly one packet per
// VC (or, with damq, one packet per port in a fully shared pool), so a second
// packet towards the same place blocks on credits.
type sleepRig struct {
	t     *testing.T
	rt    *Router
	env   *fakeEnv
	topo  *topology.Dragonfly
	store *packet.Store
	now   int64
	ids   uint64
}

func newSleepRig(t *testing.T, scheme core.Scheme, alg func(*topology.Dragonfly) routing.Algorithm, damq bool) *sleepRig {
	return newSleepRigClasses(t, scheme, alg, damq, 1)
}

func newSleepRigClasses(t *testing.T, scheme core.Scheme, alg func(*topology.Dragonfly) routing.Algorithm, damq bool, classes int) *sleepRig {
	t.Helper()
	topo, err := topology.NewDragonfly(2, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	g := &sleepRig{t: t, topo: topo, store: packet.NewStore()}
	g.rt, err = New(0, topo, scheme, alg(topo), testParams(classes, g.store), 7)
	if err != nil {
		t.Fatal(err)
	}
	g.env = g.newEnv(func(numVCs int) buffer.Config {
		if damq {
			return buffer.DAMQConfig(numVCs, 8, 0)
		}
		return buffer.StaticConfig(numVCs, 8)
	})
	g.rt.SetEnv(g.env)
	return g
}

func (g *sleepRig) newEnv(cfg func(numVCs int) buffer.Config) *fakeEnv {
	env := newFakeEnv(g.topo, g.rt.scheme, cfg)
	env.instantCredits = true
	return env
}

// inject places an 8-phit packet for dstRouter into injection VC vc, visible
// to the allocator at once, and returns it.
func (g *sleepRig) inject(vc int, dstRouter packet.RouterID) packet.Ref {
	g.t.Helper()
	return g.injectReady(vc, g.topo.NodeAt(dstRouter, 0), packet.Request, g.now)
}

// injectReady places an 8-phit packet of the given class for node dst into
// injection VC vc, leaving the router pipeline at cycle ready.
func (g *sleepRig) injectReady(vc int, dst packet.NodeID, class packet.Class, ready int64) packet.Ref {
	g.t.Helper()
	g.ids++
	ref := g.store.Alloc(g.ids, g.topo.NodeAt(0, 0), dst, 8, class, g.now)
	hdr := g.store.Hdr(ref)
	hdr.SrcRouter, hdr.DstRouter = 0, g.topo.RouterOfNode(dst)
	if !g.rt.Input(0).Reserve(vc, 8, packet.Minimal) {
		g.t.Fatal("injection buffer full")
	}
	g.rt.EnqueueArrival(0, vc, ref, ready, packet.Minimal)
	return ref
}

// step advances n cycles, auditing after each.
func (g *sleepRig) step(n int) {
	g.t.Helper()
	for i := 0; i < n; i++ {
		g.rt.Step(g.now)
		g.now++
		if err := g.rt.AuditActivity(); err != nil {
			g.t.Fatalf("cycle %d: %v", g.now-1, err)
		}
	}
}

// wantWork fails unless the work counters read as given.
func (g *sleepRig) wantWork(when string, want Work) {
	g.t.Helper()
	if got := g.rt.Work(); got != want {
		g.t.Fatalf("%s: work %+v, want %+v", when, got, want)
	}
}

// TestBlockedHeadSleepsUntilDirectCredit: a head blocked on exhausted
// downstream credits is evaluated once and then left alone, however many
// cycles pass, until a credit is released directly on the buffer (no event
// system in between, as the benchmark kernels' environments do) — which wakes
// it on the next Step.
func TestBlockedHeadSleepsUntilDirectCredit(t *testing.T) {
	g := newSleepRig(t, core.Scheme{Policy: core.Baseline, VCs: core.SingleClass(2, 1), Selection: core.JSQ},
		func(d *topology.Dragonfly) routing.Algorithm { return routing.NewMinimal(d) }, false)
	dst := g.topo.RouterInGroup(1, 0)
	port := g.topo.NextMinimalPort(0, dst)
	g.inject(0, dst)
	g.inject(0, dst)
	g.step(30)
	// The first packet took the only VC the baseline policy allows it. The
	// second failed on credits and slept; the first one leaving the output
	// buffer woke it once (a drain signals the port, whatever the sleeper
	// lacks), it failed again, and nothing has touched it since.
	if g.rt.Grants() != 1 || g.rt.asleep != 1 {
		t.Fatalf("grants=%d asleep=%d, want 1 and 1", g.rt.Grants(), g.rt.asleep)
	}
	g.wantWork("blocked", Work{Evals: 3, Sleeps: 2, Wakeups: 1, WakeFailed: 1, TimerWakeups: 1, XmitVisits: 1, Sends: 1})
	if got := g.rt.waits[0]; got != (waitKeys{int16(port), -1}) {
		t.Fatalf("sleeps on %v, want the planned port %d only", got, port)
	}

	down := g.env.downstream[port]
	for vc := 0; vc < down.NumVCs(); vc++ {
		if c := down.CommittedOf(vc); c > 0 {
			down.ReleaseCredit(vc, c, packet.Minimal)
		}
	}
	g.step(1)
	if g.rt.Grants() != 2 || g.rt.asleep != 0 {
		t.Fatalf("after the credit: grants=%d asleep=%d, want 2 and 0", g.rt.Grants(), g.rt.asleep)
	}
	g.wantWork("woken", Work{Evals: 4, Sleeps: 2, Wakeups: 2, WakeFailed: 1, TimerWakeups: 1, XmitVisits: 1, Sends: 1})
}

// TestOutputDrainWakesSleeper: with credits to spare, a head blocked on a full
// output staging buffer wakes when transmit pops a packet from it.
func TestOutputDrainWakesSleeper(t *testing.T) {
	g := newSleepRig(t, core.Scheme{Policy: core.FlexVC, VCs: core.SingleClass(8, 8), Selection: core.JSQ},
		func(d *topology.Dragonfly) routing.Algorithm { return routing.NewMinimal(d) }, false)
	dst := g.topo.RouterInGroup(1, 0)
	// The output buffer holds 32 phits: four packets stage at once (one per
	// downstream VC), the fifth finds it full.
	for i := 0; i < 5; i++ {
		g.inject(i%2, dst)
	}
	g.step(4)
	if g.rt.asleep == 0 {
		t.Fatalf("nothing sleeps with the output buffer full (grants=%d)", g.rt.Grants())
	}
	g.step(40)
	if g.rt.Grants() != 5 || g.rt.asleep != 0 {
		t.Fatalf("grants=%d asleep=%d after the output drained, want 5 and 0", g.rt.Grants(), g.rt.asleep)
	}
	if w := g.rt.Work(); w.Wakeups == 0 {
		t.Fatalf("the drain woke nobody: %+v", w)
	}
}

// TestDAMQCreditOnOtherVCWakesSleeper: on a DAMQ port a credit returned to one
// VC refills the pool every VC draws from, so it must wake a head whose own
// allowed VC received nothing.
func TestDAMQCreditOnOtherVCWakesSleeper(t *testing.T) {
	g := newSleepRig(t, core.Scheme{Policy: core.Baseline, VCs: core.SingleClass(2, 1), Selection: core.JSQ},
		func(d *topology.Dragonfly) routing.Algorithm { return routing.NewMinimal(d) }, true)
	// A destination in the router's own group: the first hop is local, and
	// local ports have two VCs sharing one 8-phit pool.
	dst := packet.RouterID(1)
	port := g.topo.NextMinimalPort(0, dst)
	down := g.env.downstream[port]
	if down.NumVCs() != 2 {
		t.Fatalf("local port has %d VCs, want 2", down.NumVCs())
	}
	// Somebody else's packet holds the whole pool through VC 1; the baseline
	// policy allows ours VC 0 only.
	if !down.Reserve(1, 8, packet.Minimal) {
		t.Fatal("cannot fill the shared pool")
	}
	g.inject(0, dst)
	g.step(10)
	if g.rt.Grants() != 0 || g.rt.asleep != 1 {
		t.Fatalf("grants=%d asleep=%d, want the head asleep on the shared pool", g.rt.Grants(), g.rt.asleep)
	}
	down.ReleaseCredit(1, 8, packet.Minimal)
	g.step(1)
	if g.rt.Grants() != 1 || down.CommittedOf(0) != 8 {
		t.Fatalf("grants=%d, VC 0 committed %d: the credit on VC 1 did not wake the head", g.rt.Grants(), down.CommittedOf(0))
	}
	g.wantWork("woken", Work{Evals: 2, Sleeps: 1, Wakeups: 1, TimerWakeups: 1})
}

// TestSleeperWakesOnEscapePortAndReverts: an opportunistic Valiant head blocked
// on both its planned port and its escape port sleeps on the two; a credit on
// the escape port alone wakes it, and it abandons the detour.
func TestSleeperWakesOnEscapePortAndReverts(t *testing.T) {
	g := newSleepRig(t, core.Scheme{Policy: core.FlexVC, VCs: core.SingleClass(3, 2), Selection: core.JSQ},
		func(d *topology.Dragonfly) routing.Algorithm { return routing.NewValiant(d) }, false)
	dst, mid := g.topo.RouterInGroup(1, 0), g.topo.RouterInGroup(5, 1)
	planned, escape := g.topo.NextMinimalPort(0, mid), g.topo.NextMinimalPort(0, dst)
	if planned == escape {
		t.Fatalf("pick another intermediate: both paths leave through port %d", planned)
	}
	for _, p := range []int{planned, escape} {
		d := g.env.downstream[p]
		for vc := 0; vc < d.NumVCs(); vc++ {
			d.Reserve(vc, 8, packet.Minimal)
		}
	}
	ref := g.inject(0, dst)
	rt := g.store.Route(ref)
	rt.AdaptiveDecided, rt.Kind, rt.Phase, rt.Intermediate = true, packet.Nonminimal, packet.PhaseToIntermediate, mid
	g.step(10)
	if got, want := g.rt.waits[0], (waitKeys{int16(planned), int16(escape)}); g.rt.asleep != 1 || got != want {
		t.Fatalf("asleep=%d on %v, want 1 on %v", g.rt.asleep, got, want)
	}
	g.env.downstream[escape].ReleaseCredit(0, 8, packet.Minimal)
	g.step(1)
	if g.rt.Grants() != 1 || rt.Phase != packet.PhaseToDestination {
		t.Fatalf("grants=%d phase=%v: the head did not revert to its escape path", g.rt.Grants(), rt.Phase)
	}
	if g.env.downstream[escape].CommittedOf(0) != 8 {
		t.Fatal("the reverted packet did not take the escape port's credits")
	}
}

// TestSetEnvClearsSleepStateAndRewires: re-wiring a router must forget heads
// that slept on the old environment's buffers, stop listening to those
// buffers and register with the new ones.
func TestSetEnvClearsSleepStateAndRewires(t *testing.T) {
	g := newSleepRig(t, core.Scheme{Policy: core.Baseline, VCs: core.SingleClass(2, 1), Selection: core.JSQ},
		func(d *topology.Dragonfly) routing.Algorithm { return routing.NewMinimal(d) }, false)
	dst := g.topo.RouterInGroup(1, 0)
	port := g.topo.NextMinimalPort(0, dst)
	g.inject(0, dst)
	g.inject(0, dst)
	g.inject(1, dst)
	g.step(30)
	if g.rt.asleep != 2 {
		t.Fatalf("asleep=%d, want both remaining heads asleep", g.rt.asleep)
	}
	oldDown := g.env.downstream[port]

	roomy := g.newEnv(staticVCs(8))
	g.rt.SetEnv(roomy)
	if g.rt.asleep != 0 || g.rt.sleepMask[0] != 0 || g.rt.planCur[0] != 0 {
		t.Fatalf("SetEnv left asleep=%d sleepMask=%#x planCur=%#x", g.rt.asleep, g.rt.sleepMask[0], g.rt.planCur[0])
	}
	if err := g.rt.AuditActivity(); err != nil {
		t.Fatal(err)
	}
	// One head is granted at once against the new, empty buffer; the other
	// sleeps on it.
	g.step(1)
	if g.rt.Grants() != 2 || g.rt.asleep != 1 {
		t.Fatalf("after re-wiring: grants=%d asleep=%d, want 2 and 1", g.rt.Grants(), g.rt.asleep)
	}
	// The old buffer is no longer wired to the router; the new one is.
	oldDown.ReleaseCredit(0, 8, packet.Minimal)
	for _, w := range g.rt.wake {
		if w&(1<<uint(port)) != 0 {
			t.Fatal("a credit on the old environment's buffer still signals the router")
		}
	}
	g.step(10)
	if g.rt.Grants() != 2 {
		t.Fatalf("grants=%d: the old buffer's credit woke a head", g.rt.Grants())
	}
	roomy.downstream[port].ReleaseCredit(0, 8, packet.Minimal)
	g.step(1)
	if g.rt.Grants() != 3 || g.rt.asleep != 0 {
		t.Fatalf("after a credit on the new buffer: grants=%d asleep=%d, want 3 and 0", g.rt.Grants(), g.rt.asleep)
	}
}

// roomy is a scheme with VCs to spare, so nothing in the timer tests blocks on
// credits.
var roomy = core.Scheme{Policy: core.FlexVC, VCs: core.SingleClass(8, 8), Selection: core.JSQ}

func minimal(d *topology.Dragonfly) routing.Algorithm { return routing.NewMinimal(d) }

// TestHeadReadyNowGrantedInSameStep: a head enqueued between two Steps with
// ready equal to the coming cycle is held by a timer like any other new head,
// and the fold at the top of that Step releases it in time to be granted —
// the pattern of the benchmark kernels, which refill and step at one cycle.
func TestHeadReadyNowGrantedInSameStep(t *testing.T) {
	g := newSleepRig(t, roomy, minimal, false)
	g.step(3)
	g.inject(0, g.topo.RouterInGroup(1, 0))
	if g.rt.pipeMask[0] != 1 || len(g.rt.timers) != 1 || g.rt.awake != 0 {
		t.Fatalf("new head: pipeMask=%#x, %d timers, %d awake; want it held by one timer", g.rt.pipeMask[0], len(g.rt.timers), g.rt.awake)
	}
	g.step(1)
	if g.rt.Grants() != 1 {
		t.Fatalf("grants=%d after the Step at the head's ready cycle, want 1", g.rt.Grants())
	}
	g.wantWork("granted", Work{Evals: 1, TimerWakeups: 1})
}

// TestReadySuccessorProposesInSecondIteration: when a grant uncovers a packet
// that is already past the pipeline, it must propose in the next allocation
// iteration of the same Step — deferring it to a timer would lose the
// iteration. One that is still inside the pipeline waits for its cycle.
func TestReadySuccessorProposesInSecondIteration(t *testing.T) {
	g := newSleepRig(t, roomy, minimal, false)
	dst := g.topo.NodeAt(g.topo.RouterInGroup(1, 0), 0)
	g.injectReady(0, dst, packet.Request, 0)
	g.injectReady(0, dst, packet.Request, 0)
	g.injectReady(0, dst, packet.Request, 2)
	g.step(1)
	// Speedup 2: the head in the first iteration, the packet behind it in the
	// second, with no timer in between.
	if g.rt.Grants() != 2 {
		t.Fatalf("grants=%d in the first Step, want both ready packets", g.rt.Grants())
	}
	g.wantWork("two iterations", Work{Evals: 2, TimerWakeups: 1})
	if g.rt.pipeMask[0] != 1 || g.rt.awake != 0 {
		t.Fatalf("pipeMask=%#x awake=%d: the third packet is not waiting on its timer", g.rt.pipeMask[0], g.rt.awake)
	}
	g.step(1)
	if g.rt.Grants() != 2 {
		t.Fatalf("grants=%d at cycle 1: a head inside the pipeline was granted", g.rt.Grants())
	}
	g.step(1)
	if g.rt.Grants() != 3 {
		t.Fatalf("grants=%d at cycle 2, want the third packet granted at its ready cycle", g.rt.Grants())
	}
	g.wantWork("third", Work{Evals: 3, TimerWakeups: 2, XmitVisits: 0, Sends: 0})
}

// TestSetEnvKeepsPipelineTimers: re-wiring forgets what was derived from the
// old environment, not the router's own resident packets — a head inside the
// pipeline stays there, on its timer.
func TestSetEnvKeepsPipelineTimers(t *testing.T) {
	g := newSleepRig(t, roomy, minimal, false)
	g.injectReady(0, g.topo.NodeAt(g.topo.RouterInGroup(1, 0), 0), packet.Request, 3)
	g.step(1)
	g.rt.SetEnv(g.newEnv(staticVCs(8)))
	if err := g.rt.AuditActivity(); err != nil {
		t.Fatal(err)
	}
	if g.rt.pipeMask[0] != 1 || len(g.rt.timers) != 1 {
		t.Fatalf("SetEnv left pipeMask=%#x and %d timers, want the head still held", g.rt.pipeMask[0], len(g.rt.timers))
	}
	g.step(2)
	if g.rt.Grants() != 0 {
		t.Fatalf("grants=%d before the head's ready cycle", g.rt.Grants())
	}
	g.step(1)
	if g.rt.Grants() != 1 {
		t.Fatalf("grants=%d at the head's ready cycle, want 1", g.rt.Grants())
	}
}

// TestSetEnvRejectsMiswiredPorts: plans index a downstream buffer with VC
// ranges below the port's own VC count, so SetEnv must refuse, naming the
// port, a link port whose downstream buffer has one VC fewer or is missing.
func TestSetEnvRejectsMiswiredPorts(t *testing.T) {
	rt, _, topo, _ := buildRouter(t)
	port := topo.FirstLocalPort()
	for _, tc := range []struct {
		name string
		down *buffer.InputBuffer
		want string
	}{
		{"one VC short", buffer.NewInputBuffer(buffer.StaticConfig(1, 64)), fmt.Sprintf("local port %d has 2 VCs, its downstream input buffer 1", port)},
		{"missing", nil, fmt.Sprintf("local port %d has no downstream input buffer", port)},
	} {
		env := newFakeEnv(topo, rt.scheme, staticVCs(64))
		env.downstream[port] = tc.down
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, tc.want) {
					t.Errorf("%s: SetEnv panic %q, want one containing %q", tc.name, msg, tc.want)
				}
			}()
			rt.SetEnv(env)
		}()
	}
}

// TestEjectionClassesComeDueSeparately: a terminal port has one ejection
// channel per class and a single due cycle, the earliest over them. A reply
// must leave while the request channel is still serialising, and the request
// queued behind must leave when that channel falls idle.
func TestEjectionClassesComeDueSeparately(t *testing.T) {
	scheme := core.Scheme{Policy: core.FlexVC, VCs: core.TwoClass(4, 2, 2, 1), Selection: core.JSQ}
	g := newSleepRigClasses(t, scheme, minimal, false, 2)
	local := g.topo.NodeAt(0, 1)
	port := g.topo.TerminalPort(0, local)
	r1 := g.injectReady(0, local, packet.Request, 0)
	r2 := g.injectReady(0, local, packet.Request, 0)
	p1 := g.injectReady(1, local, packet.Reply, 3)
	// Both requests cross the switch at cycle 0 (4 cycles at speedup 2) and
	// the first takes the request channel for 8 cycles from cycle 4; the reply
	// crosses at cycle 3 and is ready at 7.
	sentAt := map[packet.Ref]int64{}
	dues := map[int64]int64{}
	for g.now < 20 {
		before := len(g.env.deliveries)
		g.step(1)
		for _, ref := range g.env.deliveries[before:] {
			sentAt[ref] = g.now - 1
		}
		dues[g.now-1] = g.rt.xmitDue[port]
	}
	if sentAt[r1] != 4 || sentAt[p1] != 7 || sentAt[r2] != 12 || len(g.env.deliveries) != 3 {
		t.Fatalf("sent request 1 at %d, reply at %d, request 2 at %d (%d deliveries); want 4, 7, 12", sentAt[r1], sentAt[p1], sentAt[r2], len(g.env.deliveries))
	}
	// After each send the port is due at the earlier of its two channels.
	if dues[0] != 4 || dues[4] != 7 || dues[7] != 12 || dues[12] != never {
		t.Fatalf("due cycle after cycles 0, 4, 7, 12: %d, %d, %d, %d; want 4, 7, 12, never", dues[0], dues[4], dues[7], dues[12])
	}
	if w := g.rt.Work(); w.XmitVisits != 3 || w.Sends != 3 {
		t.Fatalf("%d port visits for %d sends, want 3 and 3", w.XmitVisits, w.Sends)
	}
}

// TestLazySourceIsTheSeededSource: a router's PRNG is built on the first draw
// and from then on is, draw for draw and whatever mix of methods asks, the
// source math/rand would have seeded up front. Re-seeding keeps the built
// source, reseeds it in place on the next draw without allocating, and then
// draws what a fresh source would.
func TestLazySourceIsTheSeededSource(t *testing.T) {
	const seed = 0x5eed
	lazy := &lazySource{seed: seed}
	got, want := rand.New(lazy), rand.New(rand.NewSource(seed))
	if lazy.src != nil {
		t.Fatal("the source was seeded before any draw")
	}
	for i := 0; i < 2000; i++ {
		var a, b any
		switch i % 5 {
		case 0:
			a, b = got.Int63(), want.Int63()
		case 1:
			a, b = got.Uint64(), want.Uint64()
		case 2:
			a, b = got.Intn(7), want.Intn(7)
		case 3:
			a, b = got.Float64(), want.Float64()
		case 4:
			a, b = got.Int31n(1000), want.Int31n(1000)
		}
		if a != b {
			t.Fatalf("draw %d: %v, the eagerly seeded source gives %v", i, a, b)
		}
	}
	built := lazy.src
	got.Seed(seed + 1)
	if lazy.seeded || lazy.src != built {
		t.Fatal("re-seeding seeded eagerly or dropped the built source")
	}
	want = rand.New(rand.NewSource(seed + 1))
	for i := 0; i < 100; i++ {
		if a, b := got.Int63(), want.Int63(); a != b {
			t.Fatalf("draw %d after re-seeding: %d, want %d", i, a, b)
		}
	}
	if allocs := testing.AllocsPerRun(10, func() { got.Seed(seed + 2); got.Int63() }); allocs != 0 {
		t.Errorf("re-seeding and drawing allocates %v times, want 0", allocs)
	}
}

// TestDeterministicRouterNeverSeeds: MIN routing with JSQ selection asks for
// no randomness, so such a router never pays for a PRNG.
func TestDeterministicRouterNeverSeeds(t *testing.T) {
	g := newSleepRig(t, roomy, minimal, false)
	lazy := &lazySource{seed: 1}
	g.rt.rng = rand.New(lazy)
	for i := 0; i < 6; i++ {
		g.inject(i%2, g.topo.RouterInGroup(1+i%3, 0))
		g.step(3)
	}
	if g.rt.Grants() == 0 {
		t.Fatal("nothing was granted; the check is vacuous")
	}
	if lazy.src != nil {
		t.Fatal("a MIN/JSQ router drew randomness and seeded its PRNG")
	}
}
