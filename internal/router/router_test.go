package router

import (
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
	env := &fakeEnv{topo: topo, downstream: map[int]*buffer.InputBuffer{}}
	for p := 0; p < topo.Radix(); p++ {
		if topo.PortKind(0, p) == topology.Terminal {
			continue
		}
		numVCs := scheme.VCs.TotalOf(topo.PortKind(0, p))
		env.downstream[p] = buffer.NewInputBuffer(buffer.StaticConfig(numVCs, 64))
	}
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
	env := &fakeEnv{topo: topo, downstream: map[int]*buffer.InputBuffer{}}
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
	t.Helper()
	topo, err := topology.NewDragonfly(2, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	g := &sleepRig{t: t, topo: topo, store: packet.NewStore()}
	g.rt, err = New(0, topo, scheme, alg(topo), testParams(1, g.store), 7)
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
	env := &fakeEnv{topo: g.topo, downstream: map[int]*buffer.InputBuffer{}, instantCredits: true}
	for p := 0; p < g.topo.Radix(); p++ {
		if kind := g.topo.PortKind(0, p); kind != topology.Terminal {
			env.downstream[p] = buffer.NewInputBuffer(cfg(g.rt.scheme.VCs.TotalOf(kind)))
		}
	}
	return env
}

// inject places an 8-phit packet for dstRouter into injection VC vc and
// returns it.
func (g *sleepRig) inject(vc int, dstRouter packet.RouterID) packet.Ref {
	g.t.Helper()
	g.ids++
	ref := g.store.Alloc(g.ids, g.topo.NodeAt(0, 0), g.topo.NodeAt(dstRouter, 0), 8, packet.Request, g.now)
	hdr := g.store.Hdr(ref)
	hdr.SrcRouter, hdr.DstRouter = 0, dstRouter
	if !g.rt.Input(0).Reserve(vc, 8, packet.Minimal) {
		g.t.Fatal("injection buffer full")
	}
	g.rt.EnqueueArrival(0, vc, ref, g.now, packet.Minimal)
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
	g.wantWork("blocked", Work{Evals: 3, Sleeps: 2, Wakeups: 1, WakeFailed: 1})
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
	g.wantWork("woken", Work{Evals: 4, Sleeps: 2, Wakeups: 2, WakeFailed: 1})
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
	g.wantWork("woken", Work{Evals: 2, Sleeps: 1, Wakeups: 1})
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

	roomy := g.newEnv(func(numVCs int) buffer.Config { return buffer.StaticConfig(numVCs, 8) })
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
