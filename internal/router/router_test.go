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
