package router

import (
	"math"
	"testing"

	"flexvc/internal/buffer"
	"flexvc/internal/core"
	"flexvc/internal/packet"
	"flexvc/internal/routing"
	"flexvc/internal/topology"
)

// The benchmarks below time the router's hot paths for pprof; TestRouterAllocs
// pins each of them at zero allocations per operation. Both share the setup
// functions, so the state a benchmark times is the state the test pins.

// benchEnv is an environment with infinite downstream capacity: arrivals and
// credits are resolved immediately, so the router under benchmark never
// blocks on flow control and every Step measures real allocation work.
type benchEnv struct {
	downstream []*buffer.InputBuffer // by output port, nil for terminal
}

func (e *benchEnv) DownstreamInput(r packet.RouterID, port int) *buffer.InputBuffer {
	return e.downstream[port]
}

func (e *benchEnv) ScheduleArrival(delay int64, to packet.RouterID, port, vc int, ref packet.Ref, kind packet.RouteKind) {
}

func (e *benchEnv) ScheduleCredit(delay int64, buf *buffer.InputBuffer, vc, size int, kind packet.RouteKind) {
	buf.ReleaseCredit(vc, size, kind)
}

func (e *benchEnv) ScheduleDelivery(delay int64, ref packet.Ref) {}

func buildBenchRouter(tb testing.TB) (*Router, *benchEnv, *topology.Dragonfly, *packet.Store) {
	tb.Helper()
	topo, err := topology.NewDragonfly(2, 4, 2)
	if err != nil {
		tb.Fatal(err)
	}
	store := packet.NewStore()
	scheme := core.Scheme{Policy: core.FlexVC, VCs: core.SingleClass(4, 2), Selection: core.JSQ}
	rt, err := New(0, topo, scheme, routing.NewMinimal(topo), testParams(1, store), 7)
	if err != nil {
		tb.Fatal(err)
	}
	env := &benchEnv{downstream: make([]*buffer.InputBuffer, topo.Radix())}
	for p := 0; p < topo.Radix(); p++ {
		kind := topo.PortKind(0, p)
		if kind == topology.Terminal {
			continue
		}
		env.downstream[p] = buffer.NewInputBuffer(buffer.StaticConfig(scheme.VCs.TotalOf(kind), 1<<20))
	}
	rt.SetEnv(env)
	return rt, env, topo, store
}

// drainDownstream releases every committed phit of the synthetic downstream
// buffers so the router never stalls on credits between refills.
func drainDownstream(env *benchEnv) {
	for _, d := range env.downstream {
		if d == nil {
			continue
		}
		for vc := 0; vc < d.NumVCs(); vc++ {
			if c := d.CommittedOf(vc); c > 0 {
				d.ReleaseCredit(vc, c, packet.Minimal)
			}
		}
	}
}

// busyRouter returns a router whose injection VCs hold forwardable packets,
// and refill, which drains the synthetic downstream and tops the injection
// VCs up again once the router has emptied.
func busyRouter(tb testing.TB) (*Router, func(now int64)) {
	rt, env, topo, store := buildBenchRouter(tb)
	dst := topo.NodeAt(topo.RouterInGroup(1, 0), 0)
	refill := func(now int64) {
		drainDownstream(env)
		inj := rt.Input(0)
		for vc := 0; vc < inj.NumVCs(); vc++ {
			for inj.FreeFor(vc) >= 8 && inj.QueueLen(vc) < 4 {
				ref := store.Alloc(1, topo.NodeAt(0, 0), dst, 8, packet.Request, now)
				hdr := store.Hdr(ref)
				hdr.SrcRouter = 0
				hdr.DstRouter = topo.RouterOfNode(dst)
				inj.Reserve(vc, int(hdr.Size), packet.Minimal)
				rt.EnqueueArrival(0, vc, ref, now, packet.Minimal)
			}
		}
	}
	refill(0)
	return rt, refill
}

// BenchmarkRouterStepBusy measures Router.Step with traffic flowing: the
// injection VCs are topped up with forwardable packets whenever they drain.
func BenchmarkRouterStepBusy(b *testing.B) {
	rt, refill := busyRouter(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now := int64(i)
		rt.Step(now)
		if rt.ResidentPackets() == 0 {
			b.StopTimer()
			refill(now)
			b.StartTimer()
		}
	}
}

// activityRouter returns a router and the ports churnActivity cycles through:
// several, so inserts and removes hit different positions of the sorted
// live-port list, not just the tail.
func activityRouter(tb testing.TB) (*Router, [4]int) {
	rt, _, topo, _ := buildBenchRouter(tb)
	var ports [4]int
	idx := 0
	for p := 0; p < topo.Radix() && idx < len(ports); p += 2 {
		ports[idx] = p
		idx++
	}
	return rt, ports
}

// churnActivity enqueues one packet on a port, releases its pipeline timer
// and dequeues it again. It goes through the real buffers: a head noted
// without one would leave its timer behind.
func churnActivity(rt *Router, ports [4]int, i int64) {
	p, vc := ports[i&3], int(i&1)
	in := rt.Input(p)
	in.Reserve(vc, 8, packet.Minimal)
	rt.EnqueueArrival(p, vc, packet.NilRef, i, packet.Minimal)
	rt.releaseTimers(i)
	in.Dequeue(vc)
	rt.noteDequeue(i, p, vc)
	in.ReleaseCredit(vc, 8, packet.Minimal)
}

// BenchmarkVCActivity measures the incremental activity bookkeeping on the
// enqueue/dequeue path: port membership churn in the sorted live-port list
// (binary insert and remove), the per-port VC occupancy mask, and the pipeline
// timer a new head is held by until the next Step releases it. This is what
// the simulator pays per packet movement in exchange for the proposal pass
// iterating awake heads only.
func BenchmarkVCActivity(b *testing.B) {
	rt, ports := activityRouter(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		churnActivity(rt, ports, int64(i))
	}
}

// BenchmarkRouterStepIdle measures Step on a router with no resident packets:
// the pure scan overhead the simulator pays for every idle router each cycle.
func BenchmarkRouterStepIdle(b *testing.B) {
	rt, _, _, _ := buildBenchRouter(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt.Step(int64(i))
	}
}

// blockedRouter returns a router every one of whose heads is blocked on
// exhausted downstream credits and asleep, after stepping it through cycles
// 0-7; step it from cycle 8 on.
func blockedRouter(tb testing.TB) *Router {
	rt, env, topo, store := buildBenchRouter(tb)
	for _, d := range env.downstream {
		for vc := 0; d != nil && vc < d.NumVCs(); vc++ {
			d.Reserve(vc, d.FreeFor(vc), packet.Minimal)
		}
	}
	dst := topo.NodeAt(topo.RouterInGroup(1, 0), 0)
	heads := 0
	for p := 0; p < topo.Radix(); p++ {
		in := rt.Input(p)
		for vc := 0; vc < in.NumVCs(); vc++ {
			ref := store.Alloc(uint64(heads), topo.NodeAt(0, 0), dst, 8, packet.Request, 0)
			hdr := store.Hdr(ref)
			hdr.SrcRouter, hdr.DstRouter = 0, topo.RouterOfNode(dst)
			if topo.PortKind(0, p) != topology.Terminal {
				store.Route(ref).InputVC = int32(vc)
			}
			in.Reserve(vc, 8, packet.Minimal)
			rt.EnqueueArrival(p, vc, ref, 0, packet.Minimal)
			heads++
		}
	}
	for now := int64(0); now < 8; now++ {
		rt.Step(now)
	}
	if rt.Grants() != 0 || rt.asleep != heads {
		tb.Fatalf("%d grants, %d of %d heads asleep: the router is not fully blocked", rt.Grants(), rt.asleep, heads)
	}
	return rt
}

// BenchmarkRouterStepBlocked measures Step on a router every one of whose
// heads is blocked on exhausted downstream credits — the state routers sit in
// beyond saturation. The heads sleep, so a Step should cost little more than
// an idle router's (target: within 2x of RouterStepIdle).
func BenchmarkRouterStepBlocked(b *testing.B) {
	rt := blockedRouter(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt.Step(int64(i) + 8)
	}
}

// pipelineRouter returns a router every one of whose heads is still inside
// the router pipeline until cycle MaxInt32, after checking that one Step
// leaves them all waiting on their timers.
func pipelineRouter(tb testing.TB) *Router {
	rt, _, topo, store := buildBenchRouter(tb)
	dst := topo.NodeAt(topo.RouterInGroup(1, 0), 0)
	heads := 0
	for p := 0; p < topo.Radix(); p++ {
		in := rt.Input(p)
		for vc := 0; vc < in.NumVCs(); vc++ {
			ref := store.Alloc(uint64(heads), topo.NodeAt(0, 0), dst, 8, packet.Request, 0)
			in.Reserve(vc, 8, packet.Minimal)
			rt.EnqueueArrival(p, vc, ref, math.MaxInt32, packet.Minimal)
			heads++
		}
	}
	rt.Step(0)
	if rt.Work().Evals != 0 || len(rt.timers) != heads {
		tb.Fatalf("%d evaluations, %d of %d heads on a timer: the router is not waiting on time alone", rt.Work().Evals, len(rt.timers), heads)
	}
	return rt
}

// BenchmarkRouterStepPipeline measures Step on a router every one of whose
// heads is still inside the router pipeline — where, below saturation, most
// heads are most of the time. They wait on their timers, so a Step should
// cost little more than an idle router's (target: within 2x of
// RouterStepIdle).
func BenchmarkRouterStepPipeline(b *testing.B) {
	rt := pipelineRouter(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt.Step(int64(i))
	}
}

// TestRouterAllocs pins the hot paths the benchmarks above time at zero
// allocations per operation: a Step with traffic flowing, on an idle router,
// on a fully blocked one and on one whose heads all sit in the pipeline, and
// the activity bookkeeping of one enqueue and dequeue. Allocation counts are
// deterministic, so the pin is exact on any host.
func TestRouterAllocs(t *testing.T) {
	pin := func(t *testing.T, op func(now int64)) {
		now := int64(0)
		if allocs := testing.AllocsPerRun(1000, func() { op(now); now++ }); allocs != 0 {
			t.Errorf("%v allocations per operation, want 0", allocs)
		}
	}
	t.Run("StepBusy", func(t *testing.T) {
		rt, refill := busyRouter(t)
		pin(t, func(now int64) {
			rt.Step(now)
			if rt.ResidentPackets() == 0 {
				refill(now)
			}
		})
		if rt.Grants() == 0 {
			t.Fatal("no grants; the zero-alloc check is vacuous")
		}
	})
	t.Run("StepIdle", func(t *testing.T) {
		rt, _, _, _ := buildBenchRouter(t)
		pin(t, rt.Step)
	})
	t.Run("StepBlocked", func(t *testing.T) {
		rt := blockedRouter(t)
		pin(t, func(now int64) { rt.Step(now + 8) })
	})
	t.Run("StepPipeline", func(t *testing.T) {
		rt := pipelineRouter(t)
		pin(t, rt.Step)
	})
	t.Run("VCActivity", func(t *testing.T) {
		rt, ports := activityRouter(t)
		pin(t, func(now int64) { churnActivity(rt, ports, now) })
	})
}
