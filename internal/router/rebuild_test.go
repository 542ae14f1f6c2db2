package router

import (
	"fmt"
	"strings"
	"testing"

	"flexvc/internal/buffer"
	"flexvc/internal/core"
	"flexvc/internal/packet"
	"flexvc/internal/routing"
	"flexvc/internal/topology"
)

// rebuildShape is one router configuration of TestRebuildMatchesNew.
type rebuildShape struct {
	p, a, h   int
	scheme    core.Scheme
	classes   int
	injection int
	damq      bool
	valiant   bool
}

// build returns router 0 of the shape's dragonfly — New's, or rt rebuilt —
// wired to downstream buffers with room for one packet per VC, so heads
// block, sleep and wake.
func (s rebuildShape) build(t *testing.T, rt *Router) (*Router, *fakeEnv, *topology.Dragonfly, *packet.Store) {
	t.Helper()
	topo, err := topology.NewDragonfly(s.p, s.a, s.h)
	if err != nil {
		t.Fatal(err)
	}
	store := packet.NewStore()
	params := testParams(s.classes, store)
	params.InjectionQueues = s.injection
	if s.damq {
		params.BufferConfig = func(_ topology.PortKind, numVCs int) buffer.Config {
			return buffer.DAMQConfig(numVCs, 16*numVCs, 0.5)
		}
	}
	var alg routing.Algorithm = routing.NewMinimal(topo)
	if s.valiant {
		alg = routing.NewValiant(topo)
	}
	if rt == nil {
		if rt, err = New(0, topo, s.scheme, alg, params, 7); err != nil {
			t.Fatal(err)
		}
	} else if err := rt.Rebuild(0, topo, s.scheme, alg, params, 7); err != nil {
		t.Fatal(err)
	}
	env := newFakeEnv(topo, s.scheme, staticVCs(8))
	env.instantCredits = true
	rt.SetEnv(env)
	return rt, env, topo, store
}

// driveRouter injects packets of every class towards the router's own nodes,
// its group and the other groups for the given cycles, returns the downstream
// credits every fourth cycle, audits the router after every Step, and returns
// a trace of everything observable: scheduled arrivals and deliveries, credit
// returns, the work counters, the grants, the resident packets and the next
// PRNG draw.
func driveRouter(t *testing.T, rt *Router, env *fakeEnv, topo *topology.Dragonfly, store *packet.Store, classes, cycles int) string {
	t.Helper()
	var ids uint64
	for now := int64(0); now < int64(cycles); now++ {
		in := rt.Input(0)
		for vc := 0; vc < in.NumVCs(); vc++ {
			if in.FreeFor(vc) < 8 {
				continue
			}
			ids++
			dstRouter := topo.RouterInGroup(int(ids)%topo.NumGroups(), int(ids/3)%topo.A)
			dst := topo.NodeAt(dstRouter, int(ids)%topo.P)
			ref := store.Alloc(ids, topo.NodeAt(0, 0), dst, 8, packet.Class(int(ids)%classes), now)
			hdr := store.Hdr(ref)
			hdr.SrcRouter, hdr.DstRouter = 0, dstRouter
			in.Reserve(vc, 8, packet.Minimal)
			rt.EnqueueArrival(0, vc, ref, now+int64(ids%3), packet.Minimal)
		}
		if now%4 == 3 {
			for _, d := range env.downstream {
				for vc := 0; vc < d.NumVCs(); vc++ {
					if c := d.MinCommittedOf(vc); c > 0 {
						d.ReleaseCredit(vc, c, packet.Minimal)
					}
					if c := d.CommittedOf(vc); c > 0 {
						d.ReleaseCredit(vc, c, packet.Nonminimal)
					}
				}
			}
		}
		rt.Step(now)
		if err := rt.AuditActivity(); err != nil {
			t.Fatalf("cycle %d: %v", now, err)
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "arrivals %v\ndeliveries %v\ncredits %d\nwork %+v\ngrants %d resident %d\nnext draw %d\n",
		env.arrivals, env.deliveries, env.credits, rt.Work(), rt.Grants(), rt.ResidentPackets(), rt.rng.Int63())
	return b.String()
}

// TestRebuildMatchesNew rebuilds a used router — packets resident, heads
// asleep and inside the pipeline, its PRNG drawn, rings and allocator scratch
// grown — into other shapes (a larger and a smaller radix, one and two
// classes, more VCs, DAMQs, Valiant routing that draws randomness) and
// requires each rebuilt router to behave exactly as one New builds, cycle
// after audited cycle.
func TestRebuildMatchesNew(t *testing.T) {
	flex := func(vcs core.VCConfig, sel core.SelectionFn) core.Scheme {
		return core.Scheme{Policy: core.FlexVC, VCs: vcs, Selection: sel}
	}
	shapes := []rebuildShape{
		{p: 2, a: 4, h: 2, scheme: flex(core.SingleClass(2, 1), core.JSQ), classes: 1, injection: 2},
		{p: 3, a: 6, h: 3, scheme: flex(core.TwoClass(4, 2, 2, 1), core.RandomVC), classes: 2, injection: 3, damq: true, valiant: true},
		{p: 1, a: 2, h: 1, scheme: flex(core.SingleClass(4, 2), core.RandomVC), classes: 1, injection: 1, valiant: true},
		{p: 2, a: 4, h: 2, scheme: core.Scheme{Policy: core.Baseline, VCs: core.TwoClass(2, 1, 2, 1)}, classes: 2, injection: 2, damq: true},
	}
	var used *Router
	for i, s := range shapes {
		rt, env, topo, store := s.build(t, nil)
		want := driveRouter(t, rt, env, topo, store, s.classes, 60)
		if used != nil {
			used.Release()
			rt, env, topo, store = s.build(t, used)
			if got := driveRouter(t, rt, env, topo, store, s.classes, 60); got != want {
				t.Fatalf("shape %d: the rebuilt router diverges from a new one:\n%s\nwant:\n%s", i, got, want)
			}
		}
		if rt.ResidentPackets() == 0 || rt.Grants() == 0 {
			t.Fatalf("shape %d: %d grants, %d packets left resident: the next rebuild would start from an idle router", i, rt.Grants(), rt.ResidentPackets())
		}
		used = rt
	}
}

// TestRebuildAllocs pins a rebuild into the shape a router already has at
// zero allocations: everything New allocated is reused, the PRNG state
// included.
func TestRebuildAllocs(t *testing.T) {
	s := rebuildShape{p: 2, a: 4, h: 2, scheme: core.Scheme{Policy: core.FlexVC, VCs: core.TwoClass(4, 2, 2, 1), Selection: core.RandomVC},
		classes: 2, injection: 2, valiant: true}
	rt, env, topo, store := s.build(t, nil)
	driveRouter(t, rt, env, topo, store, s.classes, 40)
	params := testParams(s.classes, store)
	params.InjectionQueues = s.injection
	alg := routing.NewValiant(topo)
	allocs := testing.AllocsPerRun(20, func() {
		rt.Release()
		if err := rt.Rebuild(0, topo, s.scheme, alg, params, 7); err != nil {
			t.Fatal(err)
		}
		rt.rng.Int63()
	})
	if allocs != 0 {
		t.Errorf("rebuilding a router in place allocates %v times, want 0", allocs)
	}
}
