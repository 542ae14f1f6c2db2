package router

import (
	"testing"

	"flexvc/internal/core"
	"flexvc/internal/packet"
	"flexvc/internal/routing"
	"flexvc/internal/topology"
)

// congestingOps is an operation sequence for driveVCActivity that fills the
// router (40 injections and 40 link arrivals), steps it until ejection
// channels, output buffers and downstream credits are exhausted and heads
// sleep, then returns the credits and steps on so they wake.
func congestingOps() []byte {
	var ops []byte
	for i := 0; i < 40; i++ {
		ops = append(ops, byte(i*4), byte(i*4+1))
	}
	for i := 0; i < 30; i++ {
		ops = append(ops, 2)
	}
	return append(ops, 3, 2, 2, 2)
}

// FuzzVCActivity drives a router — Valiant routing under FlexVC 3/2, which
// holds the minimal path in increasing VCs but a Valiant one only
// opportunistically — through arbitrary interleavings of the three
// operations that mutate VC occupancy — enqueue (injection and link arrivals,
// ready at once or a few cycles on), step (dequeues and credit consumption)
// and downstream credit release — and after every operation asserts the
// incremental allocator state (activity lists, head tracking, sleep state,
// pipeline timers, transmission due cycles) against the brute-force scan and
// re-evaluation of AuditActivity. This is the differential check backing the
// activity-list and sleep/wake optimisations: the state must track the
// buffers exactly, and no sleeping head may be grantable, under every
// interleaving, not just the ones the simulator happens to emit.
func FuzzVCActivity(f *testing.F) {
	f.Add([]byte{0, 2, 1, 2, 3, 0, 0, 2, 2, 2, 1, 3, 2, 2})
	f.Add([]byte{1, 1, 1, 2, 2, 2, 2, 3, 1, 2})
	f.Add([]byte{0, 4, 8, 12, 2, 2, 2, 2, 2, 2, 3})
	f.Add(congestingOps())
	f.Fuzz(func(t *testing.T, ops []byte) { driveVCActivity(t, ops) })
}

// TestVCActivityReachesSleepAndWake keeps the fuzz target honest: its
// operations must be able to put heads to sleep and wake them, and detours to
// take their escapes — by ejecting, at their destination router, among them —
// or the audit would be checking sleep state and plans that are never
// populated.
func TestVCActivityReachesSleepAndWake(t *testing.T) {
	w, escapes, ejections := driveVCActivity(t, congestingOps())
	if escapes == 0 || ejections == 0 {
		t.Fatalf("the congesting sequence granted %d escapes, %d of them by ejecting; want both", escapes, ejections)
	}
	if w.Sleeps == 0 || w.Wakeups == 0 || w.WakeFailed == 0 {
		t.Fatalf("the congesting sequence exercised no sleep/wake cycle: %+v", w)
	}
	// Timers released for heads enqueued ahead of their ready cycle, and ports
	// serviced for fewer packets than polling them every cycle would visit.
	if w.TimerWakeups == 0 || w.Sends == 0 || w.XmitVisits > w.Sends {
		t.Fatalf("the congesting sequence exercised no timers or transmissions: %+v", w)
	}
}

// driveVCActivity runs one operation sequence, auditing after every
// operation, and returns the allocator's work counters and how many Valiant
// detours took their escape, in all and by ejecting.
func driveVCActivity(t *testing.T, ops []byte) (w Work, escapes, ejections int) {
	topo, err := topology.NewDragonfly(2, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	store := packet.NewStore()
	store.EnablePoison()
	scheme := core.Scheme{Policy: core.FlexVC, VCs: core.SingleClass(3, 2), Selection: core.JSQ}
	rt, err := New(0, topo, scheme, routing.NewValiant(topo), testParams(1, store), 7)
	if err != nil {
		t.Fatal(err)
	}
	env := newFakeEnv(topo, scheme, staticVCs(64))
	rt.SetEnv(env)

	// The non-terminal input ports a fuzzed arrival may land on.
	var linkPorts []int
	for p := 0; p < topo.Radix(); p++ {
		if topo.PortKind(0, p) != topology.Terminal {
			linkPorts = append(linkPorts, p)
		}
	}
	// Deliveries and departures free no slots here (the fake env retains
	// the refs), so cap the packet population to keep iterations bounded.
	const maxPackets = 64
	var id uint64
	var detours []packet.Ref
	now := int64(0)
	// A packet enters up to three cycles ahead of its ready cycle, so heads
	// wait on pipeline timers as well as on space.
	enqueue := func(port, vc int, pipeline int64) {
		if id >= maxPackets {
			return
		}
		inb := rt.Input(port)
		vc %= inb.NumVCs()
		if !inb.Reserve(vc, 8, packet.Minimal) {
			return
		}
		id++
		// Alternate local and remote destinations so both the ejection
		// and the forwarding paths run.
		dst := topo.NodeAt(0, int(id)%2)
		if id%3 == 0 {
			dst = topo.NodeAt(topo.RouterInGroup(1, int(id)%4), 0)
		}
		ref := store.Alloc(id, topo.NodeAt(0, 0), dst, 8, packet.Request, now)
		hdr := store.Hdr(ref)
		hdr.SrcRouter = 0
		hdr.DstRouter = topo.RouterOfNode(dst)
		if port != 0 {
			// A link arrival has committed to its route: minimal, or every
			// other one a Valiant detour to a router of another group, which
			// for a local destination is a detour at its destination router.
			// Injected packets let Valiant routing decide.
			r := store.Route(ref)
			r.InputVC = int32(vc)
			r.AdaptiveDecided = true
			if id%2 == 0 {
				r.Kind, r.Phase, r.Intermediate = packet.Nonminimal, packet.PhaseToIntermediate, topo.RouterInGroup(2, int(id)%4)
				detours = append(detours, ref)
			}
		}
		rt.EnqueueArrival(port, vc, ref, now+pipeline, packet.Minimal)
	}
	for i, op := range ops {
		arg := int(op) >> 2
		pipeline := int64(arg >> 4)
		switch op % 4 {
		case 0: // inject on the terminal port
			enqueue(0, arg, pipeline)
		case 1: // arrival on a link port
			if len(linkPorts) > 0 {
				enqueue(linkPorts[arg%len(linkPorts)], arg/len(linkPorts), pipeline)
			}
		case 2: // advance one cycle
			rt.Step(now)
			now++
		case 3: // downstream drains: return every committed credit
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
		if err := rt.AuditActivity(); err != nil {
			t.Fatalf("op %d (byte %d): %v", i, op, err)
		}
	}
	// Router 0 is no detour's intermediate, so only a granted escape turns
	// one towards its destination.
	for _, ref := range detours {
		if store.Route(ref).Phase == packet.PhaseToDestination {
			escapes++
			if store.Hdr(ref).DstRouter == 0 {
				ejections++
			}
		}
	}
	return rt.Work(), escapes, ejections
}
