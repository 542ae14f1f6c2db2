package router

import (
	"fmt"
	"math/bits"
	"math/rand"
)

// portList is a dense, ascending-sorted set of port indices with O(log n)
// lookup and O(n) shift on update (cheap at router radix, ≤ ~36 ports).
// Iterating it visits exactly the member ports in the same order a full
// 0..numPorts scan would — ascending — which is what keeps activity-driven
// allocation and transmission bit-identical to the probing formulation:
// grant order, and with it the event-wheel append order, follows the port
// iteration order.
type portList struct {
	ports []int32
	in    []bool
}

// emptied returns an empty list over n ports, in l's memory when it fits.
func (l portList) emptied(n int) portList {
	if cap(l.ports) < n {
		l.ports = make([]int32, 0, n)
	}
	return portList{ports: l.ports[:0], in: zeroed(l.in, n)}
}

// add inserts a port, keeping the list sorted; adding a member is a no-op.
func (l *portList) add(p int) {
	if l.in[p] {
		return
	}
	l.in[p] = true
	i := l.search(p)
	l.ports = append(l.ports, 0)
	copy(l.ports[i+1:], l.ports[i:])
	l.ports[i] = int32(p)
}

// remove deletes a port; removing a non-member is a no-op.
func (l *portList) remove(p int) {
	if !l.in[p] {
		return
	}
	l.in[p] = false
	i := l.search(p)
	copy(l.ports[i:], l.ports[i+1:])
	l.ports = l.ports[:len(l.ports)-1]
}

// search returns the insertion index of p (binary search).
func (l *portList) search(p int) int {
	lo, hi := 0, len(l.ports)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if l.ports[mid] < int32(p) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// AuditActivity cross-checks the router's incremental allocator state against
// a brute-force scan: the activity lists and transmission due cycles against
// every input VC and staging buffer, the head tracking and sleep state
// against the VC rings, the packet store and a from-scratch re-evaluation
// (auditHeads), and the pipeline timers against the tracked heads
// (auditTimers). It is the invariant that makes activity- and event-driven
// stepping equivalent to probing everything every iteration; tests and the
// fuzz target call it after every mutation (the simulator never does — it is
// O(ports × VCs) with a routing computation per planned head).
func (r *Router) AuditActivity() error {
	if err := r.auditLists(); err != nil {
		return err
	}
	if err := r.auditHeads(); err != nil {
		return err
	}
	return r.auditTimers()
}

// auditLists checks the live-port lists and occupancy masks.
func (r *Router) auditLists() error {
	livePrev := int32(-1)
	li := 0
	for p := 0; p < r.numPorts; p++ {
		in := r.inputs[p]
		resident := 0
		var mask uint64
		for vc := 0; vc < in.NumVCs(); vc++ {
			n := in.QueueLen(vc)
			resident += n
			if n > 0 {
				mask |= 1 << uint(vc)
			}
		}
		if int(r.inCount[p]) != resident {
			return fmt.Errorf("router %d port %d: inCount=%d, brute-force resident=%d", r.id, p, r.inCount[p], resident)
		}
		if r.vcMask[p] != mask {
			return fmt.Errorf("router %d port %d: vcMask=%#x, brute-force=%#x", r.id, p, r.vcMask[p], mask)
		}
		wantLive := resident > 0
		if r.liveIn.in[p] != wantLive {
			return fmt.Errorf("router %d port %d: liveIn membership=%v, want %v", r.id, p, r.liveIn.in[p], wantLive)
		}
		if wantLive {
			if li >= len(r.liveIn.ports) || r.liveIn.ports[li] != int32(p) {
				return fmt.Errorf("router %d: liveIn list %v missing or misplacing port %d", r.id, r.liveIn.ports, p)
			}
			if r.liveIn.ports[li] <= livePrev {
				return fmt.Errorf("router %d: liveIn list %v not strictly ascending", r.id, r.liveIn.ports)
			}
			livePrev = r.liveIn.ports[li]
			li++
		}
	}
	if li != len(r.liveIn.ports) {
		return fmt.Errorf("router %d: liveIn list %v has %d extra entries", r.id, r.liveIn.ports, len(r.liveIn.ports)-li)
	}
	// The xmit list holds exactly the ports with staged packets, sorted and
	// consistent with its membership flags. Every port's due cycle is what its
	// staging buffers and channel say now (never, without staged packets) and
	// the router-level minimum does not overshoot any of them: a port that is
	// not serviced could not have sent.
	xi := 0
	for p := 0; p < r.numPorts; p++ {
		staged := r.staged(p)
		if r.xmit.in[p] != (staged > 0) {
			return fmt.Errorf("router %d port %d: %d staged packets, xmit membership %v", r.id, p, staged, r.xmit.in[p])
		}
		if want := r.portDue(p); r.xmitDue[p] != want || (want == never) != (staged == 0) {
			return fmt.Errorf("router %d port %d: due cycle %d, its %d staged packets say %d", r.id, p, r.xmitDue[p], staged, want)
		}
		if r.xmitDue[p] < r.xmitMin {
			return fmt.Errorf("router %d port %d: due at cycle %d, before the router minimum %d", r.id, p, r.xmitDue[p], r.xmitMin)
		}
		if r.xmit.in[p] {
			if xi >= len(r.xmit.ports) || r.xmit.ports[xi] != int32(p) {
				return fmt.Errorf("router %d: xmit list %v inconsistent with membership at port %d", r.id, r.xmit.ports, p)
			}
			xi++
		}
	}
	if xi != len(r.xmit.ports) {
		return fmt.Errorf("router %d: xmit list %v has %d extra entries", r.id, r.xmit.ports, len(r.xmit.ports)-xi)
	}
	return nil
}

// drawCounter is a rand.Source that counts how often it is asked for
// randomness; the audit re-evaluates sleeping heads over it.
type drawCounter struct{ draws int }

func (d *drawCounter) Int63() int64 { d.draws++; return 0 }
func (d *drawCounter) Seed(int64)   {}

// auditHeads checks head tracking and sleep state. For every occupied VC the
// tracked head must be the ring's; a plan marked current must be
// routing-stable and equal to a plan built afresh from the store. Every
// sleeping head must have a current plan, must record exactly the resources
// that plan's request consults and — unless a wake event on one of them is
// still waiting to be folded in — must fail again when re-evaluated, drawing
// no randomness: that is what makes skipping it unobservable.
func (r *Router) auditHeads() error {
	rng, draws := r.rng, &drawCounter{}
	r.rng = rand.New(draws)
	defer func() { r.rng = rng }()

	asleep, awake := 0, 0
	for p := 0; p < r.numPorts; p++ {
		in := r.inputs[p]
		awake += bits.OnesCount64(r.vcMask[p] &^ (r.sleepMask[p] | r.pipeMask[p]))
		if r.numVCs[p] != in.NumVCs() {
			return fmt.Errorf("router %d port %d: numVCs=%d, buffer has %d", r.id, p, r.numVCs[p], in.NumVCs())
		}
		if extra := r.planCur[p] &^ r.vcMask[p]; extra != 0 {
			return fmt.Errorf("router %d port %d: planCur=%#x marks empty VCs (vcMask=%#x)", r.id, p, r.planCur[p], r.vcMask[p])
		}
		if extra := r.sleepMask[p] &^ r.planCur[p]; extra != 0 {
			return fmt.Errorf("router %d port %d: sleepMask=%#x marks heads without a current plan (planCur=%#x)", r.id, p, r.sleepMask[p], r.planCur[p])
		}
		if both := r.woken[p] & r.sleepMask[p]; both != 0 {
			return fmt.Errorf("router %d port %d: VCs %#x both asleep and woken", r.id, p, both)
		}
		// A head inside the pipeline has never been evaluated: it has no
		// plan, so (by the check above) it cannot be asleep either.
		if extra := r.pipeMask[p] &^ r.vcMask[p]; extra != 0 {
			return fmt.Errorf("router %d port %d: pipeMask=%#x marks empty VCs (vcMask=%#x)", r.id, p, r.pipeMask[p], r.vcMask[p])
		}
		if both := r.pipeMask[p] & (r.planCur[p] | r.woken[p]); both != 0 {
			return fmt.Errorf("router %d port %d: VCs %#x inside the pipeline yet planned or woken", r.id, p, both)
		}
		asleep += bits.OnesCount64(r.sleepMask[p])
		for vc := 0; vc < in.NumVCs(); vc++ {
			ref, ready, ok := in.Peek(vc)
			if !ok {
				continue
			}
			slot, bit := p*r.vcStride+vc, uint64(1)<<uint(vc)
			if h := r.heads[slot]; h.ref != ref || h.ready != ready {
				return fmt.Errorf("router %d port %d VC %d: tracked head (ref %d, ready %d), ring holds (ref %d, ready %d)", r.id, p, vc, h.ref, h.ready, ref, ready)
			}
			if r.planCur[p]&bit == 0 {
				continue
			}
			var fresh vcPlan
			r.buildPlan(p, ref, r.store.Hdr(ref), &fresh)
			if !fresh.stable || fresh != r.plans[slot] {
				return fmt.Errorf("router %d port %d VC %d: plan marked current is %+v, rebuilt %+v", r.id, p, vc, r.plans[slot], fresh)
			}
			if r.sleepMask[p]&bit == 0 {
				continue
			}
			w := r.waits[slot]
			if want := planWaits(&fresh); w != want {
				return fmt.Errorf("router %d port %d VC %d: sleeps on resources %v, its plan consults %v", r.id, p, vc, w, want)
			}
			if r.signalled(w.a) || r.signalled(w.b) {
				continue
			}
			if req, ok := r.requestFromPlan(&fresh, p, vc); ok {
				return fmt.Errorf("router %d port %d VC %d: sleeping head could be granted (%+v) with no wake event pending", r.id, p, vc, req)
			}
		}
	}
	if draws.draws != 0 {
		return fmt.Errorf("router %d: re-evaluating stable heads drew randomness %d times", r.id, draws.draws)
	}
	if asleep != r.asleep {
		return fmt.Errorf("router %d: asleep=%d, sleepMask holds %d heads", r.id, r.asleep, asleep)
	}
	if awake != r.awake {
		return fmt.Errorf("router %d: awake=%d, the masks leave %d heads awake", r.id, r.awake, awake)
	}
	return nil
}

// auditTimers checks the pipeline timers: exactly one per head marked
// in-pipeline, set for that head's ready cycle.
func (r *Router) auditTimers() error {
	seen := make([]uint64, r.numPorts)
	for _, key := range r.timers {
		ready, p, vc := splitTimerKey(key)
		bit := uint64(1) << uint(vc)
		if p >= r.numPorts || r.pipeMask[p]&bit == 0 {
			return fmt.Errorf("router %d: timer at cycle %d for VC %d of port %d, whose head is not inside the pipeline", r.id, ready, vc, p)
		}
		if seen[p]&bit != 0 {
			return fmt.Errorf("router %d port %d VC %d: two timers for one head", r.id, p, vc)
		}
		seen[p] |= bit
		if h := r.heads[p*r.vcStride+vc]; h.ready != ready {
			return fmt.Errorf("router %d port %d VC %d: timer at cycle %d, head ready at %d", r.id, p, vc, ready, h.ready)
		}
	}
	for p := range seen {
		if seen[p] != r.pipeMask[p] {
			return fmt.Errorf("router %d port %d: pipeMask=%#x, timers cover %#x", r.id, p, r.pipeMask[p], seen[p])
		}
	}
	return nil
}
