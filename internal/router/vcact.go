package router

import "fmt"

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

func newPortList(n int) portList {
	return portList{ports: make([]int32, 0, n), in: make([]bool, n)}
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

// AuditActivity cross-checks the router's incremental activity lists against
// a brute-force scan of every input VC and output/ejection buffer. It is the
// invariant the lists must uphold for activity-driven stepping to be
// equivalent to probing everything; tests and the fuzz target call it after
// every mutation (the simulator never does — it is O(ports × VCs)).
func (r *Router) AuditActivity() error {
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
	// The xmit list may conservatively hold ports that already drained (they
	// are pruned lazily by the next transmit pass), but it must be sorted,
	// consistent with its membership flags, and cover every staged packet.
	xi := 0
	for p := 0; p < r.numPorts; p++ {
		staged := 0
		if r.outputs[p] != nil {
			staged = r.outputs[p].Len()
		}
		for _, e := range r.eject[p] {
			staged += e.Len()
		}
		if staged > 0 && !r.xmit.in[p] {
			return fmt.Errorf("router %d port %d: %d staged packets but not in xmit list", r.id, p, staged)
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
