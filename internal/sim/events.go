package sim

import (
	"fmt"

	"flexvc/internal/buffer"
	"flexvc/internal/config"
	"flexvc/internal/packet"
	"flexvc/internal/router"
)

// eventKind tags the entries of the event wheel.
type eventKind uint8

const (
	evArrival eventKind = iota
	evCredit
	evDelivery
)

// event is one scheduled action: a packet arriving at an input VC, a credit
// returning to an input buffer, or a packet being consumed at its destination
// node. Packets travel as store refs (arrival + delivery). The record packs
// into 24 bytes: ports, VCs and sizes are int16, which the bounds below and
// config.Validate guarantee.
type event struct {
	buf    *buffer.InputBuffer // credit
	router packet.RouterID     // arrival
	ref    packet.Ref          // arrival, delivery
	port   int16               // arrival
	vc     int16               // arrival, credit
	size   int16               // credit
	kind   eventKind
	// rkind is the routing kind recorded when the space was reserved
	// (arrival, credit).
	rkind packet.RouteKind
}

// This fails to compile if a bound config.Validate enforces outgrows the
// int16 event field that carries it.
var _ = [...]int16{config.MaxRadix, config.MaxPacketSize, router.MaxPortVCs}

// eventWheel is a calendar queue for constant-bounded delays: slot i holds the
// events due at cycle i (mod the wheel size).
type eventWheel struct {
	slots   [][]event
	horizon int64
	// count tracks the queued events incrementally (schedule adds, take
	// subtracts), so the metrics layer can sample the wheel depth without the
	// O(horizon) scan of pending().
	count int64
}

// init sizes the wheel for delays up to maxDelay cycles. It adopts reuse —
// empty slots recycled from an earlier wheel — when the horizon matches.
func (w *eventWheel) init(maxDelay int64, reuse [][]event) {
	if maxDelay < 1 {
		maxDelay = 1
	}
	w.horizon = maxDelay + 2
	if int64(len(reuse)) == w.horizon {
		w.slots = reuse
	} else {
		w.slots = make([][]event, w.horizon)
	}
}

// schedule inserts an event `delay` cycles after `now`. Delays must be in
// (0, horizon).
func (w *eventWheel) schedule(now, delay int64, ev event) {
	if delay <= 0 || delay >= w.horizon {
		panic(fmt.Sprintf("sim: event delay %d outside wheel horizon %d", delay, w.horizon))
	}
	slot := (now + delay) % w.horizon
	w.slots[slot] = append(w.slots[slot], ev)
	w.count++
}

// take removes and returns the events due at cycle `now`.
func (w *eventWheel) take(now int64) []event {
	slot := now % w.horizon
	evs := w.slots[slot]
	w.slots[slot] = w.slots[slot][:0]
	w.count -= int64(len(evs))
	return evs
}

// pending returns the total number of queued events (used by tests).
func (w *eventWheel) pending() int {
	n := 0
	for _, s := range w.slots {
		n += len(s)
	}
	return n
}

// --- router.Env implementation -------------------------------------------

// DownstreamInput implements router.Env. The per-(router, port) resolution is
// cached at construction (nil for terminal ports).
func (n *Network) DownstreamInput(r packet.RouterID, port int) *buffer.InputBuffer {
	return n.downInput[r][port]
}

// ScheduleArrival implements router.Env.
func (n *Network) ScheduleArrival(delay int64, to packet.RouterID, port, vc int, ref packet.Ref, kind packet.RouteKind) {
	n.wheel.schedule(n.now, delay, event{kind: evArrival, router: to, port: int16(port), vc: int16(vc), ref: ref, rkind: kind})
}

// ScheduleCredit implements router.Env.
func (n *Network) ScheduleCredit(delay int64, buf *buffer.InputBuffer, vc, size int, kind packet.RouteKind) {
	n.wheel.schedule(n.now, delay, event{kind: evCredit, buf: buf, vc: int16(vc), size: int16(size), rkind: kind})
}

// ScheduleDelivery implements router.Env.
func (n *Network) ScheduleDelivery(delay int64, ref packet.Ref) {
	n.wheel.schedule(n.now, delay, event{kind: evDelivery, ref: ref})
}

// --- routing.Probe implementation -----------------------------------------

// OutputOccupancy implements routing.Probe: the committed occupancy of the
// downstream input buffer reached through an output port, as the sending
// router's credit counters see it.
func (n *Network) OutputOccupancy(r packet.RouterID, port int, vc int, minOnly bool) int {
	buf := n.DownstreamInput(r, port)
	if buf == nil {
		return 0
	}
	if vc >= 0 && vc < buf.NumVCs() {
		if minOnly {
			return buf.MinCommittedOf(vc)
		}
		return buf.CommittedOf(vc)
	}
	if minOnly {
		return buf.TotalMinCommitted()
	}
	return buf.TotalCommitted()
}

// OutputCapacity implements routing.Probe.
func (n *Network) OutputCapacity(r packet.RouterID, port int, vc int) int {
	buf := n.DownstreamInput(r, port)
	if buf == nil {
		return 0
	}
	if vc >= 0 && vc < buf.NumVCs() {
		return buf.CapacityFor(vc)
	}
	return buf.TotalCapacity()
}
