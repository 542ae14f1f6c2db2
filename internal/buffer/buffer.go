// Package buffer models router buffer organisations at phit granularity:
// statically partitioned per-VC FIFOs and Dynamically Allocated Multi-Queues
// (DAMQs) with a per-VC private reservation plus a shared pool, as compared
// in the FlexVC paper.
//
// Space accounting follows credit-based flow control: the upstream consumer
// of an InputBuffer reserves space at allocation time (consuming credits) and
// the space only becomes available again after the packet has left the buffer
// and the credit has travelled back across the link. All of that state is
// kept inside the InputBuffer; the simulator schedules the delayed
// ReleaseCredit calls.
//
// The package also keeps the split credit counters used by FlexVC-minCred:
// committed space is tracked separately for minimally and non-minimally
// routed packets so adaptive routing can sense congestion from minimal
// credits only.
package buffer

import (
	"fmt"

	"flexvc/internal/packet"
)

// Organization selects the buffer organisation of a port.
type Organization uint8

const (
	// Static statically partitions the port memory: each VC owns a fixed
	// private FIFO.
	Static Organization = iota
	// DAMQ shares a pool of memory between the VCs of the port, with an
	// optional private reservation per VC.
	DAMQ
)

// Organizations lists every buffer organisation, in a stable order, for
// sweeps and exhaustive round-trip tests.
var Organizations = []Organization{Static, DAMQ}

// String implements fmt.Stringer.
func (o Organization) String() string {
	if o == Static {
		return "static"
	}
	return "damq"
}

// ParseOrganization parses the textual form produced by String ("static" or
// "damq"). Unknown names error instead of defaulting, so spec files fail
// loudly.
func ParseOrganization(s string) (Organization, error) {
	switch s {
	case "static":
		return Static, nil
	case "damq":
		return DAMQ, nil
	}
	return Static, fmt.Errorf("unknown buffer organisation %q (want static or damq)", s)
}

// Config describes the buffer organisation of one input port.
type Config struct {
	// Org is the organisation (Static or DAMQ).
	Org Organization
	// NumVCs is the number of virtual channels of the port.
	NumVCs int
	// CapacityPerVC is the private capacity of each VC in phits. For DAMQ
	// ports this is the per-VC private reservation.
	CapacityPerVC int
	// Shared is the capacity of the shared pool in phits (DAMQ only).
	Shared int
}

// StaticConfig builds a statically partitioned configuration.
func StaticConfig(numVCs, capacityPerVC int) Config {
	return Config{Org: Static, NumVCs: numVCs, CapacityPerVC: capacityPerVC}
}

// DAMQConfig builds a DAMQ configuration from the total port capacity and the
// fraction of it reserved privately per VC (the paper's default is 75%
// private). The private fraction is divided evenly among VCs (rounded down to
// whole phits) and the remainder forms the shared pool.
func DAMQConfig(numVCs, totalCapacity int, privateFraction float64) Config {
	if privateFraction < 0 {
		privateFraction = 0
	}
	if privateFraction > 1 {
		privateFraction = 1
	}
	perVC := 0
	if numVCs > 0 {
		perVC = int(float64(totalCapacity)*privateFraction) / numVCs
	}
	return Config{
		Org:           DAMQ,
		NumVCs:        numVCs,
		CapacityPerVC: perVC,
		Shared:        totalCapacity - perVC*numVCs,
	}
}

// TotalCapacity returns the total port capacity in phits.
func (c Config) TotalCapacity() int { return c.NumVCs*c.CapacityPerVC + c.Shared }

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.NumVCs <= 0 {
		return fmt.Errorf("buffer: NumVCs must be positive, got %d", c.NumVCs)
	}
	if c.CapacityPerVC < 0 || c.Shared < 0 {
		return fmt.Errorf("buffer: negative capacity (perVC=%d shared=%d)", c.CapacityPerVC, c.Shared)
	}
	if c.Org == Static && c.Shared != 0 {
		return fmt.Errorf("buffer: static organisation cannot have a shared pool (%d phits)", c.Shared)
	}
	if c.TotalCapacity() == 0 {
		return fmt.Errorf("buffer: zero total capacity")
	}
	return nil
}

// String implements fmt.Stringer.
func (c Config) String() string {
	if c.Org == Static {
		return fmt.Sprintf("static %dx%d phits", c.NumVCs, c.CapacityPerVC)
	}
	return fmt.Sprintf("damq %dx%d+%d phits", c.NumVCs, c.CapacityPerVC, c.Shared)
}

// entry is one resident packet of a VC queue. It holds a 4-byte Ref into the
// network's packet store rather than a pointer, so VC rings stay small and
// pointer-free.
type entry struct {
	// ready is the cycle at which the packet's head becomes visible to the
	// allocator (arrival + router pipeline latency).
	ready int64
	ref   packet.Ref
	// kind is the routing kind recorded when the space was reserved; the
	// matching credit release must use the same kind so the minCred split
	// counters stay balanced even if the packet is re-routed later.
	kind packet.RouteKind
}

// vcState is the per-VC bookkeeping of an input buffer.
type vcState struct {
	// committed is the space consumed in this VC in phits, including
	// in-flight reservations and space whose credit has not yet returned.
	committed int
	// fromShared is the part of committed drawn from the shared pool.
	fromShared int
	// minCommitted is the part of committed that belongs to minimally
	// routed packets (FlexVC-minCred accounting).
	minCommitted int
	// queue holds resident packets in FIFO order.
	queue ring[entry]
}

// InputBuffer models one input port: NumVCs virtual channels over a static or
// DAMQ organisation, with credit accounting split by routing kind.
type InputBuffer struct {
	cfg             Config
	vcs             []vcState
	sharedCommitted int

	// peak occupancy statistics (phits), for reporting.
	peakCommitted int

	// wake, when set, is the word of the upstream router's wake set that
	// ReleaseCredit ORs wakeBit into: the router's switch allocator lets
	// packets blocked on this buffer's credits sleep until one returns.
	wake    *uint64
	wakeBit uint64
}

// NewInputBuffer builds an input buffer; it panics on an invalid
// configuration (configurations are validated when building the network).
func NewInputBuffer(cfg Config) *InputBuffer {
	b := new(InputBuffer)
	b.Reset(cfg)
	return b
}

// Reset makes b the empty buffer NewInputBuffer(cfg) builds, keeping the
// storage its VC rings grew to: a recycled buffer that held a saturated
// network's queues takes the next replication's without regrowing them. Ring
// entries hold no pointers, so the kept storage pins nothing. It panics on an
// invalid configuration.
func (b *InputBuffer) Reset(cfg Config) {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	// Only VCs from b's memory need emptying: fresh ones are zero.
	old := b.vcs[:cap(b.vcs)]
	vcs := old[:min(len(old), cfg.NumVCs)]
	for i := range vcs {
		vcs[i] = vcState{queue: vcs[i].queue.emptied()}
	}
	if len(vcs) < cfg.NumVCs {
		vcs = make([]vcState, cfg.NumVCs)
		copy(vcs, old)
	}
	*b = InputBuffer{cfg: cfg, vcs: vcs}
}

// Config returns the buffer configuration.
func (b *InputBuffer) Config() Config { return b.cfg }

// NumVCs returns the number of virtual channels.
func (b *InputBuffer) NumVCs() int { return b.cfg.NumVCs }

// SetWake registers the one place a credit return is signalled to: every
// ReleaseCredit ORs bit into *word. A buffer has a single upstream sender, so
// a later registration replaces the earlier one; a nil word unregisters. The
// write crosses from the buffer's owner into its upstream router, which is
// legal only because one replication is stepped by a single goroutine.
func (b *InputBuffer) SetWake(word *uint64, bit uint64) { b.wake, b.wakeBit = word, bit }

// FreeFor returns the number of phits that can still be reserved in the given
// VC (its private space plus, for DAMQs, whatever remains of the shared
// pool).
func (b *InputBuffer) FreeFor(vc int) int {
	s := &b.vcs[vc]
	privateFree := b.cfg.CapacityPerVC - (s.committed - s.fromShared)
	if privateFree < 0 {
		privateFree = 0
	}
	if b.cfg.Org == Static {
		return privateFree
	}
	return privateFree + (b.cfg.Shared - b.sharedCommitted)
}

// Reserve consumes `size` phits of space in the given VC for a packet routed
// with the given kind. It returns false (and reserves nothing) when the VC
// cannot hold the packet.
func (b *InputBuffer) Reserve(vc, size int, kind packet.RouteKind) bool {
	if size <= 0 {
		return false
	}
	if b.FreeFor(vc) < size {
		return false
	}
	s := &b.vcs[vc]
	privateFree := b.cfg.CapacityPerVC - (s.committed - s.fromShared)
	if privateFree < 0 {
		privateFree = 0
	}
	fromPrivate := size
	if fromPrivate > privateFree {
		fromPrivate = privateFree
	}
	fromShared := size - fromPrivate
	s.committed += size
	s.fromShared += fromShared
	b.sharedCommitted += fromShared
	if kind == packet.Minimal {
		s.minCommitted += size
	}
	if t := b.TotalCommitted(); t > b.peakCommitted {
		b.peakCommitted = t
	}
	return true
}

// ReleaseCredit returns `size` phits of space to the given VC. The simulator
// calls it once the packet has left the buffer and the credit has travelled
// back to the sender (i.e. after the credit round-trip), so FreeFor reflects
// what an upstream credit counter would see.
func (b *InputBuffer) ReleaseCredit(vc, size int, kind packet.RouteKind) {
	s := &b.vcs[vc]
	if size > s.committed {
		panic(fmt.Sprintf("buffer: releasing %d phits from VC %d holding only %d", size, vc, s.committed))
	}
	// Shared space is released first so private reservations refill, which
	// matches DAMQ implementations with per-VC reserved space.
	fromShared := size
	if fromShared > s.fromShared {
		fromShared = s.fromShared
	}
	s.committed -= size
	s.fromShared -= fromShared
	b.sharedCommitted -= fromShared
	if kind == packet.Minimal {
		s.minCommitted -= size
		if s.minCommitted < 0 {
			panic(fmt.Sprintf("buffer: negative minimal committed space on VC %d", vc))
		}
	}
	// Any return can raise FreeFor of every VC of a DAMQ port (the shared
	// pool), so the signal is per buffer, not per VC.
	if b.wake != nil {
		*b.wake |= b.wakeBit
	}
}

// Enqueue places a packet into the given VC. Space must already have been
// reserved with the given routing kind; ready is the cycle at which the
// packet becomes visible to the allocator.
func (b *InputBuffer) Enqueue(vc int, ref packet.Ref, ready int64, kind packet.RouteKind) {
	b.vcs[vc].queue.push(entry{ref: ref, ready: ready, kind: kind})
}

// Head returns the head packet of the given VC if it is ready at the given
// cycle, or NilRef.
func (b *InputBuffer) Head(vc int, now int64) packet.Ref {
	s := &b.vcs[vc]
	if s.queue.len() == 0 {
		return packet.NilRef
	}
	if e := s.queue.front(); e.ready <= now {
		return e.ref
	}
	return packet.NilRef
}

// Peek returns the head packet of the given VC and the cycle it becomes (or
// became) visible to the allocator; ok is false for an empty VC.
func (b *InputBuffer) Peek(vc int) (ref packet.Ref, ready int64, ok bool) {
	s := &b.vcs[vc]
	if s.queue.len() == 0 {
		return packet.NilRef, 0, false
	}
	e := s.queue.front()
	return e.ref, e.ready, true
}

// Dequeue removes and returns the head packet of the given VC together with
// the routing kind recorded at reservation time. Note that the space it
// occupied is only returned through ReleaseCredit (with that same kind).
func (b *InputBuffer) Dequeue(vc int) (packet.Ref, packet.RouteKind) {
	s := &b.vcs[vc]
	if s.queue.len() == 0 {
		panic(fmt.Sprintf("buffer: dequeue from empty VC %d", vc))
	}
	e := s.queue.pop()
	return e.ref, e.kind
}

// CapacityFor returns the maximum space a single VC could ever hold: its
// private capacity plus, for DAMQs, the whole shared pool.
func (b *InputBuffer) CapacityFor(vc int) int {
	if b.cfg.Org == Static {
		return b.cfg.CapacityPerVC
	}
	return b.cfg.CapacityPerVC + b.cfg.Shared
}

// TotalCapacity returns the total capacity of the port in phits.
func (b *InputBuffer) TotalCapacity() int { return b.cfg.TotalCapacity() }

// QueueLen returns the number of resident packets in a VC.
func (b *InputBuffer) QueueLen(vc int) int { return b.vcs[vc].queue.len() }

// CommittedOf returns the committed phits of one VC (what an upstream credit
// counter reports as occupied).
func (b *InputBuffer) CommittedOf(vc int) int { return b.vcs[vc].committed }

// MinCommittedOf returns the committed phits of one VC that belong to
// minimally routed packets.
func (b *InputBuffer) MinCommittedOf(vc int) int { return b.vcs[vc].minCommitted }

// TotalCommitted returns the committed phits across all VCs of the port.
func (b *InputBuffer) TotalCommitted() int {
	t := 0
	for i := range b.vcs {
		t += b.vcs[i].committed
	}
	return t
}

// TotalMinCommitted returns the committed phits of minimally routed packets
// across all VCs of the port.
func (b *InputBuffer) TotalMinCommitted() int {
	t := 0
	for i := range b.vcs {
		t += b.vcs[i].minCommitted
	}
	return t
}

// PeakCommitted returns the highest total committed occupancy observed.
func (b *InputBuffer) PeakCommitted() int { return b.peakCommitted }

// Empty reports whether no packets are resident and no space is committed.
func (b *InputBuffer) Empty() bool {
	for i := range b.vcs {
		if b.vcs[i].queue.len() > 0 || b.vcs[i].committed > 0 {
			return false
		}
	}
	return true
}

// ResidentPackets returns the number of packets currently stored across all
// VCs (used by the deadlock watchdog).
func (b *InputBuffer) ResidentPackets() int {
	n := 0
	for i := range b.vcs {
		n += b.vcs[i].queue.len()
	}
	return n
}
