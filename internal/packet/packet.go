// Package packet defines the messages that travel through the simulated
// network: packets, their message class (request / reply), the kind of route
// they follow (minimal / non-minimal), and the per-packet routing state that
// routers update hop by hop.
//
// Packets are modelled at Virtual Cut-Through granularity: a packet is the
// unit of switching and buffer allocation, while its size in phits determines
// link serialisation time and buffer occupancy.
//
// Packet state lives in a structure-of-arrays Store (see store.go): a packet
// is a dense 4-byte Ref into parallel paged arrays (header, route state,
// timestamps, reply link), not a heap object. Queues, event buffers and
// allocator plans hold Refs; the router hot path reads the arrays directly.
package packet

import "fmt"

// NodeID identifies a computing node attached to the network.
type NodeID int32

// RouterID identifies a router (switch) in the network.
type RouterID int32

// Invalid sentinel values for identifiers.
const (
	InvalidNode   NodeID   = -1
	InvalidRouter RouterID = -1
)

// Class distinguishes the message classes used to break protocol deadlock.
type Class uint8

const (
	// Request packets are generated by traffic sources.
	Request Class = iota
	// Reply packets are generated by destinations in reactive traffic
	// patterns upon consuming a request.
	Reply
	numClasses
)

// NumClasses is the number of distinct message classes.
const NumClasses = int(numClasses)

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case Request:
		return "request"
	case Reply:
		return "reply"
	default:
		return fmt.Sprintf("class(%d)", uint8(c))
	}
}

// RouteKind distinguishes minimally routed packets from non-minimally
// (Valiant) routed packets. FlexVC-minCred accounts credits separately for
// the two kinds.
type RouteKind uint8

const (
	// Minimal marks packets following a shortest path to their destination.
	Minimal RouteKind = iota
	// Nonminimal marks packets following a Valiant (randomised intermediate)
	// path, either decided at the source or in transit.
	Nonminimal
)

// String implements fmt.Stringer.
func (k RouteKind) String() string {
	if k == Minimal {
		return "minimal"
	}
	return "nonminimal"
}

// Phase describes the progress of a non-minimal route.
type Phase uint8

const (
	// PhaseToDestination means the packet is heading straight to its final
	// destination (always the case for minimal routes, and for the second
	// leg of Valiant routes).
	PhaseToDestination Phase = iota
	// PhaseToIntermediate means the packet is still heading to the Valiant
	// intermediate router.
	PhaseToIntermediate
)

// Header is the immutable per-packet record: filled once at allocation (plus
// the endpoint routers, resolved right after) and read-only for the packet's
// lifetime. It packs into 32 bytes so two headers share a cache line in the
// store's header array.
type Header struct {
	// ID is a unique identifier, for debugging: the store may reissue a Ref
	// for a new packet, and the ID tells the two apart. The allocating
	// caller assigns it when the packet gets its slot: the simulator numbers
	// requests as it injects them, a reactive generator numbers its replies
	// (with the top bit set), and a generator's Generate uses its own
	// sequence. Nothing orders on it.
	ID uint64
	// Src and Dst are the endpoints of this packet.
	Src, Dst NodeID
	// SrcRouter and DstRouter cache the routers the endpoints attach to.
	SrcRouter, DstRouter RouterID
	// Size is the packet length in phits.
	Size int32
	// Class is the message class (request or reply).
	Class Class
}

// Times are the per-packet lifecycle timestamps: generation at the source,
// head phit entering the injection buffer, and tail phit consumed at the
// destination. Kept in their own parallel array — they are written at three
// well-known points and read only at delivery, so the router hot path never
// drags them into cache.
type Times struct {
	Gen, Inject, Recv int64
}

// RouteState is the per-packet state routers use and update while forwarding.
// It is the hot mutable array of the store, so its fields are narrow and the
// whole record is 16 bytes.
type RouteState struct {
	// Kind records whether the packet is currently routed minimally or
	// non-minimally.
	Kind RouteKind
	// Phase records whether the packet still travels toward the Valiant
	// intermediate router.
	Phase Phase
	// AdaptiveDecided is set once a source- or in-transit-adaptive decision
	// has been made, so it is not re-evaluated.
	AdaptiveDecided bool
	// RefSlot is the route cursor: the slot, in the reference path of the
	// network's routing mode (core.ReferenceSeq), of the last hop taken, or
	// -1 before the first hop. routing.TakeHop advances it; the baseline VC
	// of the next hop is the slot that hop takes after it.
	RefSlot int8
	// Intermediate is the Valiant intermediate router (valid when Kind is
	// Nonminimal).
	Intermediate RouterID
	// Hops is the total number of router-to-router hops taken.
	Hops int32
	// InputVC is the VC index (within the input port) the packet currently
	// occupies at its present router; -1 while in an injection queue.
	InputVC int32
}

// Reset restores the routing state for (re)injection.
func (rs *RouteState) Reset() {
	*rs = RouteState{
		Kind:         Minimal,
		Phase:        PhaseToDestination,
		RefSlot:      -1,
		Intermediate: InvalidRouter,
		InputVC:      -1,
	}
}
