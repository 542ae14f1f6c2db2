package core

import (
	"fmt"

	"flexvc/internal/packet"
	"flexvc/internal/topology"
)

// Scheme bundles everything the forwarding path needs to know about VC
// management: the policy (baseline or FlexVC), the VC arrangement, the VC
// selection function and whether minCred credit accounting is enabled.
type Scheme struct {
	// Policy selects baseline fixed-order assignment or FlexVC.
	Policy Policy
	// VCs is the VC arrangement (request and optional reply subsequences).
	VCs VCConfig
	// Selection is the VC selection function used by FlexVC when several
	// VCs are allowed (ignored by the baseline, which allows exactly one).
	Selection SelectionFn
	// MinCred enables FlexVC-minCred: credits of minimally and
	// non-minimally routed packets are accounted separately so congestion
	// sensing for adaptive routing can look at minimal credits only.
	MinCred bool
}

// String implements fmt.Stringer.
func (s Scheme) String() string {
	name := s.Policy.String()
	if s.MinCred {
		name += "-minCred"
	}
	return fmt.Sprintf("%s %s %s", name, s.VCs, s.Selection)
}

// HopContext describes one candidate hop of a packet, as seen by the router
// that is about to forward it. All hop counts are per link kind.
type HopContext struct {
	// Class is the packet's message class.
	Class packet.Class
	// Kind is the link kind of the output port under consideration.
	Kind topology.PortKind
	// InputKind is the link kind of the buffer the packet currently
	// occupies (Terminal when the packet sits in an injection queue).
	InputKind topology.PortKind
	// InputVC is the VC index the packet currently occupies within its
	// input port, or -1 when the packet sits in an injection queue.
	InputVC int
	// RefPosition is the position of this hop in the reference path of the
	// packet's route, per link kind: how many reference slots of each kind
	// precede it (e.g. the destination-group local hop of a Dragonfly
	// minimal path is local position 1 even when the source-group hop was
	// skipped), or -1 when the route has no slot left for the hop. The
	// baseline fixed-order policy uses it directly as the VC index; it is
	// computed by the routing layer from the packet's route cursor (see
	// routing.PlanHop).
	RefPosition topology.HopCount
	// PlannedAfter is the hop-kind sequence remaining on the packet's
	// currently planned route after this hop is taken.
	PlannedAfter topology.PathSeq
	// EscapeAfter is the hop-kind sequence of the shortest (minimal) path
	// from the next router to the packet's destination — the escape path
	// after this hop.
	EscapeAfter topology.PathSeq
}

// VCRange is the result of a VC-management decision for one hop: packets may
// use any VC index in [Lo, Hi] of the downstream input port.
type VCRange struct {
	Lo, Hi int
	// Safe reports whether the hop is a safe hop (the planned route fits
	// entirely in increasing VCs); otherwise the hop is opportunistic and
	// must only be taken when the chosen downstream VC can hold the whole
	// packet, with the minimal path as escape.
	Safe bool
}

// Empty reports whether the range allows no VC at all (the hop is forbidden
// under the current configuration).
func (r VCRange) Empty() bool { return r.Hi < r.Lo }

// Contains reports whether vc lies inside the range.
func (r VCRange) Contains(vc int) bool { return vc >= r.Lo && vc <= r.Hi && !r.Empty() }

// baselineVC implements the fixed-order positional assignment of
// distance-based deadlock avoidance: the VC index of a hop is its position in
// the reference path of the packet's route (the paper's l0-g1-l2 notation),
// supplied by the routing layer in RefPosition. Shorter paths that skip
// reference hops keep the positions of the hops they do take, which is what
// keeps the fixed order deadlock-free.
func (s Scheme) baselineVC(ctx HopContext) VCRange {
	offset := s.VCs.ClassOffset(ctx.Class, ctx.Kind)
	count := s.VCs.ClassCount(ctx.Class, ctx.Kind)
	idx := ctx.RefPosition.Of(ctx.Kind)
	if idx < 0 || idx >= count {
		// The planned route is longer than the subsequence supports: the
		// hop is forbidden. Routing must not have chosen this path.
		return VCRange{Lo: 1, Hi: 0}
	}
	vc := offset + idx
	return VCRange{Lo: vc, Hi: vc, Safe: true}
}
