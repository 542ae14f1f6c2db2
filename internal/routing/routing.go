// Package routing implements the routing mechanisms evaluated in the FlexVC
// paper: oblivious minimal (MIN) and Valiant (VAL) routing, in-transit
// Progressive Adaptive Routing (PAR) and the Piggyback (PB) source-adaptive
// mechanism with per-port and per-VC congestion sensing, optionally restricted
// to minimal credits (FlexVC-minCred).
//
// A routing algorithm decides, for the packet at the head of an input VC,
// which output port it should request next, updating the packet's route state
// (minimal vs Valiant, current phase, intermediate router). The virtual
// channels that hop may use are the VC management scheme's (internal/core)
// answer to PlanHop, and TakeHop records the hop once it is granted.
package routing

import (
	"fmt"

	"flexvc/internal/core"
	"flexvc/internal/packet"
	"flexvc/internal/topology"
)

// Kind enumerates the implemented routing algorithms.
type Kind uint8

const (
	// MIN routes every packet minimally.
	MIN Kind = iota
	// VAL routes every packet through a uniformly random intermediate
	// router (Valiant-node randomisation).
	VAL
	// PAR is Progressive Adaptive Routing: packets start minimally and may
	// divert to a Valiant path after the first local hop if congestion is
	// detected in transit.
	PAR
	// PB is the Piggyback source-adaptive mechanism: the source router
	// chooses between the minimal and a Valiant path using piggybacked
	// remote saturation information plus a local credit comparison.
	PB
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case MIN:
		return "min"
	case VAL:
		return "val"
	case PAR:
		return "par"
	case PB:
		return "pb"
	default:
		return fmt.Sprintf("routing(%d)", uint8(k))
	}
}

// Kinds lists every routing algorithm, in a stable order, for sweeps and
// exhaustive round-trip tests.
var Kinds = []Kind{MIN, VAL, PAR, PB}

// ParseKind parses the textual form produced by String.
func ParseKind(s string) (Kind, error) {
	for _, k := range Kinds {
		if k.String() == s {
			return k, nil
		}
	}
	return MIN, fmt.Errorf("unknown routing algorithm %q (want min, val, par or pb)", s)
}

// Mode returns the reference route of the algorithm's worst case, the route
// core.Admit and Tables I-IV classify: PB, like VAL, may route any packet
// along a Valiant path.
func (k Kind) Mode() core.RoutingMode {
	switch k {
	case MIN:
		return core.ModeMIN
	case PAR:
		return core.ModePAR
	default:
		return core.ModeVAL
	}
}

// Sensing selects how Piggyback measures the occupancy of a global port when
// deciding whether it is saturated, and how the local credit comparison is
// performed.
type Sensing uint8

const (
	// SensePerPort sums the occupancy of every VC of the port.
	SensePerPort Sensing = iota
	// SensePerVC considers only the first VC a packet would use on that
	// port (VC0 of the relevant subsequence).
	SensePerVC
)

// String implements fmt.Stringer.
func (s Sensing) String() string {
	if s == SensePerVC {
		return "per-vc"
	}
	return "per-port"
}

// Sensings lists every sensing mode, in a stable order, for exhaustive
// round-trip tests.
var Sensings = []Sensing{SensePerPort, SensePerVC}

// ParseSensing parses the textual form produced by String.
func ParseSensing(v string) (Sensing, error) {
	switch v {
	case "per-port", "perport", "port":
		return SensePerPort, nil
	case "per-vc", "pervc", "vc":
		return SensePerVC, nil
	}
	return SensePerPort, fmt.Errorf("unknown sensing mode %q (want per-port or per-vc)", v)
}

// RandSource is the subset of math/rand the algorithms need; the simulator
// provides a deterministic per-router source.
type RandSource interface {
	Intn(n int) int
	Float64() float64
}

// Probe gives routing algorithms visibility into buffer occupancies for
// congestion sensing. It is implemented by the simulator.
type Probe interface {
	// OutputOccupancy returns the committed occupancy, in phits, of the
	// downstream input buffer reached through output port `port` of router
	// r, as seen by r's credit counters. With vc >= 0 only that VC is
	// considered; vc < 0 sums every VC. With minOnly, only space committed
	// by minimally routed packets is counted (FlexVC-minCred).
	OutputOccupancy(r packet.RouterID, port int, vc int, minOnly bool) int
	// OutputCapacity returns the total capacity, in phits, of that
	// downstream input buffer (vc semantics as above).
	OutputCapacity(r packet.RouterID, port int, vc int) int
}

// Decision is the result of a routing query for one packet at one router.
type Decision struct {
	// OutPort is the output port the packet should request: a link port or,
	// at its destination router, the terminal port of its destination node
	// (ejection is a hop like any other).
	OutPort int
}

// Algorithm is the interface shared by all routing mechanisms.
type Algorithm interface {
	// Kind returns the algorithm identifier.
	Kind() Kind
	// Route returns the routing decision at router cur for the packet with
	// the given header, updating its route state (Valiant decisions, phase
	// transitions) in place. rng is the per-router deterministic random
	// source.
	Route(cur packet.RouterID, hdr *packet.Header, rt *packet.RouteState, rng RandSource) Decision
}

// currentTarget returns the router the packet is currently heading to
// minimally: the Valiant intermediate during the first phase, the destination
// otherwise. It also performs the phase transition once the intermediate has
// been reached.
func currentTarget(cur packet.RouterID, rt *packet.RouteState, dst packet.RouterID) packet.RouterID {
	if rt.Kind == packet.Nonminimal && rt.Phase == packet.PhaseToIntermediate {
		if cur == rt.Intermediate {
			rt.Phase = packet.PhaseToDestination
		} else {
			return rt.Intermediate
		}
	}
	return dst
}

// routeToward resolves the next minimal hop toward the packet's current
// target.
func routeToward(topo topology.Topology, cur packet.RouterID, hdr *packet.Header, rt *packet.RouteState) Decision {
	if target := currentTarget(cur, rt, hdr.DstRouter); target != hdr.DstRouter {
		return Decision{OutPort: topo.NextMinimalPort(cur, target)}
	}
	return Decision{OutPort: minimalPort(topo, cur, hdr)}
}

// minimalPort is the first port of the packet's minimal path from cur to its
// destination node: the next link toward its destination router or, once
// there, the node's terminal port.
func minimalPort(topo topology.Topology, cur packet.RouterID, hdr *packet.Header) int {
	if cur == hdr.DstRouter {
		return topo.TerminalPort(cur, hdr.Dst)
	}
	return topo.NextMinimalPort(cur, hdr.DstRouter)
}
