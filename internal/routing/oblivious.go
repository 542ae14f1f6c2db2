package routing

import (
	"flexvc/internal/packet"
	"flexvc/internal/topology"
)

// Minimal routes every packet along a minimal path.
type Minimal struct {
	topo topology.Topology
}

// NewMinimal builds a minimal-routing algorithm for the topology.
func NewMinimal(topo topology.Topology) *Minimal { return &Minimal{topo: topo} }

// Kind implements Algorithm.
func (m *Minimal) Kind() Kind { return MIN }

// Route implements Algorithm.
func (m *Minimal) Route(cur packet.RouterID, hdr *packet.Header, rt *packet.RouteState, _ RandSource) Decision {
	rt.Kind = packet.Minimal
	rt.Phase = packet.PhaseToDestination
	return routeToward(m.topo, cur, hdr, rt)
}

// Valiant routes every packet minimally to a uniformly random intermediate
// router (Valiant-node randomisation, "real" Valiant in the paper's
// terminology) and then minimally to the destination. It makes adversarial
// traffic uniform at the cost of doubling the path length.
type Valiant struct {
	topo topology.Topology
}

// NewValiant builds a Valiant-routing algorithm for the topology.
func NewValiant(topo topology.Topology) *Valiant { return &Valiant{topo: topo} }

// Kind implements Algorithm.
func (v *Valiant) Kind() Kind { return VAL }

// Route implements Algorithm.
func (v *Valiant) Route(cur packet.RouterID, hdr *packet.Header, rt *packet.RouteState, rng RandSource) Decision {
	if !rt.AdaptiveDecided {
		rt.AdaptiveDecided = true
		rt.Kind = packet.Nonminimal
		rt.Phase = packet.PhaseToIntermediate
		rt.Intermediate = RandomIntermediate(v.topo, rng)
	}
	return routeToward(v.topo, cur, hdr, rt)
}

// RandomIntermediate draws a uniformly random intermediate router for Valiant
// routing.
func RandomIntermediate(topo topology.Topology, rng RandSource) packet.RouterID {
	return packet.RouterID(rng.Intn(topo.NumRouters()))
}
