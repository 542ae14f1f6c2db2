package routing

import (
	"flexvc/internal/packet"
	"flexvc/internal/topology"
)

// PARConfig collects the Progressive Adaptive Routing parameters.
type PARConfig struct {
	// ThresholdPhits is the offset of the local credit comparison in phits.
	ThresholdPhits int
	// Sensing selects per-port or per-VC occupancy measurement for the
	// local comparison.
	Sensing Sensing
	// MinCredOnly restricts measurements to minimal credits.
	MinCredOnly bool
	// ClassVC maps message classes to the VC index used by per-VC sensing.
	ClassVC [packet.NumClasses]int
}

// Progressive implements PAR (Progressive Adaptive Routing): packets start on
// the minimal path and the misrouting decision is re-evaluated at every
// router of the source group until the packet either diverts to a Valiant
// path or takes its global hop. Re-evaluating after a local hop lets the
// packet observe the congestion of the global link directly, at the cost of
// one extra local hop on diverted paths (hence the 5/2 VC requirement for
// safe paths).
type Progressive struct {
	topo  topology.Topology
	probe Probe
	cfg   PARConfig
}

// NewProgressive builds a PAR algorithm.
func NewProgressive(topo topology.Topology, probe Probe, cfg PARConfig) *Progressive {
	return &Progressive{topo: topo, probe: probe, cfg: cfg}
}

// Kind implements Algorithm.
func (p *Progressive) Kind() Kind { return PAR }

// Route implements Algorithm.
func (p *Progressive) Route(cur packet.RouterID, hdr *packet.Header, rt *packet.RouteState, rng RandSource) Decision {
	if !rt.AdaptiveDecided {
		inSourceGroup := p.topo.GroupOf(cur) == p.topo.GroupOf(hdr.SrcRouter)
		switch {
		case !inSourceGroup:
			// The packet left the source group minimally: commit to MIN.
			rt.AdaptiveDecided = true
		case p.shouldDivert(cur, hdr):
			rt.AdaptiveDecided = true
			rt.Kind = packet.Nonminimal
			rt.Phase = packet.PhaseToIntermediate
			rt.Intermediate = RandomIntermediate(p.topo, rng)
		case rt.Hops >= 1:
			// Already took an in-group hop without diverting: commit to MIN
			// rather than wandering inside the source group.
			rt.AdaptiveDecided = true
		}
	}
	return routeToward(p.topo, cur, hdr, rt)
}

// shouldDivert compares the congestion of the next minimal hop against the
// configured threshold. Unlike PB there is no remote information: only the
// local occupancy of the candidate output port is observed.
func (p *Progressive) shouldDivert(cur packet.RouterID, hdr *packet.Header) bool {
	if cur == hdr.DstRouter {
		return false
	}
	minPort := p.topo.NextMinimalPort(cur, hdr.DstRouter)
	if minPort < 0 {
		return false
	}
	vc := -1
	if p.cfg.Sensing == SensePerVC {
		vc = p.cfg.ClassVC[hdr.Class]
	}
	occ := p.probe.OutputOccupancy(cur, minPort, vc, p.cfg.MinCredOnly)
	capacity := p.probe.OutputCapacity(cur, minPort, vc)
	if capacity <= 0 {
		return false
	}
	// Divert when the minimal next hop is more than half full and above the
	// threshold; this keeps PAR conservative under uniform traffic while
	// reacting to the saturated global links adversarial traffic creates.
	return occ > p.cfg.ThresholdPhits && 2*occ > capacity
}
