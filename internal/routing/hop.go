package routing

import (
	"flexvc/internal/core"
	"flexvc/internal/packet"
	"flexvc/internal/topology"
)

// Hop is the VC plan of one hop: the VC range the scheme allows at the far
// end of the requested output port and, when that hop is an opportunistic
// Valiant continuation, the escape it falls back to. Ejection is a hop too:
// through a terminal port, on the single VC 0 of its ejection channel.
type Hop struct {
	// Kind is the kind of the requested output port, and VCs the range
	// allowed at its far end (empty when the hop is forbidden).
	Kind topology.PortKind
	VCs  core.VCRange
	// EscPort is the escape of an opportunistic Valiant continuation — the
	// first port of the packet's minimal path to its destination node, when
	// it differs from the requested port — or -1 when the hop has none. At
	// the destination router that port is the node's terminal port: a detour
	// passing through its destination escapes by ejecting. EscKind and
	// EscVCs are its kind and range; taking it abandons the detour
	// (TakeHop's revert).
	EscPort int
	EscKind topology.PortKind
	EscVCs  core.VCRange
}

// PlanHop is the hop rule: the VCs the scheme behind mgr allows a packet at
// router cur, sitting in input port inPort, when it leaves through outPort (a
// link port, or a terminal port to eject), and the escape fallback of the
// paper's opportunistic-routing rule. It reads only the topology, the
// manager, the header and the route state, so the router, the fuzzers and
// any checker of the channel graph ask the same question the same way.
func PlanHop(mgr *core.Manager, topo topology.Topology, cur packet.RouterID, inPort, outPort int, hdr *packet.Header, rt *packet.RouteState) Hop {
	h := Hop{EscPort: -1}
	h.Kind, h.VCs = hopRange(mgr, topo, cur, inPort, outPort, hdr, rt, false)
	if !h.VCs.Safe && detouring(rt) {
		if esc := minimalPort(topo, cur, hdr); esc != outPort {
			h.EscPort = esc
			h.EscKind, h.EscVCs = hopRange(mgr, topo, cur, inPort, esc, hdr, rt, true)
		}
	}
	return h
}

// TakeHop is the route-state update of a granted hop: the packet now sits in
// VC vc of the input port at the far end of a kind link, or leaves the
// network when kind is Terminal. With revert set the hop was the escape of an
// opportunistic Valiant continuation, and the packet heads straight to its
// destination from here on.
func TakeHop(rt *packet.RouteState, kind topology.PortKind, vc int, revert bool) {
	if revert {
		rt.Phase = packet.PhaseToDestination
	}
	if kind == topology.Terminal {
		return
	}
	rt.InputVC = int32(vc)
	switch kind {
	case topology.Local:
		rt.LocalHops++
	case topology.Global:
		rt.GlobalHops++
	}
	rt.Hops++
}

// detouring reports whether the packet is a Valiant detour still heading to
// its intermediate: the only route whose planned path differs from its
// minimal (escape) path.
func detouring(rt *packet.RouteState) bool {
	return rt.Kind == packet.Nonminimal && rt.Phase == packet.PhaseToIntermediate
}

// hopRange asks the manager for the VC range of the hop through outPort. With
// revert set the hop is the escape: the packet's planned path after it is its
// minimal path. Ejection ends every path, so it is always safe.
func hopRange(mgr *core.Manager, topo topology.Topology, cur packet.RouterID, inPort, outPort int, hdr *packet.Header, rt *packet.RouteState, revert bool) (topology.PortKind, core.VCRange) {
	kind := topo.PortKind(cur, outPort)
	if kind == topology.Terminal {
		return kind, core.VCRange{Safe: true}
	}
	next, _ := topo.Neighbor(cur, outPort)
	escape := topology.MinimalSeq(topo, next, hdr.DstRouter)
	planned := escape
	if !revert && detouring(rt) {
		planned = topology.MinimalSeq(topo, next, rt.Intermediate).Concat(topology.MinimalSeq(topo, rt.Intermediate, hdr.DstRouter))
	}
	return kind, mgr.AllowedVCs(core.HopContext{
		Class:        hdr.Class,
		Kind:         kind,
		InputKind:    topo.PortKind(cur, inPort),
		InputVC:      int(rt.InputVC),
		RefPosition:  baselinePosition(topo, rt),
		PlannedAfter: planned,
		EscapeAfter:  escape,
	})
}

// baselinePosition returns the position of the packet's next hop within the
// reference path of its route, per link kind — the input the baseline
// (fixed-order) VC assignment needs. Positions follow the paper's notation:
//
//   - Dragonfly minimal paths l0-g1-l2: the local position is 0 in the source
//     group and 1 in the destination group (i.e. the number of global hops
//     already taken), and the global position is the number of global hops
//     taken. Skipped hops keep the positions of the remaining hops.
//   - Dragonfly Valiant paths l0-g1-l2-l3-g4-l5: local hops taken after the
//     Valiant intermediate router has been passed shift one extra position.
//   - PAR-diverted packets shift local positions by the local hops taken
//     before the diversion (the l0-l1-g2-... reference).
//   - Flat topologies (all links Local, no skippable hops that could break
//     the order) simply use the number of hops of that kind already taken.
func baselinePosition(topo topology.Topology, rt *packet.RouteState) topology.HopCount {
	if _, hierarchical := topo.(*topology.Dragonfly); !hierarchical {
		return topology.HopCount{Local: int(rt.LocalHops), Global: int(rt.GlobalHops)}
	}
	pos := topology.HopCount{Local: int(rt.GlobalHops), Global: int(rt.GlobalHops)}
	if rt.Kind == packet.Nonminimal {
		if rt.Phase == packet.PhaseToDestination {
			pos.Local++
		}
		if rt.DivertPrefixLocal > 0 {
			pos.Local += int(rt.DivertPrefixLocal)
		}
	}
	return pos
}
