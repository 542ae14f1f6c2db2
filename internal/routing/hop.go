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
// paper's opportunistic-routing rule. mode is the network's routing mode,
// whose reference path numbers baseline hops. It reads only the topology, the
// manager, the header and the route state, so the router, the fuzzers and any
// checker of the channel graph ask the same question the same way.
func PlanHop(mgr *core.Manager, topo topology.Topology, mode core.RoutingMode, cur packet.RouterID, inPort, outPort int, hdr *packet.Header, rt *packet.RouteState) Hop {
	h := Hop{EscPort: -1}
	h.Kind, h.VCs = hopRange(mgr, topo, mode, cur, inPort, outPort, hdr, rt, false)
	if !h.VCs.Safe && detouring(rt) {
		if esc := minimalPort(topo, cur, hdr); esc != outPort {
			h.EscPort = esc
			h.EscKind, h.EscVCs = hopRange(mgr, topo, mode, cur, inPort, esc, hdr, rt, true)
		}
	}
	return h
}

// TakeHop is the route-state update of a granted hop: the packet now sits in
// VC vc of the input port at the far end of a kind link, or leaves the
// network when kind is Terminal. With revert set the hop was the escape of an
// opportunistic Valiant continuation, and the packet heads straight to its
// destination from here on. The route cursor moves to the reference slot the
// hop took (refSlot).
func TakeHop(topo topology.Topology, mode core.RoutingMode, rt *packet.RouteState, kind topology.PortKind, vc int, revert bool) {
	if revert {
		rt.Phase = packet.PhaseToDestination
	}
	if kind == topology.Terminal {
		return
	}
	slot, _ := refSlot(topo, mode, rt, kind, false)
	rt.RefSlot = int8(slot)
	rt.InputVC = int32(vc)
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
func hopRange(mgr *core.Manager, topo topology.Topology, mode core.RoutingMode, cur packet.RouterID, inPort, outPort int, hdr *packet.Header, rt *packet.RouteState, revert bool) (topology.PortKind, core.VCRange) {
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
	_, pos := refSlot(topo, mode, rt, kind, revert)
	return kind, mgr.AllowedVCs(core.HopContext{
		Class:        hdr.Class,
		Kind:         kind,
		InputKind:    topo.PortKind(cur, inPort),
		InputVC:      int(rt.InputVC),
		RefPosition:  pos,
		PlannedAfter: planned,
		EscapeAfter:  escape,
	})
}

// refSlot is the one numbering of a packet's hops, the paper's l0-g1-l2
// notation: the slot the packet's next hop, of the given kind, takes in the
// reference path of mode (core.ReferenceSeq), and its position there — how
// many slots of each kind precede the slot, the baseline's VC index. The hop
// takes the first slot of its kind after the route cursor; a Valiant packet
// past its intermediate (or taking the escape, revert) is on its second leg,
// the last diameter's worth of slots, and searches no earlier than that. A
// shorter route skips slots and keeps the positions of the hops it takes, so
// the baseline's VCs follow the reference order and cannot form a cycle. When
// no slot is left the slot is the path's length and the position -1, which
// the baseline forbids.
func refSlot(topo topology.Topology, mode core.RoutingMode, rt *packet.RouteState, kind topology.PortKind, revert bool) (int, topology.HopCount) {
	ref := core.ReferenceSeq(topo, mode)
	from := int(rt.RefSlot) + 1
	if rt.Kind == packet.Nonminimal && (revert || rt.Phase == packet.PhaseToDestination) {
		from = max(from, ref.Len()-topo.Diameter().Total())
	}
	var pos topology.HopCount
	for i := range ref.Len() {
		k := ref.At(i)
		if i >= from && k == kind {
			return i, pos
		}
		if k == topology.Global {
			pos.Global++
		} else {
			pos.Local++
		}
	}
	return ref.Len(), topology.HopCount{Local: -1, Global: -1}
}
