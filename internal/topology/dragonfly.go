package topology

import (
	"fmt"

	"flexvc/internal/packet"
)

// Dragonfly is the canonical dragonfly topology of Kim et al. (ISCA 2008) as
// used in the FlexVC evaluation: groups of A routers connected as a complete
// graph by local links, and groups connected as a complete graph by global
// links. Each router attaches P computing nodes and owns H global links.
//
// With the balanced configuration A = 2H = 2P the network has A·H+1 groups.
// The paper's configuration is P=8, A=16, H=8 (31-port routers, 129 groups,
// 2,064 routers, 16,512 nodes); scaled-down instances with the same structure
// are used for tests and benches.
//
// Port layout of every router (radix = P + A-1 + H):
//
//	[0, P)            terminal (injection/consumption) ports, one per node
//	[P, P+A-1)        local ports, one per other router in the group
//	[P+A-1, radix)    global ports
//
// Global wiring ("consecutive" arrangement): each group owns A·H global
// channels numbered gc = pos·H + j where pos is the router position within
// the group and j its global port index. Channel gc of group G connects to
// group D = gc if gc < G, else gc+1 (skipping G itself). The reverse channel
// in D is G if G < D, else G-1. This yields exactly one global link between
// every pair of groups.
type Dragonfly struct {
	// P is the number of nodes per router, A the number of routers per
	// group and H the number of global links per router.
	P, A, H int

	numGroups  int
	numRouters int
	numNodes   int
	radix      int

	// tables holds the precomputed route tables once PrecomputeTables has
	// run; nil means every query is computed on the fly. See routetable.go.
	tables *routeTables
}

// NewDragonfly builds a dragonfly with p nodes per router, a routers per
// group and h global links per router. The number of groups is the maximum
// a·h+1 so the global graph is complete.
func NewDragonfly(p, a, h int) (*Dragonfly, error) {
	if p < 1 || a < 1 || h < 1 {
		return nil, fmt.Errorf("dragonfly: parameters must be positive, got p=%d a=%d h=%d", p, a, h)
	}
	d := &Dragonfly{P: p, A: a, H: h}
	d.numGroups = a*h + 1
	d.numRouters = d.numGroups * a
	d.numNodes = d.numRouters * p
	d.radix = p + (a - 1) + h
	return d, nil
}

// NewBalancedDragonfly builds a balanced dragonfly (a = 2h, p = h) from the
// global-link count h. h=8 reproduces the paper's system.
func NewBalancedDragonfly(h int) (*Dragonfly, error) {
	return NewDragonfly(h, 2*h, h)
}

// Name implements Topology.
func (d *Dragonfly) Name() string {
	return fmt.Sprintf("dragonfly(p=%d,a=%d,h=%d,groups=%d)", d.P, d.A, d.H, d.numGroups)
}

// NumRouters implements Topology.
func (d *Dragonfly) NumRouters() int { return d.numRouters }

// NumNodes implements Topology.
func (d *Dragonfly) NumNodes() int { return d.numNodes }

// NodesPerRouter implements Topology.
func (d *Dragonfly) NodesPerRouter() int { return d.P }

// Radix implements Topology.
func (d *Dragonfly) Radix() int { return d.radix }

// NumGroups implements Topology.
func (d *Dragonfly) NumGroups() int { return d.numGroups }

// GroupOf implements Topology.
func (d *Dragonfly) GroupOf(r packet.RouterID) int { return int(r) / d.A }

// PosInGroup returns the position of a router within its group.
func (d *Dragonfly) PosInGroup(r packet.RouterID) int { return int(r) % d.A }

// RouterInGroup returns the router at position pos of group g.
func (d *Dragonfly) RouterInGroup(g, pos int) packet.RouterID {
	return packet.RouterID(g*d.A + pos)
}

// RouterOfNode implements Topology.
func (d *Dragonfly) RouterOfNode(n packet.NodeID) packet.RouterID {
	return packet.RouterID(int(n) / d.P)
}

// NodeAt implements Topology.
func (d *Dragonfly) NodeAt(r packet.RouterID, i int) packet.NodeID {
	return packet.NodeID(int(r)*d.P + i)
}

// TerminalPort implements Topology.
func (d *Dragonfly) TerminalPort(r packet.RouterID, n packet.NodeID) int {
	return int(n) - int(r)*d.P
}

// Port-layout helpers.

// FirstLocalPort returns the index of the first local port.
func (d *Dragonfly) FirstLocalPort() int { return d.P }

// FirstGlobalPort returns the index of the first global port.
func (d *Dragonfly) FirstGlobalPort() int { return d.P + d.A - 1 }

// PortKind implements Topology.
func (d *Dragonfly) PortKind(_ packet.RouterID, p int) PortKind {
	switch {
	case p < d.P:
		return Terminal
	case p < d.P+d.A-1:
		return Local
	default:
		return Global
	}
}

// LocalPortTo returns the local port of router `from` that connects to router
// `to`, which must be a different router of the same group.
func (d *Dragonfly) LocalPortTo(from, to packet.RouterID) int {
	fp, tp := d.PosInGroup(from), d.PosInGroup(to)
	// Local port k of a router at position fp connects to the router at
	// position k if k < fp, else k+1 (skipping itself).
	if tp < fp {
		return d.FirstLocalPort() + tp
	}
	return d.FirstLocalPort() + tp - 1
}

// localNeighborPos returns the in-group position reached through local port
// index li (0-based within the local port range) of a router at position pos.
func (d *Dragonfly) localNeighborPos(pos, li int) int {
	if li < pos {
		return li
	}
	return li + 1
}

// globalChannelToGroup returns the global channel index (0..A·H-1) of group g
// that connects to group dg.
func (d *Dragonfly) globalChannelToGroup(g, dg int) int {
	if dg < g {
		return dg
	}
	return dg - 1
}

// groupOfGlobalChannel returns the destination group of channel gc of group g.
func (d *Dragonfly) groupOfGlobalChannel(g, gc int) int {
	if gc < g {
		return gc
	}
	return gc + 1
}

// GlobalPortToGroup returns, for a source group g and destination group dg,
// the router (by position in g) owning the global link to dg and the global
// port index on that router.
func (d *Dragonfly) GlobalPortToGroup(g, dg int) (pos, port int) {
	gc := d.globalChannelToGroup(g, dg)
	pos = gc / d.H
	port = d.FirstGlobalPort() + gc%d.H
	return pos, port
}

// Neighbor implements Topology.
func (d *Dragonfly) Neighbor(r packet.RouterID, p int) (packet.RouterID, int) {
	if t := d.tables; t != nil && p >= d.P {
		return t.neighbor(r, p)
	}
	g := d.GroupOf(r)
	pos := d.PosInGroup(r)
	switch d.PortKind(r, p) {
	case Local:
		li := p - d.FirstLocalPort()
		npos := d.localNeighborPos(pos, li)
		nr := d.RouterInGroup(g, npos)
		return nr, d.LocalPortTo(nr, r)
	case Global:
		gc := pos*d.H + (p - d.FirstGlobalPort())
		dg := d.groupOfGlobalChannel(g, gc)
		// Reverse channel in the destination group.
		rgc := d.globalChannelToGroup(dg, g)
		npos := rgc / d.H
		nport := d.FirstGlobalPort() + rgc%d.H
		return d.RouterInGroup(dg, npos), nport
	default:
		panic(fmt.Sprintf("dragonfly: Neighbor called on terminal port %d of router %d", p, r))
	}
}

// MinimalHops implements Topology. "Minimal" here is the hierarchical
// dragonfly minimal routing used by real systems and by the paper: an
// optional local hop in the source group to reach the router owning the
// global link to the destination group, the global hop, and an optional
// local hop in the destination group (l-g-l). Occasionally the raw graph
// distance is shorter (two global hops through a third group), but such
// paths are not used by MIN routing and are treated as non-minimal.
func (d *Dragonfly) MinimalHops(from, to packet.RouterID) HopCount {
	if from == to {
		return HopCount{}
	}
	fg, tg := d.GroupOf(from), d.GroupOf(to)
	if fg == tg {
		return HopCount{Local: 1}
	}
	var hc HopCount
	hc.Global = 1
	srcPos, _ := d.GlobalPortToGroup(fg, tg)
	if srcPos != d.PosInGroup(from) {
		hc.Local++
	}
	dstPos, _ := d.GlobalPortToGroup(tg, fg)
	if dstPos != d.PosInGroup(to) {
		hc.Local++
	}
	return hc
}

// NextMinimalPort implements Topology.
func (d *Dragonfly) NextMinimalPort(from, to packet.RouterID) int {
	if from == to {
		return -1
	}
	fg, tg := d.GroupOf(from), d.GroupOf(to)
	if fg == tg {
		return d.LocalPortTo(from, to)
	}
	srcPos, gport := d.GlobalPortToGroup(fg, tg)
	if srcPos == d.PosInGroup(from) {
		return gport
	}
	return d.LocalPortTo(from, d.RouterInGroup(fg, srcPos))
}

// Diameter implements Topology: l-g-l, i.e. 2 local hops and 1 global hop.
func (d *Dragonfly) Diameter() HopCount {
	hc := HopCount{}
	if d.A > 1 {
		hc.Local = 2
	}
	if d.numGroups > 1 {
		hc.Global = 1
	}
	return hc
}

// MinimalGlobalLink returns, for a packet in group `fromGroup` destined to
// group `toGroup`, the router owning the minimal-path global link and the
// global port index on that router. ok is false when both groups coincide.
// Source-adaptive routing (Piggyback) uses this to look up the remotely
// sensed saturation state of the minimal global link.
func (d *Dragonfly) MinimalGlobalLink(fromGroup, toGroup int) (router packet.RouterID, port int, ok bool) {
	if t := d.tables; t != nil {
		i := fromGroup*d.numGroups + toGroup
		return packet.RouterID(t.glRouter[i]), int(t.glPort[i]), fromGroup != toGroup
	}
	if fromGroup == toGroup {
		return packet.InvalidRouter, -1, false
	}
	pos, p := d.GlobalPortToGroup(fromGroup, toGroup)
	return d.RouterInGroup(fromGroup, pos), p, true
}
