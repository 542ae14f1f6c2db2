// Package topology defines the network topologies used in the FlexVC
// evaluation: the diameter-3 Dragonfly (the paper's evaluation platform) and
// a generic diameter-2 network (a 2-D Flattened Butterfly) used for the
// analytic tables and additional examples.
//
// A topology describes routers, the nodes attached to them, the port layout
// of every router and the wiring between ports. It also answers the minimal
// routing queries the routing algorithms need (how many local/global hops
// remain, which port leads minimally toward a destination), so the routing
// and deadlock-avoidance layers stay topology-agnostic.
package topology

import "flexvc/internal/packet"

// PortKind classifies router ports. Deadlock avoidance in networks with
// link-type restrictions (such as the Dragonfly) assigns separate VC
// sequences to local and global links.
type PortKind uint8

const (
	// Terminal ports connect routers to computing nodes (injection on the
	// way in, consumption on the way out).
	Terminal PortKind = iota
	// Local ports connect routers within a group (Dragonfly) or within a
	// dimension (Flattened Butterfly). Topologies without link-type
	// restrictions use Local for every router-to-router link.
	Local
	// Global ports connect different groups in hierarchical topologies.
	Global
)

// String implements fmt.Stringer.
func (k PortKind) String() string {
	switch k {
	case Terminal:
		return "terminal"
	case Local:
		return "local"
	case Global:
		return "global"
	default:
		return "unknown"
	}
}

// NumLinkKinds is the number of router-to-router link kinds (Local, Global).
const NumLinkKinds = 2

// HopCount carries the number of hops of each link kind in a (sub)path.
type HopCount struct {
	Local  int
	Global int
}

// Total returns the total number of hops.
func (h HopCount) Total() int { return h.Local + h.Global }

// Of returns the count for the given link kind.
func (h HopCount) Of(k PortKind) int {
	if k == Global {
		return h.Global
	}
	return h.Local
}

// Topology is the interface the simulator, routing algorithms and the FlexVC
// policy engine use to query the network structure.
type Topology interface {
	// Name returns a short human-readable identifier.
	Name() string

	// NumRouters returns the number of routers in the network.
	NumRouters() int
	// NumNodes returns the number of computing nodes.
	NumNodes() int
	// NodesPerRouter returns the number of nodes attached to each router.
	NodesPerRouter() int
	// Radix returns the number of ports per router (terminal + local + global).
	Radix() int

	// RouterOfNode returns the router a node attaches to.
	RouterOfNode(n packet.NodeID) packet.RouterID
	// NodeAt returns the i-th node attached to router r.
	NodeAt(r packet.RouterID, i int) packet.NodeID
	// TerminalPort returns the port of router r that connects to node n.
	TerminalPort(r packet.RouterID, n packet.NodeID) int

	// PortKind classifies port p of router r.
	PortKind(r packet.RouterID, p int) PortKind
	// Neighbor returns the router reached through port p of router r, and
	// the input port on that router the link arrives at. It must only be
	// called for Local or Global ports.
	Neighbor(r packet.RouterID, p int) (packet.RouterID, int)

	// GroupOf returns the group index of a router (0 for flat topologies).
	GroupOf(r packet.RouterID) int
	// NumGroups returns the number of groups (1 for flat topologies).
	NumGroups() int

	// MinimalHops returns the number of local and global hops on a minimal
	// path between two routers.
	MinimalHops(from, to packet.RouterID) HopCount
	// NextMinimalPort returns a port of `from` that lies on a minimal path
	// toward `to`. It returns -1 when from == to.
	NextMinimalPort(from, to packet.RouterID) int
	// Diameter returns the worst-case minimal hop count, split by link kind.
	Diameter() HopCount
}

// Validate runs structural consistency checks on a topology and returns the
// first problem found, or nil. It verifies that links are symmetric, that
// terminal ports map back to their nodes, and that minimal routing converges.
func Validate(t Topology) error {
	return validate(t)
}
