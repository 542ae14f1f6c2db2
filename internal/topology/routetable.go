package topology

import "flexvc/internal/packet"

// This file implements the precomputed routing tables: at network
// construction, the link answers the forwarding hot path asks for at every
// hop (Neighbor, and for the Dragonfly MinimalGlobalLink) are computed once
// into flat arrays, so the per-packet cost becomes a single table load
// instead of a chain of divisions and branches.
//
// Only tables linear in the network's size are built: the per-port neighbour
// table is O(routers x radix) and the Dragonfly group-link table O(groups^2),
// a few hundred kilobytes even at the paper's full scale. The pair queries
// (NextMinimalPort, MinimalHops, MinimalPathSeq) are always answered by
// their closed forms: an O(routers^2) table of them would cost a third of a
// medium network's construction and miss the cache, for no cycle-loop
// gain.
//
// Correctness contract: a table answer must be bit-identical to the on-the-fly
// answer. The builder guarantees this by construction (it fills the tables by
// calling the very methods it later shortcuts, before installing them), and
// the equivalence tests in routetable_test.go verify it query by query.

// Precomputer is implemented by topologies that can precompute their routing
// tables. PrecomputeTables follows the config.RouteTableBytes convention: a
// negative value disables precomputation entirely (any previously installed
// tables are removed) and any other value builds the tables. It reports
// whether tables were installed. The simulator calls it once per network
// construction.
type Precomputer interface {
	PrecomputeTables(routeTableBytes int) bool
}

// routeTables holds the precomputed answers for one topology instance. A nil
// *routeTables means "compute on the fly"; methods must check before
// indexing.
type routeTables struct {
	radix int

	// Per-port tables, indexed [router*radix + port]. nbrRouter is -1 for
	// terminal ports (the fast paths only consult them for link ports).
	nbrRouter []int32
	nbrPort   []int16

	// Dragonfly group-link table, indexed [fromGroup*groups + toGroup]:
	// the router owning the minimal global link between two groups and its
	// global port (-1 on the diagonal). Used by the Piggyback saturation
	// lookups. Nil for flat topologies.
	glRouter []int32
	glPort   []int16
}

// buildRouteTables fills the per-port tables for a topology by querying its
// on-the-fly methods. It must be called before the tables are installed on
// the topology (the topology's methods shortcut through the installed
// tables).
func buildRouteTables(t Topology) *routeTables {
	n, radix := t.NumRouters(), t.Radix()
	rt := &routeTables{radix: radix}

	rt.nbrRouter = make([]int32, n*radix)
	rt.nbrPort = make([]int16, n*radix)
	for r := 0; r < n; r++ {
		rid := packet.RouterID(r)
		for p := 0; p < radix; p++ {
			i := r*radix + p
			if t.PortKind(rid, p) == Terminal {
				rt.nbrRouter[i] = -1
				rt.nbrPort[i] = -1
				continue
			}
			nr, np := t.Neighbor(rid, p)
			rt.nbrRouter[i] = int32(nr)
			rt.nbrPort[i] = int16(np)
		}
	}
	return rt
}

// neighbor answers Topology.Neighbor from the per-port table.
func (rt *routeTables) neighbor(r packet.RouterID, p int) (packet.RouterID, int) {
	i := int(r)*rt.radix + p
	return packet.RouterID(rt.nbrRouter[i]), int(rt.nbrPort[i])
}

// PrecomputeTables implements Precomputer for the Dragonfly. In addition to
// the per-port tables it builds the group-to-group minimal global link table
// used by the Piggyback congestion lookups (O(groups^2)).
func (d *Dragonfly) PrecomputeTables(routeTableBytes int) bool {
	d.tables = nil // compute on the fly while building (and stay nil if disabled)
	if routeTableBytes < 0 {
		return false
	}
	rt := buildRouteTables(d)

	g := d.numGroups
	rt.glRouter = make([]int32, g*g)
	rt.glPort = make([]int16, g*g)
	for fg := 0; fg < g; fg++ {
		for tg := 0; tg < g; tg++ {
			i := fg*g + tg
			if fg == tg {
				rt.glRouter[i] = int32(packet.InvalidRouter)
				rt.glPort[i] = -1
				continue
			}
			router, port, _ := d.MinimalGlobalLink(fg, tg)
			rt.glRouter[i] = int32(router)
			rt.glPort[i] = int16(port)
		}
	}
	d.tables = rt
	return true
}

// PrecomputeTables implements Precomputer for the flattened butterfly.
func (f *FlattenedButterfly2D) PrecomputeTables(routeTableBytes int) bool {
	f.tables = nil // compute on the fly while building (and stay nil if disabled)
	if routeTableBytes < 0 {
		return false
	}
	f.tables = buildRouteTables(f)
	return true
}
