package topology

import (
	"fmt"

	"flexvc/internal/packet"
)

// FlattenedButterfly2D is a two-dimensional Flattened Butterfly: K×K routers,
// each connected to every other router in its row and in its column. It is a
// diameter-2 network without topology-imposed link-type restrictions when
// adaptive (either-dimension-first) routing is allowed, so it serves as the
// "generic diameter-2 network" of the paper's Figures 1, 3 and 4 and
// Tables I and II. All router-to-router links are classified as Local.
//
// Port layout of every router (radix = P + 2·(K-1)):
//
//	[0, P)                    terminal ports
//	[P, P+K-1)                row links (same row, other columns)
//	[P+K-1, P+2(K-1))         column links (same column, other rows)
type FlattenedButterfly2D struct {
	// K is the routers per dimension, P the nodes per router.
	K, P int

	numRouters int
	numNodes   int
	radix      int

	// tables holds the precomputed route tables once PrecomputeTables has
	// run; nil means every query is computed on the fly. See routetable.go.
	tables *routeTables
}

// NewFlattenedButterfly2D builds a K×K flattened butterfly with p nodes per
// router.
func NewFlattenedButterfly2D(k, p int) (*FlattenedButterfly2D, error) {
	if k < 2 || p < 1 {
		return nil, fmt.Errorf("flattened butterfly: need k>=2 and p>=1, got k=%d p=%d", k, p)
	}
	f := &FlattenedButterfly2D{K: k, P: p}
	f.numRouters = k * k
	f.numNodes = f.numRouters * p
	f.radix = p + 2*(k-1)
	return f, nil
}

// Name implements Topology.
func (f *FlattenedButterfly2D) Name() string {
	return fmt.Sprintf("fbfly2d(k=%d,p=%d)", f.K, f.P)
}

// NumRouters implements Topology.
func (f *FlattenedButterfly2D) NumRouters() int { return f.numRouters }

// NumNodes implements Topology.
func (f *FlattenedButterfly2D) NumNodes() int { return f.numNodes }

// NodesPerRouter implements Topology.
func (f *FlattenedButterfly2D) NodesPerRouter() int { return f.P }

// Radix implements Topology.
func (f *FlattenedButterfly2D) Radix() int { return f.radix }

// NumGroups implements Topology. The flattened butterfly is flat: one group.
func (f *FlattenedButterfly2D) NumGroups() int { return 1 }

// GroupOf implements Topology.
func (f *FlattenedButterfly2D) GroupOf(packet.RouterID) int { return 0 }

// RowCol returns the row and column of a router.
func (f *FlattenedButterfly2D) RowCol(r packet.RouterID) (row, col int) {
	return int(r) / f.K, int(r) % f.K
}

// RouterAt returns the router at the given row and column.
func (f *FlattenedButterfly2D) RouterAt(row, col int) packet.RouterID {
	return packet.RouterID(row*f.K + col)
}

// RouterOfNode implements Topology.
func (f *FlattenedButterfly2D) RouterOfNode(n packet.NodeID) packet.RouterID {
	return packet.RouterID(int(n) / f.P)
}

// NodeAt implements Topology.
func (f *FlattenedButterfly2D) NodeAt(r packet.RouterID, i int) packet.NodeID {
	return packet.NodeID(int(r)*f.P + i)
}

// TerminalPort implements Topology.
func (f *FlattenedButterfly2D) TerminalPort(r packet.RouterID, n packet.NodeID) int {
	return int(n) - int(r)*f.P
}

// PortKind implements Topology. Row and column links are both Local: the
// flattened butterfly with adaptive routing has no link-type restriction.
func (f *FlattenedButterfly2D) PortKind(_ packet.RouterID, p int) PortKind {
	if p < f.P {
		return Terminal
	}
	return Local
}

// firstRowPort and firstColPort delimit the two link ranges.
func (f *FlattenedButterfly2D) firstRowPort() int { return f.P }
func (f *FlattenedButterfly2D) firstColPort() int { return f.P + f.K - 1 }

// rowPortTo returns the port of `from` connecting to the router in the same
// row at column tc.
func (f *FlattenedButterfly2D) rowPortTo(fromCol, tc int) int {
	if tc < fromCol {
		return f.firstRowPort() + tc
	}
	return f.firstRowPort() + tc - 1
}

// colPortTo returns the port of `from` connecting to the router in the same
// column at row tr.
func (f *FlattenedButterfly2D) colPortTo(fromRow, tr int) int {
	if tr < fromRow {
		return f.firstColPort() + tr
	}
	return f.firstColPort() + tr - 1
}

// Neighbor implements Topology.
func (f *FlattenedButterfly2D) Neighbor(r packet.RouterID, p int) (packet.RouterID, int) {
	if t := f.tables; t != nil && p >= f.P {
		return t.neighbor(r, p)
	}
	row, col := f.RowCol(r)
	switch {
	case p < f.P:
		panic(fmt.Sprintf("fbfly2d: Neighbor called on terminal port %d of router %d", p, r))
	case p < f.firstColPort(): // row link
		i := p - f.firstRowPort()
		tc := i
		if i >= col {
			tc = i + 1
		}
		nr := f.RouterAt(row, tc)
		return nr, f.rowPortTo(tc, col)
	default: // column link
		i := p - f.firstColPort()
		tr := i
		if i >= row {
			tr = i + 1
		}
		nr := f.RouterAt(tr, col)
		return nr, f.colPortTo(tr, row)
	}
}

// MinimalHops implements Topology. Minimal paths correct the row and the
// column, in either order: 0, 1 or 2 hops.
func (f *FlattenedButterfly2D) MinimalHops(from, to packet.RouterID) HopCount {
	fr, fc := f.RowCol(from)
	tr, tc := f.RowCol(to)
	n := 0
	if fr != tr {
		n++
	}
	if fc != tc {
		n++
	}
	return HopCount{Local: n}
}

// NextMinimalPort implements Topology. When both coordinates differ, the row
// is corrected first (a deterministic but arbitrary choice; adaptive variants
// may override it).
func (f *FlattenedButterfly2D) NextMinimalPort(from, to packet.RouterID) int {
	fr, fc := f.RowCol(from)
	tr, tc := f.RowCol(to)
	switch {
	case fr == tr && fc == tc:
		return -1
	case fc != tc:
		return f.rowPortTo(fc, tc)
	default:
		return f.colPortTo(fr, tr)
	}
}

// Diameter implements Topology.
func (f *FlattenedButterfly2D) Diameter() HopCount { return HopCount{Local: 2} }
