package topology

import "flexvc/internal/packet"

// MaxPathLen is the maximum number of hops of any supported route (a PAR
// path: one extra local hop plus two concatenated minimal paths of a
// diameter-3 network).
const MaxPathLen = 8

// PathSeq is the ordered sequence of link kinds of a (partial) route. It is a
// small fixed-size value type so the forwarding hot path can build and pass
// sequences without heap allocation.
type PathSeq struct {
	kinds [MaxPathLen]PortKind
	n     uint8
}

// Push appends a hop kind; it panics if the sequence would exceed MaxPathLen
// (which would indicate a routing bug).
func (s *PathSeq) Push(k PortKind) {
	if int(s.n) >= MaxPathLen {
		panic("topology: path sequence overflow")
	}
	s.kinds[s.n] = k
	s.n++
}

// Len returns the number of hops in the sequence.
func (s PathSeq) Len() int { return int(s.n) }

// At returns the kind of the i-th hop.
func (s PathSeq) At(i int) PortKind { return s.kinds[i] }

// Counts tallies the sequence into a hop count.
func (s PathSeq) Counts() HopCount {
	var hc HopCount
	for i := 0; i < int(s.n); i++ {
		if s.kinds[i] == Global {
			hc.Global++
		} else {
			hc.Local++
		}
	}
	return hc
}

// Concat returns the concatenation s followed by o.
func (s PathSeq) Concat(o PathSeq) PathSeq {
	r := s
	for i := 0; i < o.Len(); i++ {
		r.Push(o.At(i))
	}
	return r
}

// Prepend returns the sequence with one hop of kind k inserted at the front.
func (s PathSeq) Prepend(k PortKind) PathSeq {
	var r PathSeq
	r.Push(k)
	return r.Concat(s)
}

// SeqOf builds a PathSeq from explicit kinds (convenience for tests).
func SeqOf(kinds ...PortKind) PathSeq {
	var s PathSeq
	for _, k := range kinds {
		s.Push(k)
	}
	return s
}

// MinimalPathSeq returns the ordered kind sequence of a minimal path between
// two routers of a topology. It complements Topology.MinimalHops (which only
// returns counts) for the callers that need the exact interleaving of local
// and global hops, such as FlexVC's escape-path feasibility check.
func MinimalPathSeq(t Topology, from, to packet.RouterID) PathSeq {
	var s PathSeq
	cur := from
	for cur != to {
		p := t.NextMinimalPort(cur, to)
		if p < 0 {
			break
		}
		s.Push(t.PortKind(cur, p))
		cur, _ = t.Neighbor(cur, p)
	}
	return s
}

// MinimalPathSeq builds the Dragonfly's l-g-l style sequence without
// walking links.
func (d *Dragonfly) MinimalPathSeq(from, to packet.RouterID) PathSeq {
	var s PathSeq
	if from == to {
		return s
	}
	fg, tg := d.GroupOf(from), d.GroupOf(to)
	if fg == tg {
		s.Push(Local)
		return s
	}
	srcPos, _ := d.GlobalPortToGroup(fg, tg)
	if srcPos != d.PosInGroup(from) {
		s.Push(Local)
	}
	s.Push(Global)
	dstPos, _ := d.GlobalPortToGroup(tg, fg)
	if dstPos != d.PosInGroup(to) {
		s.Push(Local)
	}
	return s
}

// MinimalPathSeq builds the flat (all-Local) sequence of a flattened
// butterfly minimal path.
func (f *FlattenedButterfly2D) MinimalPathSeq(from, to packet.RouterID) PathSeq {
	var s PathSeq
	for i, n := 0, f.MinimalHops(from, to).Local; i < n; i++ {
		s.Push(Local)
	}
	return s
}

// PathSequencer is implemented by topologies that can produce minimal path
// kind sequences directly (without walking NextMinimalPort link by link).
type PathSequencer interface {
	MinimalPathSeq(from, to packet.RouterID) PathSeq
}

// MinimalSeq returns the minimal path kind sequence, using the topology's
// fast implementation when available.
func MinimalSeq(t Topology, from, to packet.RouterID) PathSeq {
	if ps, ok := t.(PathSequencer); ok {
		return ps.MinimalPathSeq(from, to)
	}
	return MinimalPathSeq(t, from, to)
}
