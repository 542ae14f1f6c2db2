package core

import (
	"fmt"
	"strings"

	"flexvc/internal/packet"
	"flexvc/internal/topology"
)

// RouteClass classifies a whole route under a VC configuration.
type RouteClass uint8

const (
	// Forbidden routes cannot be used: some hop has no VC that preserves a
	// safe escape path.
	Forbidden RouteClass = iota
	// Opportunistic routes are allowed hop by hop, but some hops rely on an
	// escape path rather than the planned route fitting in increasing VCs.
	Opportunistic
	// Safe routes fit entirely in strictly increasing VCs of the class's
	// own subsequence.
	Safe
)

// String implements fmt.Stringer, matching the paper's table entries.
func (c RouteClass) String() string {
	switch c {
	case Safe:
		return "safe"
	case Opportunistic:
		return "opport."
	default:
		return "X"
	}
}

// ReferencePath is the worst-case hop sequence of a routing mode on a
// topology, with the worst-case escape path length after every hop. It is
// the input to route classification (Tables I-IV) and is also used by tests
// to cross-check the per-hop AllowedVCs decisions.
type ReferencePath struct {
	// Kinds is the link kind of every hop, in order: ReferenceSeq.
	Kinds topology.PathSeq
	// EscapeAfter[i] is the worst-case minimal path (per link kind) from
	// the router reached after hop i to the final destination.
	EscapeAfter []topology.HopCount
}

// Hops returns the hop count of the reference path, per link kind.
func (r ReferencePath) Hops() topology.HopCount { return r.Kinds.Counts() }

// Len returns the number of hops.
func (r ReferencePath) Len() int { return r.Kinds.Len() }

// Classify determines whether a route described by ref is safe, opportunistic
// or forbidden for packets of the given class under configuration cfg, using
// the FlexVC rules. The baseline policy only supports safe routes, so a
// Baseline scheme should treat anything below Safe as unusable (Admit does).
func Classify(cfg VCConfig, class packet.Class, ref ReferencePath) RouteClass {
	if ref.Len() != len(ref.EscapeAfter) {
		panic(fmt.Sprintf("core: reference path with %d hops but %d escapes", ref.Len(), len(ref.EscapeAfter)))
	}
	// Safe: the whole path fits in the class's own subsequence.
	if cfg.subsequence(class).AtLeast(FromHopCount(ref.Hops())) {
		return Safe
	}
	// Otherwise every hop must admit a VC with a valid escape: the hop and
	// the worst-case escape after it must fit, per link kind, in the VCs the
	// class may use. Opportunistic hops keep no order among themselves, so
	// VC 0 is always a candidate.
	top := SubpathVCs{Local: cfg.ClassTop(class, topology.Local), Global: cfg.ClassTop(class, topology.Global)}
	for i, need := range ref.EscapeAfter {
		need := FromHopCount(need)
		if ref.Kinds.At(i) == topology.Global {
			need.Global++
		} else {
			need.Local++
		}
		if !top.AtLeast(need) {
			return Forbidden
		}
	}
	return Opportunistic
}

// Admit is the one admission rule: scheme s may run routing mode on topo,
// for one message class or, with twoClasses, for requests and replies, only
// if for every class in use
//
//   - the MIN reference path is Safe within the class's own subsequence, so
//     every packet's minimal path is a valid escape, and
//   - mode's reference path is Safe under the baseline, whose fixed order
//     holds safe routes only, or not Forbidden under FlexVC.
//
// Reply VCs on a single-class workload are an error. The classifications are
// the ones Tables I-IV print (Classify on Reference).
func Admit(s Scheme, topo topology.Topology, mode RoutingMode, twoClasses bool) error {
	classes := packet.Class(1)
	if twoClasses {
		classes = 2
	} else if s.VCs.HasReply() {
		return fmt.Errorf("vcconfig %s: reply VCs configured but the workload has a single message class", s.VCs)
	}
	// The MIN reference path spans the diameter, so its Safe test needs no
	// path built.
	minHops := FromHopCount(topo.Diameter())
	var ref ReferencePath
	if mode != ModeMIN {
		ref = Reference(topo, mode)
	}
	name := strings.ToLower(mode.String())
	for class := packet.Class(0); class < classes; class++ {
		if own := s.VCs.subsequence(class); !own.AtLeast(minHops) {
			return fmt.Errorf("vcconfig %s: %s subsequence %s cannot hold a safe minimal path (%s needed)", s.VCs, class, own, minHops)
		}
		if mode == ModeMIN {
			continue
		}
		switch rc := Classify(s.VCs, class, ref); {
		case s.Policy == Baseline && rc != Safe:
			return fmt.Errorf("baseline VC set %s cannot support %s routing (needs %s per class)", s.VCs, name, FromHopCount(ref.Hops()))
		case rc == Forbidden:
			return fmt.Errorf("FlexVC set %s forbids %s routing on %s", s.VCs, name, topo.Name())
		}
	}
	return nil
}

// RoutingMode enumerates the routing mechanisms whose VC requirements the
// paper tabulates.
type RoutingMode uint8

const (
	// ModeMIN is minimal routing.
	ModeMIN RoutingMode = iota
	// ModeVAL is Valiant (node) routing: minimal to a random intermediate
	// router, then minimal to the destination.
	ModeVAL
	// ModePAR is Progressive Adaptive Routing: one minimal hop, then
	// possibly a switch to a Valiant path.
	ModePAR
)

// String implements fmt.Stringer.
func (m RoutingMode) String() string {
	switch m {
	case ModeMIN:
		return "MIN"
	case ModeVAL:
		return "VAL"
	default:
		return "PAR"
	}
}

// RoutingModes lists the tabulated routing modes in paper order.
var RoutingModes = []RoutingMode{ModeMIN, ModeVAL, ModePAR}

// Reference builds the worst-case reference path of a routing mode on a
// topology, ReferenceSeq, with the worst-case escape after every hop: the
// escape after hop i is the minimal path from that point, which in the worst
// case is the full diameter until the final minimal-path suffix begins, and
// the remaining suffix afterwards.
func Reference(topo topology.Topology, mode RoutingMode) ReferencePath {
	diam := topo.Diameter()
	kinds := ReferenceSeq(topo, mode)
	n := kinds.Len()
	escapes := make([]topology.HopCount, n)
	// The last diam.Total() hops of the path are the final approach: after
	// hop i in that suffix, the remaining suffix is exactly the escape.
	suffixStart := n - min(diam.Total(), n)
	var rest topology.HopCount
	for i := n - 1; i >= 0; i-- {
		escapes[i] = diam
		if i >= suffixStart {
			escapes[i] = rest
		}
		if kinds.At(i) == topology.Global {
			rest.Global++
		} else {
			rest.Local++
		}
	}
	return ReferencePath{Kinds: kinds, EscapeAfter: escapes}
}

// ReferenceSeq is the kind sequence of a routing mode's reference path on a
// topology: one minimal path spanning the diameter for MIN, two for VAL, and
// for PAR one extra (local) hop before the two. A minimal path interleaves
// local and global hops as l...-g-l... (one local hop before each global hop,
// the remaining local hops at the end): l-g-l for the Dragonfly, l-l for the
// flat diameter-2 networks. The sequence is a value built on the stack, so
// the forwarding path derives it per hop: a baseline hop's VC is its slot in
// it (routing.PlanHop), and Tables I-IV and Admit classify it.
func ReferenceSeq(topo topology.Topology, mode RoutingMode) topology.PathSeq {
	diam := topo.Diameter()
	var s topology.PathSeq
	legs := 1
	if mode != ModeMIN {
		legs = 2
	}
	if mode == ModePAR {
		s.Push(topology.Local)
	}
	for range legs {
		local := diam.Local
		for range diam.Global {
			if local > 0 {
				s.Push(topology.Local)
				local--
			}
			s.Push(topology.Global)
		}
		for ; local > 0; local-- {
			s.Push(topology.Local)
		}
	}
	return s
}
