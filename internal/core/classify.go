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
	// Kinds is the link kind of every hop, in order.
	Kinds []topology.PortKind
	// EscapeAfter[i] is the worst-case minimal path (per link kind) from
	// the router reached after hop i to the final destination.
	EscapeAfter []topology.HopCount
}

// Hops returns the hop count of the reference path, per link kind.
func (r ReferencePath) Hops() topology.HopCount { return countKinds(r.Kinds) }

// Len returns the number of hops.
func (r ReferencePath) Len() int { return len(r.Kinds) }

// Classify determines whether a route described by ref is safe, opportunistic
// or forbidden for packets of the given class under configuration cfg, using
// the FlexVC rules. The baseline policy only supports safe routes, so a
// Baseline scheme should treat anything below Safe as unusable (Admit does).
func Classify(cfg VCConfig, class packet.Class, ref ReferencePath) RouteClass {
	if len(ref.Kinds) != len(ref.EscapeAfter) {
		panic(fmt.Sprintf("core: reference path with %d hops but %d escapes", len(ref.Kinds), len(ref.EscapeAfter)))
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
	for i, kind := range ref.Kinds {
		need := FromHopCount(ref.EscapeAfter[i])
		if kind == topology.Global {
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
// topology, including the worst-case escape after every hop.
//
// For topologies without link-type restrictions (all links Local, e.g. the
// generic diameter-2 network) the reference path is simply `diameter` local
// hops for MIN, twice that for VAL and one extra hop for PAR, and the escape
// after every hop is bounded by the diameter (or less near the destination).
//
// For the Dragonfly, minimal paths follow l-g-l and Valiant paths
// l-g-l-l-g-l; escapes are bounded by the l-g-l minimal path until the
// destination group is reached.
func Reference(topo topology.Topology, mode RoutingMode) ReferencePath {
	diam := topo.Diameter()
	switch mode {
	case ModeMIN:
		return buildReference(minimalKinds(diam), diam)
	case ModeVAL:
		kinds := append(minimalKinds(diam), minimalKinds(diam)...)
		return buildReference(kinds, diam)
	default: // ModePAR: one extra minimal (local) hop before the Valiant path.
		kinds := make([]topology.PortKind, 0, 1+2*diam.Total())
		kinds = append(kinds, topology.Local)
		kinds = append(kinds, minimalKinds(diam)...)
		kinds = append(kinds, minimalKinds(diam)...)
		return buildReference(kinds, diam)
	}
}

// minimalKinds expands a diameter hop count into the canonical ordered kind
// sequence of a minimal path. Hierarchical networks interleave local and
// global hops as l...-g-l... (one local hop before each global hop, remaining
// local hops at the end), which matches l-g-l for the Dragonfly and plain
// l-l for flat diameter-2 networks.
func minimalKinds(diam topology.HopCount) []topology.PortKind {
	kinds := make([]topology.PortKind, 0, diam.Total())
	local := diam.Local
	for g := 0; g < diam.Global; g++ {
		if local > 0 {
			kinds = append(kinds, topology.Local)
			local--
		}
		kinds = append(kinds, topology.Global)
	}
	for ; local > 0; local-- {
		kinds = append(kinds, topology.Local)
	}
	return kinds
}

// buildReference computes worst-case escapes for every hop of a kind
// sequence: the escape after hop i is the minimal path from that point, which
// in the worst case is the full diameter until the final minimal-path suffix
// begins, and the remaining suffix afterwards.
func buildReference(kinds []topology.PortKind, diam topology.HopCount) ReferencePath {
	n := len(kinds)
	escapes := make([]topology.HopCount, n)
	// The last diam.Total() hops of the path are the final approach: after
	// hop i in that suffix, the remaining suffix is exactly the escape.
	suffixStart := n - min(diam.Total(), n)
	for i := 0; i < n; i++ {
		if i >= suffixStart {
			escapes[i] = countKinds(kinds[i+1:])
		} else {
			escapes[i] = diam
		}
	}
	return ReferencePath{Kinds: kinds, EscapeAfter: escapes}
}

// countKinds tallies a kind sequence into a hop count.
func countKinds(kinds []topology.PortKind) topology.HopCount {
	var hc topology.HopCount
	for _, k := range kinds {
		if k == topology.Global {
			hc.Global++
		} else {
			hc.Local++
		}
	}
	return hc
}
