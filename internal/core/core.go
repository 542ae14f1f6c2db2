// Package core implements the paper's primary contribution: FlexVC, a
// flexible virtual-channel management mechanism for distance-based deadlock
// avoidance in low-diameter networks, together with the baseline fixed-order
// VC assignment it is compared against and the FlexVC-minCred congestion
// sensing variant.
//
// The package is purely combinatorial: it decides, for a packet about to take
// a hop, which VC indices of the downstream input port it may use, and it
// classifies whole routes as safe, opportunistic or forbidden for a given VC
// arrangement (reproducing Tables I-IV of the paper). The cycle-level
// machinery that uses these decisions lives in internal/router and
// internal/sim.
package core

import (
	"fmt"
	"strconv"
	"strings"

	"flexvc/internal/packet"
	"flexvc/internal/topology"
)

// Policy selects the VC management mechanism.
type Policy uint8

const (
	// Baseline is the classic distance-based deadlock avoidance: hop i of
	// the reference path uses exactly VC i (per link kind, per message
	// class). Extra VCs beyond the reference path cannot be exploited.
	Baseline Policy = iota
	// FlexVC relaxes the order: any VC from 0 up to a per-hop maximum may
	// be used, the maximum being determined by the remaining safe or escape
	// path so that an increasing escape sequence always exists.
	FlexVC
)

// Policies lists every VC-management policy, in a stable order, for sweeps
// and exhaustive round-trip tests.
var Policies = []Policy{Baseline, FlexVC}

// String implements fmt.Stringer.
func (p Policy) String() string {
	if p == Baseline {
		return "baseline"
	}
	return "flexvc"
}

// ParsePolicy parses the textual form produced by String ("baseline" or
// "flexvc"). It is the fail-fast inverse spec layers (internal/campaign,
// cmd/flexvcsim) rely on: unknown names error instead of defaulting.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "baseline", "base":
		return Baseline, nil
	case "flexvc", "flex":
		return FlexVC, nil
	}
	return Baseline, fmt.Errorf("unknown VC management policy %q (want baseline or flexvc)", s)
}

// SubpathVCs is the VC count per link kind for one message class, written
// "local/global" in the paper (e.g. 4/2).
type SubpathVCs struct {
	Local  int
	Global int
}

// Of returns the VC count for a link kind.
func (s SubpathVCs) Of(k topology.PortKind) int {
	if k == topology.Global {
		return s.Global
	}
	return s.Local
}

// AtLeast reports whether s has at least as many VCs of every kind as o.
func (s SubpathVCs) AtLeast(o SubpathVCs) bool {
	return s.Local >= o.Local && s.Global >= o.Global
}

// Add returns the element-wise sum.
func (s SubpathVCs) Add(o SubpathVCs) SubpathVCs {
	return SubpathVCs{Local: s.Local + o.Local, Global: s.Global + o.Global}
}

// String implements fmt.Stringer using the paper's "L/G" notation.
func (s SubpathVCs) String() string { return fmt.Sprintf("%d/%d", s.Local, s.Global) }

// ParseSubpathVCs parses the "local/global" notation produced by String,
// e.g. "4/2". Counts must be non-negative integers.
func ParseSubpathVCs(s string) (SubpathVCs, error) {
	lo, gl, ok := strings.Cut(s, "/")
	if !ok {
		return SubpathVCs{}, fmt.Errorf("VC spec %q must be local/global, e.g. 4/2", s)
	}
	l, errL := strconv.Atoi(lo)
	g, errG := strconv.Atoi(gl)
	if errL != nil || errG != nil {
		return SubpathVCs{}, fmt.Errorf("VC spec %q must be local/global with integer counts, e.g. 4/2", s)
	}
	if l < 0 || g < 0 {
		return SubpathVCs{}, fmt.Errorf("VC spec %q: counts must be non-negative", s)
	}
	return SubpathVCs{Local: l, Global: g}, nil
}

// FromHopCount converts a hop count into the VC requirement it implies.
func FromHopCount(h topology.HopCount) SubpathVCs {
	return SubpathVCs{Local: h.Local, Global: h.Global}
}

// VCConfig is the complete VC arrangement of a network: the request
// subsequence followed by the reply subsequence (empty when the workload has
// a single message class). Within each link kind, request VCs occupy the
// lower indices and reply VCs the higher indices, so replies may
// opportunistically dip into request VCs while requests never block replies'
// dedicated buffers.
type VCConfig struct {
	Request SubpathVCs
	Reply   SubpathVCs
}

// SingleClass builds a configuration without a reply subsequence.
func SingleClass(local, global int) VCConfig {
	return VCConfig{Request: SubpathVCs{Local: local, Global: global}}
}

// TwoClass builds a request+reply configuration.
func TwoClass(reqLocal, reqGlobal, repLocal, repGlobal int) VCConfig {
	return VCConfig{
		Request: SubpathVCs{Local: reqLocal, Global: reqGlobal},
		Reply:   SubpathVCs{Local: repLocal, Global: repGlobal},
	}
}

// HasReply reports whether a reply subsequence is configured.
func (c VCConfig) HasReply() bool { return c.Reply.Local > 0 || c.Reply.Global > 0 }

// Total returns the total VC count (request + reply) per link kind.
func (c VCConfig) Total() SubpathVCs { return c.Request.Add(c.Reply) }

// TotalOf returns the total VC count for one link kind.
func (c VCConfig) TotalOf(k topology.PortKind) int { return c.Total().Of(k) }

// ClassOffset returns the first VC index of a message class for a link kind.
func (c VCConfig) ClassOffset(class packet.Class, k topology.PortKind) int {
	if class == packet.Reply {
		return c.Request.Of(k)
	}
	return 0
}

// ClassCount returns the number of VCs dedicated to a message class for a
// link kind.
func (c VCConfig) ClassCount(class packet.Class, k topology.PortKind) int {
	return c.subsequence(class).Of(k)
}

// subsequence returns the VCs dedicated to a message class.
func (c VCConfig) subsequence(class packet.Class) SubpathVCs {
	if class == packet.Reply {
		return c.Reply
	}
	return c.Request
}

// ClassTop returns one past the highest VC index a packet of the given class
// may ever use for a link kind: requests are confined to the request
// subsequence, replies may use the whole sequence.
func (c VCConfig) ClassTop(class packet.Class, k topology.PortKind) int {
	if class == packet.Reply {
		return c.TotalOf(k)
	}
	return c.Request.Of(k)
}

// String implements fmt.Stringer using the paper's notation, e.g.
// "6/4 (4/3+2/1)" for two-class configurations or "4/2" for single-class.
func (c VCConfig) String() string {
	if !c.HasReply() {
		return c.Request.String()
	}
	t := c.Total()
	return fmt.Sprintf("%s (%s+%s)", t.String(), c.Request.String(), c.Reply.String())
}

// ParseVCConfig parses a VC arrangement: "4/2" (single class), "4/2+2/1"
// (request+reply subsequences) or the full display form produced by String,
// "6/3 (4/2+2/1)", whose leading total is cross-checked against the
// subsequences. Parse(String(c)) round-trips losslessly for every valid c.
func ParseVCConfig(s string) (VCConfig, error) {
	body := strings.TrimSpace(s)
	// Display form: "total (req+rep)".
	if open := strings.IndexByte(body, '('); open >= 0 {
		if !strings.HasSuffix(body, ")") {
			return VCConfig{}, fmt.Errorf("VC arrangement %q: unbalanced parenthesis", s)
		}
		totalStr := strings.TrimSpace(body[:open])
		body = body[open+1 : len(body)-1]
		total, err := ParseSubpathVCs(totalStr)
		if err != nil {
			return VCConfig{}, fmt.Errorf("VC arrangement %q: %w", s, err)
		}
		c, err := ParseVCConfig(body)
		if err != nil {
			return VCConfig{}, err
		}
		if c.Total() != total {
			return VCConfig{}, fmt.Errorf("VC arrangement %q: stated total %s does not match subsequences summing to %s", s, total, c.Total())
		}
		return c, nil
	}
	req, rep, twoClass := strings.Cut(body, "+")
	c := VCConfig{}
	var err error
	if c.Request, err = ParseSubpathVCs(strings.TrimSpace(req)); err != nil {
		return VCConfig{}, fmt.Errorf("VC arrangement %q: request subsequence: %w", s, err)
	}
	if twoClass {
		if c.Reply, err = ParseSubpathVCs(strings.TrimSpace(rep)); err != nil {
			return VCConfig{}, fmt.Errorf("VC arrangement %q: reply subsequence: %w", s, err)
		}
	}
	return c, nil
}
