package traffic

import (
	"fmt"
	"math"
	"strings"

	"flexvc/internal/packet"
)

// PhaseSpec describes one phase of a Switchable generator: a base pattern at
// a fixed load for a fixed number of cycles. Zero-valued optional parameters
// (AvgBurstLength, HotspotFraction) inherit the Switchable's Params.
type PhaseSpec struct {
	// Pattern is the traffic pattern name (see CanonicalPattern).
	Pattern string
	// Load is the phase's offered load in phits/node/cycle (the load at the
	// phase's first cycle when LoadEnd is set).
	Load float64
	// LoadEnd, when non-nil, linearly ramps the offered load from Load at
	// the phase's first cycle to LoadEnd at its last (see Params.LoadAt).
	LoadEnd *float64
	// Cycles is the phase duration.
	Cycles int64
	// AvgBurstLength overrides Params.AvgBurstLength for this phase (0
	// inherits; bursty phases only).
	AvgBurstLength float64
	// HotspotFraction overrides Params.HotspotFraction for this phase (0
	// inherits; group-hotspot phases only).
	HotspotFraction float64
	// HotspotGroup is the hot group of a group-hotspot phase.
	HotspotGroup int
}

// Switchable composes a sequence of base generators into one phased workload:
// phase boundaries are cycle counts, and at each boundary generation switches
// to the next phase's pattern and load. Every phase owns independent per-node
// PRNG streams derived deterministically from (seed, phase index), so the
// packet stream of a scenario is reproducible and the stream of phase k does
// not depend on how earlier phases consumed randomness.
//
// Switchable is an open-loop source; wrap it with NewReactive for
// request-reply scenarios. After the last phase ends the last generator keeps
// running (scenario-driven simulations stop at the scenario's total length,
// so this only matters to callers that run longer on purpose).
type Switchable struct {
	phases []switchPhase
	store  *packet.Store
	ids    idAllocator
}

type switchPhase struct {
	spec  PhaseSpec
	until int64 // first cycle NOT in this phase
	gen   Generator
}

// phaseSeed derives the PRNG seed of one phase; nodeRNG's splitmix-style
// scrambling decorrelates the resulting per-node streams across phases.
func phaseSeed(base int64, phase int) int64 {
	return base + int64(phase+1)*15485863
}

// NewSwitchable builds a phased generator. Every phase is validated (known
// pattern, load in [0,1], positive duration) and instantiated up front, so a
// bad scenario fails at construction with a per-phase error instead of
// mid-simulation.
func NewSwitchable(params Params, phases []PhaseSpec) (*Switchable, error) {
	if len(phases) == 0 {
		return nil, fmt.Errorf("traffic: switchable needs at least one phase")
	}
	s := &Switchable{phases: make([]switchPhase, 0, len(phases)), store: params.Store}
	var until int64
	for i, ph := range phases {
		if ph.Cycles <= 0 {
			return nil, fmt.Errorf("traffic: phase %d (%s): cycles must be positive, got %d", i, ph.Pattern, ph.Cycles)
		}
		if ph.Load < 0 || ph.Load > 1 {
			return nil, fmt.Errorf("traffic: phase %d (%s): load %.3f outside [0,1]", i, ph.Pattern, ph.Load)
		}
		if ph.LoadEnd != nil && (math.IsNaN(*ph.LoadEnd) || *ph.LoadEnd < 0 || *ph.LoadEnd > 1) {
			return nil, fmt.Errorf("traffic: phase %d (%s): load_end %.3f outside [0,1]", i, ph.Pattern, *ph.LoadEnd)
		}
		p := params
		p.Load = ph.Load
		if ph.LoadEnd != nil && *ph.LoadEnd != ph.Load {
			end := *ph.LoadEnd
			p.LoadEnd = &end
			p.RampStart = until
			p.RampCycles = ph.Cycles
		}
		p.Seed = phaseSeed(params.Seed, i)
		if ph.AvgBurstLength != 0 {
			p.AvgBurstLength = ph.AvgBurstLength
		}
		if ph.HotspotFraction != 0 {
			p.HotspotFraction = ph.HotspotFraction
		}
		p.HotspotGroup = ph.HotspotGroup
		g, err := New(ph.Pattern, p, false)
		if err != nil {
			return nil, fmt.Errorf("traffic: phase %d: %w", i, err)
		}
		until += ph.Cycles
		s.phases = append(s.phases, switchPhase{spec: ph, until: until, gen: g})
	}
	return s, nil
}

// Name implements Generator.
func (s *Switchable) Name() string {
	names := make([]string, len(s.phases))
	for i, ph := range s.phases {
		names[i] = ph.gen.Name()
	}
	return "phased[" + strings.Join(names, ",") + "]"
}

// NextEmission implements Generator. A window that crosses phase boundaries
// is cut at each: a phase's generator is run over its own cycles only, exactly
// the cycles polling would have offered it, and the next phase takes over at
// the boundary with its own, untouched stream.
func (s *Switchable) NextEmission(node packet.NodeID, from, limit int64) (int64, bool) {
	for i := s.phaseAt(from); ; i++ {
		end := limit
		if i+1 < len(s.phases) && s.phases[i].until < limit {
			end = s.phases[i].until
		}
		if c, ok := s.phases[i].gen.NextEmission(node, from, end); ok {
			return c, true
		}
		if end == limit {
			return 0, false
		}
		from = end
	}
}

// phaseAt returns the phase covering cycle now; the last phase covers
// everything after it.
func (s *Switchable) phaseAt(now int64) int {
	i := 0
	for i+1 < len(s.phases) && now >= s.phases[i].until {
		i++
	}
	return i
}

// Emit implements Generator: it delegates to the phase covering `now`. Packet
// IDs are re-allocated from one shared counter so they stay unique across
// phases.
func (s *Switchable) Emit(now int64, node packet.NodeID) packet.Ref {
	ref := s.phases[s.phaseAt(now)].gen.Emit(now, node)
	s.store.Hdr(ref).ID = s.ids.alloc()
	return ref
}

// Generate implements Generator.
func (s *Switchable) Generate(now int64, node packet.NodeID) packet.Ref {
	if _, ok := s.NextEmission(node, now, now+1); !ok {
		return packet.NilRef
	}
	return s.Emit(now, node)
}

// Delivered implements Generator (all base phases are open-loop no-ops).
func (s *Switchable) Delivered(now int64, ref packet.Ref) {
	s.phases[s.phaseAt(now)].gen.Delivered(now, ref)
}

// PendingReplies implements Generator.
func (s *Switchable) PendingReplies(packet.NodeID) packet.Ref { return packet.NilRef }
