// Package scenario defines declarative, deterministic phased workloads: a
// Scenario is a timed sequence of traffic phases (pattern, load, duration)
// plus a telemetry window width, written as JSON in campaign spec sections.
// It is the spec layer of the transient-experiment family — the simulator
// (internal/sim) turns a scenario into a traffic.Switchable generator and a
// windowed stats.TimeSeries, and the analysis half of this package turns the
// recorded series back into adaptation-lag numbers.
//
// # Determinism contract
//
// A scenario run is a pure function of (config, scenario, seed): phase
// boundaries are cycle counts (never wall clock or RNG draws), each phase
// owns per-node PRNG streams derived from (seed, phase index), and the
// telemetry windows are fixed-width cycle buckets. Two runs of the same
// scenario with the same seed are byte-identical, which is what lets
// scenario replications flow through the checkpointed results store
// unchanged: the scenario is part of config.Config, so it is covered by the
// config fingerprint that keys checkpoint reuse.
//
// # Phase semantics
//
// Phase k covers cycles [sum(cycles[0:k]), sum(cycles[0:k+1])). The
// simulation runs exactly TotalCycles() cycles and measures from cycle 0 —
// warm-up is meaningless for transient experiments, where the interesting
// signal IS the non-steady state. Every phase duration must be a positive
// multiple of Window so phase boundaries land exactly on window boundaries;
// together with the stats.MaxTimeSeriesWindows bound this is checked by
// Validate with actionable messages.
package scenario

import (
	"bytes"
	"fmt"
	"math"

	"flexvc/internal/stats"
	"flexvc/internal/traffic"
)

// Phase is one timed segment of a scenario.
type Phase struct {
	// Name labels the phase in reports; it defaults to "pattern@load".
	Name string `json:"name,omitempty"`
	// Pattern is the traffic pattern (any name traffic.CanonicalPattern
	// accepts: uniform, adversarial, bursty-uniform, transpose, bit-reverse,
	// shuffle, group-hotspot, and their aliases).
	Pattern string `json:"pattern"`
	// Load is the offered load in phits/node/cycle (the load at the phase's
	// first cycle when LoadEnd is set).
	Load float64 `json:"load"`
	// LoadEnd, when non-nil, turns the phase into a load ramp: the offered
	// load is linearly interpolated from Load at the phase's first cycle to
	// LoadEnd at its last. Nil keeps the load constant at Load.
	LoadEnd *float64 `json:"load_end,omitempty"`
	// Cycles is the phase duration; it must be a positive multiple of the
	// scenario window.
	Cycles int64 `json:"cycles"`
	// AvgBurstLength overrides the configuration's burst length for bursty
	// phases (0 inherits).
	AvgBurstLength float64 `json:"avg_burst_length,omitempty"`
	// HotspotFraction overrides the configuration's hotspot fraction for
	// group-hotspot phases (0 inherits).
	HotspotFraction float64 `json:"hotspot_fraction,omitempty"`
	// HotspotGroup selects the hot group of group-hotspot phases.
	HotspotGroup int `json:"hotspot_group,omitempty"`
}

// Label returns the phase's display name.
func (p Phase) Label() string {
	if p.Name != "" {
		return p.Name
	}
	if p.LoadEnd != nil {
		return fmt.Sprintf("%s@%.2f-%.2f", p.Pattern, p.Load, *p.LoadEnd)
	}
	return fmt.Sprintf("%s@%.2f", p.Pattern, p.Load)
}

// Scenario is a complete phased-workload description.
type Scenario struct {
	// Name identifies the scenario in reports and file names.
	Name string `json:"name,omitempty"`
	// Window is the transient-telemetry window width in cycles.
	Window int64 `json:"window"`
	// Phases run back to back, starting at cycle 0.
	Phases []Phase `json:"phases"`
}

// Validate checks the scenario for consistency and returns the first problem
// found, phrased so a hand-written JSON file can be fixed from the message
// alone.
func (s *Scenario) Validate() error {
	if s == nil {
		return fmt.Errorf("scenario: nil scenario")
	}
	if len(s.Phases) == 0 {
		return fmt.Errorf("scenario %q: needs at least one phase", s.Name)
	}
	if s.Window <= 0 {
		return fmt.Errorf("scenario %q: window must be a positive cycle count, got %d", s.Name, s.Window)
	}
	for i, p := range s.Phases {
		canonical, ok := traffic.CanonicalPattern(p.Pattern)
		if !ok {
			return fmt.Errorf("scenario %q: phase %d: unknown pattern %q (want uniform, adversarial, bursty-uniform, transpose, bit-reverse, shuffle or group-hotspot)", s.Name, i, p.Pattern)
		}
		if math.IsNaN(p.Load) || math.IsInf(p.Load, 0) {
			return fmt.Errorf("scenario %q: phase %d: load must be finite, got %v", s.Name, i, p.Load)
		}
		if p.Load < 0 || p.Load > 1 {
			return fmt.Errorf("scenario %q: phase %d (%s): load %.3f outside [0,1] phits/node/cycle", s.Name, i, p.Label(), p.Load)
		}
		if p.LoadEnd != nil {
			if math.IsNaN(*p.LoadEnd) || math.IsInf(*p.LoadEnd, 0) {
				return fmt.Errorf("scenario %q: phase %d: load_end must be finite, got %v", s.Name, i, *p.LoadEnd)
			}
			if *p.LoadEnd < 0 || *p.LoadEnd > 1 {
				return fmt.Errorf("scenario %q: phase %d (%s): load_end %.3f outside [0,1] phits/node/cycle", s.Name, i, p.Label(), *p.LoadEnd)
			}
		}
		if p.Cycles <= 0 {
			return fmt.Errorf("scenario %q: phase %d (%s): cycles must be positive, got %d", s.Name, i, p.Label(), p.Cycles)
		}
		if p.Cycles%s.Window != 0 {
			return fmt.Errorf("scenario %q: phase %d (%s): %d cycles is not a multiple of the %d-cycle window (phase boundaries must land on window boundaries)", s.Name, i, p.Label(), p.Cycles, s.Window)
		}
		if p.AvgBurstLength != 0 && p.AvgBurstLength < 1 {
			return fmt.Errorf("scenario %q: phase %d (%s): avg_burst_length must be >= 1 packet, got %g", s.Name, i, p.Label(), p.AvgBurstLength)
		}
		if p.AvgBurstLength != 0 && canonical != traffic.NameBursty {
			return fmt.Errorf("scenario %q: phase %d (%s): avg_burst_length only applies to bursty-uniform phases", s.Name, i, p.Label())
		}
		if p.HotspotFraction != 0 && (p.HotspotFraction < 0 || p.HotspotFraction > 1) {
			return fmt.Errorf("scenario %q: phase %d (%s): hotspot_fraction %.3f outside [0,1]", s.Name, i, p.Label(), p.HotspotFraction)
		}
		if (p.HotspotFraction != 0 || p.HotspotGroup != 0) && canonical != traffic.NameGroupHotspot {
			return fmt.Errorf("scenario %q: phase %d (%s): hotspot parameters only apply to group-hotspot phases", s.Name, i, p.Label())
		}
		if p.HotspotGroup < 0 {
			return fmt.Errorf("scenario %q: phase %d (%s): hotspot_group must be non-negative, got %d", s.Name, i, p.Label(), p.HotspotGroup)
		}
	}
	total := s.TotalCycles()
	if windows := total / s.Window; windows > stats.MaxTimeSeriesWindows {
		return fmt.Errorf("scenario %q: %d cycles at window %d yield %d telemetry windows, above the bound of %d; use a window of at least %d cycles",
			s.Name, total, s.Window, windows, stats.MaxTimeSeriesWindows, (total+stats.MaxTimeSeriesWindows-1)/stats.MaxTimeSeriesWindows)
	}
	return nil
}

// TotalCycles returns the scenario duration: the sum of all phase durations.
func (s *Scenario) TotalCycles() int64 {
	var total int64
	for _, p := range s.Phases {
		total += p.Cycles
	}
	return total
}

// MaxLoad returns the highest per-phase offered load (including ramp
// endpoints), the natural single number to report as the scenario's offered
// load.
func (s *Scenario) MaxLoad() float64 {
	m := 0.0
	for _, p := range s.Phases {
		if p.Load > m {
			m = p.Load
		}
		if p.LoadEnd != nil && *p.LoadEnd > m {
			m = *p.LoadEnd
		}
	}
	return m
}

// Marks returns the phase boundaries as stats marks (one per phase, at its
// first cycle).
func (s *Scenario) Marks() []stats.PhaseMark {
	marks := make([]stats.PhaseMark, len(s.Phases))
	var at int64
	for i, p := range s.Phases {
		marks[i] = stats.PhaseMark{Cycle: at, Label: p.Label()}
		at += p.Cycles
	}
	return marks
}

// TrafficPhases converts the scenario into the traffic layer's phase specs
// (the input of traffic.NewSwitchable).
func (s *Scenario) TrafficPhases() []traffic.PhaseSpec {
	specs := make([]traffic.PhaseSpec, len(s.Phases))
	for i, p := range s.Phases {
		specs[i] = traffic.PhaseSpec{
			Pattern:         p.Pattern,
			Load:            p.Load,
			LoadEnd:         p.LoadEnd,
			Cycles:          p.Cycles,
			AvgBurstLength:  p.AvgBurstLength,
			HotspotFraction: p.HotspotFraction,
			HotspotGroup:    p.HotspotGroup,
		}
	}
	return specs
}

// Describe returns a compact human-readable summary, e.g.
// "un-adv-un: uniform@0.40 x8000 → adversarial@0.40 x8000 (window 500)".
func (s *Scenario) Describe() string {
	var b bytes.Buffer
	if s.Name != "" {
		fmt.Fprintf(&b, "%s: ", s.Name)
	}
	for i, p := range s.Phases {
		if i > 0 {
			b.WriteString(" -> ")
		}
		fmt.Fprintf(&b, "%sx%d", p.Label(), p.Cycles)
	}
	fmt.Fprintf(&b, " (window %d)", s.Window)
	return b.String()
}

// UNToADV builds the canonical transient scenario: uniform traffic, a sudden
// switch to adversarial, and a switch back, all at the same offered load.
// Adaptive routing should re-divert traffic shortly after each switch; the
// measured delay is the adaptation lag (see AdaptationLags).
func UNToADV(load float64, pre, adv, post, window int64) *Scenario {
	return &Scenario{
		Name:   "un-adv-un",
		Window: window,
		Phases: []Phase{
			{Pattern: traffic.NameUniform, Load: load, Cycles: pre},
			{Pattern: traffic.NameAdversarial, Load: load, Cycles: adv},
			{Pattern: traffic.NameUniform, Load: load, Cycles: post},
		},
	}
}
