package scenario

import (
	"encoding/json"
	"math"
	"strings"
	"testing"

	"flexvc/internal/stats"
	"flexvc/internal/traffic"
)

func valid() *Scenario {
	return UNToADV(0.4, 2000, 3000, 2000, 500)
}

func ptr(v float64) *float64 { return &v }

// TestLoadRampPhases checks the ramp-specific surface of the scenario layer:
// labels, MaxLoad over ramp endpoints, JSON round-trip of load_end and the
// pass-through into traffic.PhaseSpec.
func TestLoadRampPhases(t *testing.T) {
	s := &Scenario{
		Name:   "ramp-up",
		Window: 500,
		Phases: []Phase{
			{Pattern: "uniform", Load: 0.1, Cycles: 2000},
			{Pattern: "uniform", Load: 0.1, LoadEnd: ptr(0.7), Cycles: 4000},
		},
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := s.MaxLoad(); got != 0.7 {
		t.Errorf("MaxLoad = %v, want the ramp endpoint 0.7", got)
	}
	if l := s.Phases[1].Label(); !strings.Contains(l, "0.10") || !strings.Contains(l, "0.70") {
		t.Errorf("ramp label %q should show both endpoints", l)
	}
	phases := s.TrafficPhases()
	if phases[1].LoadEnd == nil || *phases[1].LoadEnd != 0.7 {
		t.Errorf("traffic phase 1 LoadEnd = %v, want 0.7", phases[1].LoadEnd)
	}
	if phases[0].LoadEnd != nil {
		t.Errorf("constant phase leaked a LoadEnd: %v", *phases[0].LoadEnd)
	}

	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"load_end":0.7`) {
		t.Errorf("marshalled scenario should carry load_end: %s", b)
	}
	var back Scenario
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.Phases[1].LoadEnd == nil || *back.Phases[1].LoadEnd != 0.7 {
		t.Errorf("parsed ramp lost load_end: %+v", back.Phases[1])
	}
}

func TestValidScenario(t *testing.T) {
	s := valid()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.TotalCycles() != 7000 {
		t.Errorf("TotalCycles = %d, want 7000", s.TotalCycles())
	}
	if s.MaxLoad() != 0.4 {
		t.Errorf("MaxLoad = %v, want 0.4", s.MaxLoad())
	}
	marks := s.Marks()
	if len(marks) != 3 || marks[1].Cycle != 2000 || marks[2].Cycle != 5000 {
		t.Errorf("marks = %+v", marks)
	}
	if !strings.Contains(marks[1].Label, "adversarial") {
		t.Errorf("mark label %q should name the pattern", marks[1].Label)
	}
	phases := s.TrafficPhases()
	if len(phases) != 3 || phases[1].Pattern != traffic.NameAdversarial || phases[1].Cycles != 3000 {
		t.Errorf("traffic phases = %+v", phases)
	}
	if d := s.Describe(); !strings.Contains(d, "un-adv-un") || !strings.Contains(d, "window 500") {
		t.Errorf("Describe() = %q", d)
	}
}

// TestValidationMessages checks that every malformed spec is rejected with a
// message naming the offending phase and constraint.
func TestValidationMessages(t *testing.T) {
	mod := func(f func(*Scenario)) *Scenario {
		s := valid()
		f(s)
		return s
	}
	cases := []struct {
		name string
		s    *Scenario
		want []string
	}{
		{"no phases", mod(func(s *Scenario) { s.Phases = nil }), []string{"at least one phase"}},
		{"zero window", mod(func(s *Scenario) { s.Window = 0 }), []string{"window"}},
		{"unknown pattern", mod(func(s *Scenario) { s.Phases[1].Pattern = "adversarial2" }), []string{"phase 1", "unknown pattern", "adversarial2"}},
		{"bad load", mod(func(s *Scenario) { s.Phases[0].Load = 1.2 }), []string{"phase 0", "load", "[0,1]"}},
		{"zero cycles", mod(func(s *Scenario) { s.Phases[2].Cycles = 0 }), []string{"phase 2", "cycles"}},
		{"ragged window", mod(func(s *Scenario) { s.Phases[0].Cycles = 2300 }), []string{"phase 0", "multiple of the 500-cycle window"}},
		{"short burst", mod(func(s *Scenario) {
			s.Phases[0].Pattern = "bursty-un"
			s.Phases[0].AvgBurstLength = 0.3
		}), []string{"avg_burst_length"}},
		{"burst on non-bursty", mod(func(s *Scenario) { s.Phases[0].AvgBurstLength = 5 }), []string{"only applies to bursty"}},
		{"hotspot params elsewhere", mod(func(s *Scenario) { s.Phases[0].HotspotFraction = 0.5 }), []string{"group-hotspot"}},
		{"bad hotspot fraction", mod(func(s *Scenario) {
			s.Phases[0].Pattern = "group-hotspot"
			s.Phases[0].HotspotFraction = -0.5
		}), []string{"hotspot_fraction"}},
		{"too many windows", mod(func(s *Scenario) { s.Window = 500; s.Phases[0].Cycles = 500 * (stats.MaxTimeSeriesWindows + 5) }), []string{"window of at least"}},
		{"non-finite load", mod(func(s *Scenario) { s.Phases[0].Load = math.NaN() }), []string{"phase 0", "load must be finite"}},
		{"infinite load", mod(func(s *Scenario) { s.Phases[1].Load = math.Inf(1) }), []string{"phase 1", "load must be finite"}},
		{"non-finite load_end", mod(func(s *Scenario) { s.Phases[0].LoadEnd = ptr(math.NaN()) }), []string{"phase 0", "load_end must be finite"}},
		{"infinite load_end", mod(func(s *Scenario) { s.Phases[2].LoadEnd = ptr(math.Inf(-1)) }), []string{"phase 2", "load_end must be finite"}},
		{"load_end out of range", mod(func(s *Scenario) { s.Phases[0].LoadEnd = ptr(1.3) }), []string{"phase 0", "load_end", "[0,1]"}},
	}
	for _, tc := range cases {
		err := tc.s.Validate()
		if err == nil {
			t.Errorf("%s: validated", tc.name)
			continue
		}
		for _, w := range tc.want {
			if !strings.Contains(err.Error(), w) {
				t.Errorf("%s: error %q should mention %q", tc.name, err, w)
			}
		}
	}
}

// TestJSONRoundTrip pins the wire format: marshal -> unmarshal -> marshal is
// stable, so scenarios embedded in config fingerprints are deterministic.
func TestJSONRoundTrip(t *testing.T) {
	s := valid()
	b1, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var back Scenario
	if err := json.Unmarshal(b1, &back); err != nil {
		t.Fatal(err)
	}
	if err := back.Validate(); err != nil {
		t.Fatal(err)
	}
	b2, err := json.Marshal(&back)
	if err != nil {
		t.Fatal(err)
	}
	if string(b1) != string(b2) {
		t.Errorf("round trip not stable:\n%s\n%s", b1, b2)
	}
}

// synthSeries builds a series with a prescribed per-window minimal fraction.
func synthSeries(t *testing.T, window int64, marks []stats.PhaseMark, minFrac []float64) *stats.TimeSeries {
	t.Helper()
	ts, err := stats.NewTimeSeries(window, window*int64(len(minFrac)), 4, marks)
	if err != nil {
		t.Fatal(err)
	}
	const per = 1000
	for w, f := range minFrac {
		if f < 0 { // empty window
			continue
		}
		now := int64(w) * window
		minimal := int(f * per)
		for i := 0; i < per; i++ {
			ts.Record(now, 8, i < minimal, 100)
		}
	}
	return ts
}

func TestAdaptationLags(t *testing.T) {
	window := int64(100)
	marks := []stats.PhaseMark{{Cycle: 0, Label: "un"}, {Cycle: 500, Label: "adv"}, {Cycle: 1000, Label: "un"}}
	// Phase 1 (windows 0-4): settled high. Phase 2 (5-9): drops to ~0.1
	// with the midpoint crossed in window 7. Phase 3 (10-13): returns to
	// ~1.0, crossing immediately.
	frac := []float64{1, 1, 1, 1, 1 /**/, 0.9, 0.8, 0.3, 0.1, 0.1 /**/, 0.95, 1, 1, 1}
	ts := synthSeries(t, window, marks, frac)
	lags := AdaptationLags(ts)
	if len(lags) != 2 {
		t.Fatalf("got %d lags, want 2", len(lags))
	}
	l := lags[0]
	if !l.Shifted || !l.Crossed || l.At != 500 {
		t.Fatalf("first switch: %+v", l)
	}
	// Settled pre = 1.0 (windows 2-4), post = 0.1 (windows 7-9 -> (0.3+0.1+0.1)/3=0.1667),
	// midpoint ~0.58: first crossing is window 7 -> lag = 800-500 = 300.
	if l.Cycles != 300 {
		t.Errorf("first lag = %d cycles, want 300 (pre %.2f post %.2f)", l.Cycles, l.Pre, l.Post)
	}
	if lags[1].Cycles != 100 || !lags[1].Shifted {
		t.Errorf("second lag = %+v, want immediate 100-cycle crossing", lags[1])
	}

	// A flat series never shifts.
	flat := synthSeries(t, window, marks, []float64{1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1})
	for _, l := range AdaptationLags(flat) {
		if l.Shifted || l.Cycles != 0 {
			t.Errorf("flat series reported a shift: %+v", l)
		}
	}

	if AdaptationLags(nil) != nil {
		t.Error("nil series should yield no lags")
	}
	noMarks := synthSeries(t, window, nil, []float64{1, 1})
	if AdaptationLags(noMarks) != nil {
		t.Error("mark-less series should yield no lags")
	}
}
