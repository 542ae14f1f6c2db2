package stats

import (
	"fmt"
	"math"
)

// MaxTimeSeriesWindows bounds the number of windows a time series may hold,
// so the collector's memory stays bounded no matter how long a scenario runs
// (the steady-state collector has the same property via the fixed-size
// histogram). Spec layers (internal/scenario) validate window sizing against
// this bound before a simulation is assembled.
const MaxTimeSeriesWindows = 4096

// PhaseMark annotates the cycle at which the workload changed (a scenario
// phase boundary). Marks ride with the series into the results files so
// transient analysis — adaptation lag after a traffic shift — can be redone
// offline without access to the scenario definition.
type PhaseMark struct {
	// Cycle is the first cycle of the phase.
	Cycle int64 `json:"cycle"`
	// Label names the phase (e.g. "adv@0.40").
	Label string `json:"label"`
}

// TimeSeries is a bounded windowed view of a run: deliveries are bucketed
// into fixed-width windows of simulated cycles, accumulating exact sums from
// which per-window throughput, mean latency and minimal-routed fraction are
// derived. Sums (not means) are stored so merging the series of independent
// replications is exact, mirroring Histogram.Merge.
//
// The JSON encoding is deterministic (plain arrays in window order), which
// the results pipeline relies on for bit-identical resumed sweeps.
type TimeSeries struct {
	// Window is the window width in cycles.
	Window int64 `json:"window"`
	// Nodes is the simulated node count (throughput normalization).
	Nodes int `json:"nodes"`
	// Runs counts the merged replications; derived per-window throughput
	// divides by it so a merged series reads as a per-replication average.
	Runs int `json:"runs"`
	// Phits, Packets, LatencySum and MinRouted accumulate per window over
	// deliveries: phits delivered, packets delivered, summed end-to-end
	// latency and minimally-routed packet count.
	Phits      []int64   `json:"phits"`
	Packets    []int64   `json:"packets"`
	LatencySum []float64 `json:"latency_sum"`
	MinRouted  []int64   `json:"min_routed"`
	// Marks are the workload phase boundaries, ascending by cycle.
	Marks []PhaseMark `json:"marks,omitempty"`
}

// NewTimeSeries builds an empty series covering [0, total) cycles. It
// enforces the MaxTimeSeriesWindows bound and rejects windows that do not
// divide the total (ragged final windows would skew the derived throughput).
func NewTimeSeries(window, total int64, nodes int, marks []PhaseMark) (*TimeSeries, error) {
	if window <= 0 {
		return nil, fmt.Errorf("stats: time-series window must be positive, got %d", window)
	}
	if total <= 0 || total%window != 0 {
		return nil, fmt.Errorf("stats: time-series span %d is not a positive multiple of window %d", total, window)
	}
	n := total / window
	if n > MaxTimeSeriesWindows {
		return nil, fmt.Errorf("stats: %d windows of %d cycles exceed the bound of %d; use a window of at least %d cycles",
			n, window, MaxTimeSeriesWindows, (total+MaxTimeSeriesWindows-1)/MaxTimeSeriesWindows)
	}
	return &TimeSeries{
		Window:     window,
		Nodes:      nodes,
		Runs:       1,
		Phits:      make([]int64, n),
		Packets:    make([]int64, n),
		LatencySum: make([]float64, n),
		MinRouted:  make([]int64, n),
		Marks:      append([]PhaseMark(nil), marks...),
	}, nil
}

// Windows returns the number of windows.
func (t *TimeSeries) Windows() int { return len(t.Packets) }

// WindowStart returns the first cycle of window i.
func (t *TimeSeries) WindowStart(i int) int64 { return int64(i) * t.Window }

// Record accumulates one delivery at cycle `now`. Deliveries past the end of
// the covered span clamp into the last window (they can only come from a
// caller running longer than the series was sized for).
func (t *TimeSeries) Record(now int64, phits int, minimal bool, latency int64) {
	i := int(now / t.Window)
	if i < 0 {
		i = 0
	}
	if i >= len(t.Packets) {
		i = len(t.Packets) - 1
	}
	t.Phits[i] += int64(phits)
	t.Packets[i]++
	t.LatencySum[i] += float64(latency)
	if minimal {
		t.MinRouted[i]++
	}
}

// Accepted returns the per-replication throughput of window i in
// phits/node/cycle.
func (t *TimeSeries) Accepted(i int) float64 {
	return float64(t.Phits[i]) / (float64(t.Window) * float64(t.Nodes) * float64(t.Runs))
}

// MeanLatency returns the mean delivered-packet latency of window i in
// cycles, or NaN when the window delivered nothing.
func (t *TimeSeries) MeanLatency(i int) float64 {
	if t.Packets[i] == 0 {
		return math.NaN()
	}
	return t.LatencySum[i] / float64(t.Packets[i])
}

// MinimalFraction returns the minimally-routed fraction of window i, or NaN
// when the window delivered nothing.
func (t *TimeSeries) MinimalFraction(i int) float64 {
	if t.Packets[i] == 0 {
		return math.NaN()
	}
	return float64(t.MinRouted[i]) / float64(t.Packets[i])
}

// Validate checks a deserialized series for structural consistency (ragged
// arrays, nonsensical window geometry, unordered marks), so corrupt results
// records are rejected at load time instead of panicking during rendering or
// aggregation — the same contract Histogram enforces in its UnmarshalJSON.
func (t *TimeSeries) Validate() error {
	if t.Window <= 0 || t.Nodes <= 0 || t.Runs < 1 {
		return fmt.Errorf("stats: time series has invalid geometry (window %d, nodes %d, runs %d)", t.Window, t.Nodes, t.Runs)
	}
	n := len(t.Packets)
	if n == 0 || len(t.Phits) != n || len(t.LatencySum) != n || len(t.MinRouted) != n {
		return fmt.Errorf("stats: time series arrays are ragged (phits %d, packets %d, latency %d, min-routed %d)",
			len(t.Phits), n, len(t.LatencySum), len(t.MinRouted))
	}
	span := t.Window * int64(n)
	prev := int64(-1)
	for i, m := range t.Marks {
		if m.Cycle <= prev || m.Cycle >= span {
			return fmt.Errorf("stats: time series mark %d at cycle %d is out of order or outside [0,%d)", i, m.Cycle, span)
		}
		prev = m.Cycle
	}
	return nil
}

// Clone returns an independent copy of the series.
func (t *TimeSeries) Clone() *TimeSeries {
	if t == nil {
		return nil
	}
	c := *t
	c.Phits = append([]int64(nil), t.Phits...)
	c.Packets = append([]int64(nil), t.Packets...)
	c.LatencySum = append([]float64(nil), t.LatencySum...)
	c.MinRouted = append([]int64(nil), t.MinRouted...)
	c.Marks = append([]PhaseMark(nil), t.Marks...)
	return &c
}

// Merge adds every window of o into t and bumps Runs, exactly pooling the
// samples of independent replications of the same scenario. It fails when the
// two series do not describe the same windowing (different scenario, node
// count or phase marks).
func (t *TimeSeries) Merge(o *TimeSeries) error {
	if o == nil {
		return nil
	}
	if t.Window != o.Window || t.Nodes != o.Nodes || len(t.Packets) != len(o.Packets) {
		return fmt.Errorf("stats: merging mismatched time series (window %d/%d, nodes %d/%d, windows %d/%d)",
			t.Window, o.Window, t.Nodes, o.Nodes, len(t.Packets), len(o.Packets))
	}
	if len(t.Marks) != len(o.Marks) {
		return fmt.Errorf("stats: merging time series with %d vs %d phase marks", len(t.Marks), len(o.Marks))
	}
	for i, m := range t.Marks {
		if m != o.Marks[i] {
			return fmt.Errorf("stats: merging time series with diverging phase mark %d (%+v vs %+v)", i, m, o.Marks[i])
		}
	}
	for i := range t.Packets {
		t.Phits[i] += o.Phits[i]
		t.Packets[i] += o.Packets[i]
		t.LatencySum[i] += o.LatencySum[i]
		t.MinRouted[i] += o.MinRouted[i]
	}
	t.Runs += o.Runs
	return nil
}
