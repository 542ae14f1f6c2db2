// Package obs is the dependency-free observability layer: a metrics registry
// of atomic counters, gauges and fixed-bucket timing histograms, exported as
// JSON snapshots.
//
// The design contract is that instrumentation must never perturb simulated
// state. Two properties enforce it:
//
//   - A disabled registry is a nil pointer. Every method on Registry, Counter,
//     Gauge and Histogram is nil-receiver-safe, so the hot path guards cost a
//     single pointer comparison and the disabled path allocates nothing.
//   - An enabled registry only *observes*: it holds no simulated state, it is
//     excluded from config fingerprints, checkpoints and exports
//     (config.Config carries it under `json:"-"`), and the sweep tests
//     byte-compare metrics-on vs metrics-off exports to lock the contract.
//
// Metric names follow the Prometheus convention (`flexvc_<layer>_<what>_<unit>`,
// labels baked into the name string, e.g. `flexvc_sim_phase_wall_ns_total{phase="step"}`).
// Names are formatted once at registration, never on the hot path.
package obs

import (
	"encoding/json"
	"io"
	"math/bits"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by d. No-op on a nil receiver.
func (c *Counter) Add(d int64) {
	if c == nil {
		return
	}
	c.v.Add(d)
}

// Inc increments the counter by one. No-op on a nil receiver.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on a nil receiver).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous atomic value.
type Gauge struct{ v atomic.Int64 }

// Set stores v. No-op on a nil receiver.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// SetMax raises the gauge to v if v exceeds the current value (a high-water
// mark). No-op on a nil receiver.
func (g *Gauge) SetMax(v int64) {
	if g == nil {
		return
	}
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Add adjusts the gauge by d (may be negative). No-op on a nil receiver.
func (g *Gauge) Add(d int64) {
	if g == nil {
		return
	}
	g.v.Add(d)
}

// Value returns the current value (0 on a nil receiver).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram bucket layout: the same HDR-style log-linear scheme as
// internal/stats.Histogram, shrunk for nanosecond timings — values below 32
// are exact, every power-of-two octave above is split into 16 linear
// sub-buckets (relative bucket width ≤ 1/16), and the 59 octaves cover the
// full non-negative int64 range with no clamping.
const (
	histSubBits  = 5
	histSubCount = 1 << histSubBits // 32: exact region, one bucket per value
	histHalf     = histSubCount / 2 // sub-buckets per octave above the exact region
	histOctaves  = 58               // covers every positive int64 (bits.Len64 <= 63)
	histBuckets  = histSubCount + histOctaves*histHalf
)

// bucketIndex maps a sample to its bucket.
func bucketIndex(v int64) int {
	if v < 0 {
		v = 0
	}
	if v < histSubCount {
		return int(v)
	}
	shift := bits.Len64(uint64(v)) - histSubBits // 1..58
	return histSubCount + (shift-1)*histHalf + int(v>>uint(shift)) - histHalf
}

// Histogram is a fixed-bucket timing histogram safe for concurrent Observe.
// Samples are int64 (by convention nanoseconds, suffix the name `_ns`).
type Histogram struct {
	counts [histBuckets]atomic.Int64
	count  atomic.Int64
	sum    atomic.Int64
}

// Observe records one sample. No-op on a nil receiver.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	h.counts[bucketIndex(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Since records the nanoseconds elapsed from start. No-op on a nil receiver
// (and then does not even read the clock).
func (h *Histogram) Since(start time.Time) {
	if h == nil {
		return
	}
	h.Observe(time.Since(start).Nanoseconds())
}

// Count returns the number of recorded samples (0 on a nil receiver).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all recorded samples (0 on a nil receiver).
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Registry is a named collection of metrics. The zero value is not usable;
// call NewRegistry. A nil *Registry is the disabled state: every method
// no-ops (returning nil metric handles, which themselves no-op), so callers
// thread one pointer through the stack and never branch on an "enabled" flag.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	values   map[string]float64
}

// NewRegistry returns an empty enabled registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
		values:   map[string]float64{},
	}
}

// Counter returns the named counter, creating it on first use. Returns nil on
// a nil registry (a nil *Counter is itself a no-op).
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. Returns nil on a
// nil registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use. Returns
// nil on a nil registry.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// SetValue records a static derived float value under name (e.g. an
// end-of-run rate the producer computed once); setting a name again replaces
// its value. No-op on a nil registry.
func (r *Registry) SetValue(name string, v float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.values[name] = v
}

// HistogramSnapshot is the serialized form of one histogram: sparse ascending
// (bucket index, count) pairs plus the running count and sum. The bucket
// layout is pinned by SubBits so a reader can tell which layout produced it.
type HistogramSnapshot struct {
	SubBits int        `json:"sub_bits"`
	Count   int64      `json:"count"`
	Sum     int64      `json:"sum"`
	Buckets [][2]int64 `json:"buckets,omitempty"`
}

// Snapshot is a point-in-time copy of a registry, serializable to JSON. Maps
// marshal with sorted keys, so the encoding is deterministic for fixed metric
// values.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]int64             `json:"gauges,omitempty"`
	Values     map[string]float64           `json:"values,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot captures the current value of every metric. Returns an empty
// snapshot on a nil registry.
func (r *Registry) Snapshot() *Snapshot {
	s := &Snapshot{}
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.counters) > 0 {
		s.Counters = make(map[string]int64, len(r.counters))
		for n, c := range r.counters {
			s.Counters[n] = c.Value()
		}
	}
	if len(r.gauges) > 0 {
		s.Gauges = make(map[string]int64, len(r.gauges))
		for n, g := range r.gauges {
			s.Gauges[n] = g.Value()
		}
	}
	if len(r.hists) > 0 {
		s.Histograms = make(map[string]HistogramSnapshot, len(r.hists))
		for n, h := range r.hists {
			hs := HistogramSnapshot{SubBits: histSubBits, Count: h.Count(), Sum: h.Sum()}
			for i := range h.counts {
				if c := h.counts[i].Load(); c != 0 {
					hs.Buckets = append(hs.Buckets, [2]int64{int64(i), c})
				}
			}
			s.Histograms[n] = hs
		}
	}
	if len(r.values) > 0 {
		s.Values = make(map[string]float64, len(r.values))
		for n, v := range r.values {
			s.Values[n] = v
		}
	}
	return s
}

// WriteJSON writes the indented JSON snapshot, the `-metrics-out` file
// format.
func (r *Registry) WriteJSON(w io.Writer) error {
	b, err := json.MarshalIndent(r.Snapshot(), "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(b, '\n'))
	return err
}

// WriteSnapshotFile writes the JSON snapshot to path (0644). A convenience
// for the `-metrics-out` flags; no-op (writing an empty snapshot) is still
// performed on a nil registry so the output file always exists when the flag
// was given.
func WriteSnapshotFile(r *Registry, path string) error {
	b, err := json.MarshalIndent(r.Snapshot(), "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
