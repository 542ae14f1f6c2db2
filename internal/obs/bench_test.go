package obs

import (
	"testing"
	"time"
)

// The whole point of the nil-registry design is that instrumented hot paths
// cost one pointer compare and zero allocations when metrics are off. The
// benchmarks time those paths, disabled and enabled; TestObsAllocs pins every
// one of them at zero allocations, so a refactor that regresses it fails
// `go test`.

func BenchmarkObsCounterDisabled(b *testing.B) {
	var r *Registry
	c := r.Counter("c_total")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
}

func BenchmarkObsHistogramDisabled(b *testing.B) {
	var r *Registry
	h := r.Histogram("h_ns")
	var start time.Time // nil Since must not even read the clock
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Since(start)
	}
}

func BenchmarkObsCounterEnabled(b *testing.B) {
	c := NewRegistry().Counter("c_total")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
}

func BenchmarkObsHistogramEnabled(b *testing.B) {
	h := NewRegistry().Histogram("h_ns")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(int64(i))
	}
}

func BenchmarkObsGaugeSetMaxEnabled(b *testing.B) {
	g := NewRegistry().Gauge("hwm")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.SetMax(int64(i & 1023))
	}
}

// TestObsAllocs pins the five benchmarked paths at zero allocations per call.
func TestObsAllocs(t *testing.T) {
	var off *Registry
	on := NewRegistry()
	cOff, hOff := off.Counter("c_total"), off.Histogram("h_ns")
	cOn, hOn, g := on.Counter("c_total"), on.Histogram("h_ns"), on.Gauge("hwm")
	var start time.Time
	i := int64(0)
	for _, p := range []struct {
		name string
		op   func()
	}{
		{"CounterDisabled", func() { cOff.Add(1) }},
		{"HistogramDisabled", func() { hOff.Since(start) }},
		{"CounterEnabled", func() { cOn.Add(1) }},
		{"HistogramEnabled", func() { hOn.Observe(i); i++ }},
		{"GaugeSetMaxEnabled", func() { g.SetMax(i & 1023); i++ }},
	} {
		if allocs := testing.AllocsPerRun(1000, p.op); allocs != 0 {
			t.Errorf("%s: %v allocations per call, want 0", p.name, allocs)
		}
	}
}
