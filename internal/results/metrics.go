package results

import (
	"flexvc/internal/obs"
)

// Results-layer metric names (see DESIGN.md "Observability").
const (
	// MetricPutLatency / MetricFlushLatency time the durable checkpoint write
	// (record file + amortized manifest) and the explicit manifest flush.
	MetricPutLatency   = "flexvc_results_put_latency_ns"
	MetricFlushLatency = "flexvc_results_flush_latency_ns"
	// MetricRecords gauges the store's indexed record count (its size).
	MetricRecords = "flexvc_results_records"
)

// storeMetrics carries the store's pre-resolved handles. The zero value is
// the disabled state: nil obs handles no-op, and the latency paths guard with
// a nil check before reading the clock.
type storeMetrics struct {
	putLatency   *obs.Histogram
	flushLatency *obs.Histogram
	records      *obs.Gauge
}

// SetMetrics attaches an observability registry to the store: checkpoint
// Put/Flush latencies and the record-count gauge report into it. A nil
// registry detaches.
// Metrics never influence what the store reads or writes — exports are
// byte-identical with metrics on or off.
func (s *Store) SetMetrics(reg *obs.Registry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if reg == nil {
		s.metrics = storeMetrics{}
		return
	}
	s.metrics = storeMetrics{
		putLatency:   reg.Histogram(MetricPutLatency),
		flushLatency: reg.Histogram(MetricFlushLatency),
		records:      reg.Gauge(MetricRecords),
	}
	s.metrics.records.Set(int64(len(s.recs)))
}
