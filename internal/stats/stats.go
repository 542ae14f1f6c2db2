// Package stats accumulates the simulation metrics the FlexVC evaluation
// reports: average packet latency, accepted throughput in phits/node/cycle,
// and latency percentiles, restricted to the steady-state measurement window.
package stats

import (
	"fmt"
	"math"
	"sort"

	"flexvc/internal/packet"
)

// Collector accumulates per-run statistics. The simulator records every
// generated, injected and delivered packet; only deliveries inside the
// measurement window contribute to latency and throughput.
type Collector struct {
	nodes int

	measureStart int64
	measureEnd   int64

	generated      int64
	injected       int64
	deliveredTotal int64

	// Measurement-window accumulators. Latency means are kept as exact sums;
	// percentiles come from a fixed-size histogram (see Histogram) so the
	// collector's memory stays constant no matter how long the measurement
	// window runs.
	deliveredPhits  int64
	deliveredPkts   int64
	latencySum      float64
	netLatencySum   float64
	latencyHist     Histogram
	byClass         [packet.NumClasses]int64
	minRouted       int64
	nonminRouted    int64
	hopSum          int64
	maxLatency      int64
	lastDeliveredAt int64

	// series, when non-nil, additionally buckets deliveries into fixed
	// windows of simulated cycles (transient telemetry; see EnableTimeSeries).
	series *TimeSeries
}

// NewCollector builds a collector for a network with the given node count and
// measurement window [measureStart, measureEnd).
func NewCollector(nodes int, measureStart, measureEnd int64) *Collector {
	return &Collector{nodes: nodes, measureStart: measureStart, measureEnd: measureEnd}
}

// MeasureWindow returns the measurement window.
func (c *Collector) MeasureWindow() (int64, int64) { return c.measureStart, c.measureEnd }

// EnableTimeSeries turns on windowed transient telemetry: deliveries inside
// the measurement window are additionally bucketed into windows of `window`
// cycles covering [0, total), annotated with the given phase marks. The
// resulting series is attached to the run summary (Result.Series).
func (c *Collector) EnableTimeSeries(window, total int64, marks []PhaseMark) error {
	ts, err := NewTimeSeries(window, total, c.nodes, marks)
	if err != nil {
		return err
	}
	c.series = ts
	return nil
}

// Generated records a request generated by a source. The simulator records
// it when the request's NIC takes it from the source, so past saturation the
// count trails what the sources have offered.
func (c *Collector) Generated() { c.generated++ }

// Injected records a packet entering its source router.
func (c *Collector) Injected() { c.injected++ }

// Delivered records a packet consumed at its destination at the given cycle.
// The packet is still live in the store when Delivered runs; the collector
// reads everything it needs before the simulator frees or recycles the slot.
func (c *Collector) Delivered(s *packet.Store, ref packet.Ref, now int64) {
	c.deliveredTotal++
	c.lastDeliveredAt = now
	if now < c.measureStart || now >= c.measureEnd {
		return
	}
	hdr := s.Hdr(ref)
	rt := s.Route(ref)
	c.deliveredPhits += int64(hdr.Size)
	c.deliveredPkts++
	lat := s.Latency(ref)
	c.latencySum += float64(lat)
	c.netLatencySum += float64(s.NetworkLatency(ref))
	c.latencyHist.Record(lat)
	c.byClass[hdr.Class]++
	if rt.Kind == packet.Minimal {
		c.minRouted++
	} else {
		c.nonminRouted++
	}
	c.hopSum += int64(rt.Hops)
	if lat > c.maxLatency {
		c.maxLatency = lat
	}
	if c.series != nil {
		c.series.Record(now, int(hdr.Size), rt.Kind == packet.Minimal, lat)
	}
}

// LastDeliveryCycle returns the cycle of the most recent delivery (any
// window), used by the deadlock watchdog.
func (c *Collector) LastDeliveryCycle() int64 { return c.lastDeliveredAt }

// TotalDelivered returns the number of packets delivered since the start of
// the simulation (any window).
func (c *Collector) TotalDelivered() int64 { return c.deliveredTotal }

// TotalGenerated returns the number of requests recorded by Generated since
// the start.
func (c *Collector) TotalGenerated() int64 { return c.generated }

// Result is the summary of one simulation run. The JSON tags define the
// stable wire format of the results pipeline (internal/results); renaming a
// tag is a schema change and must bump results.SchemaVersion.
type Result struct {
	// OfferedLoad is the configured load in phits/node/cycle.
	OfferedLoad float64 `json:"offered_load"`
	// AcceptedLoad is the measured throughput in phits/node/cycle.
	AcceptedLoad float64 `json:"accepted_load"`
	// AvgLatency and AvgNetLatency are the mean end-to-end and
	// network-only packet latencies in cycles.
	AvgLatency    float64 `json:"avg_latency"`
	AvgNetLatency float64 `json:"avg_net_latency"`
	// P50, P95, P99 are latency percentiles in cycles, recovered from a
	// fixed-size histogram: they carry at most PercentileErrorBound relative
	// error against the exact-sample percentiles (latencies below 128 cycles
	// are exact).
	P50 float64 `json:"p50"`
	P95 float64 `json:"p95"`
	P99 float64 `json:"p99"`
	// MaxLatency is the worst delivered-packet latency in cycles.
	MaxLatency int64 `json:"max_latency"`
	// DeliveredPackets is the number of packets delivered in the window.
	DeliveredPackets int64 `json:"delivered_packets"`
	// AvgHops is the mean hop count of delivered packets.
	AvgHops float64 `json:"avg_hops"`
	// MinimalFraction is the fraction of delivered packets routed
	// minimally.
	MinimalFraction float64 `json:"minimal_fraction"`
	// RequestPackets and ReplyPackets split deliveries by message class.
	RequestPackets int64 `json:"request_packets"`
	ReplyPackets   int64 `json:"reply_packets"`
	// Deadlock is true when the watchdog aborted the run.
	Deadlock bool `json:"deadlock"`
	// SimulatedCycles is the number of cycles actually simulated.
	SimulatedCycles int64 `json:"simulated_cycles"`
	// Hist is the full latency histogram of the measurement window (nil on
	// legacy results). Serializing it with the run lets percentiles of any
	// aggregate be recovered offline, within PercentileErrorBound, without
	// re-simulating.
	Hist *Histogram `json:"latency_hist,omitempty"`
	// Series is the windowed transient telemetry of scenario-driven runs
	// (nil for steady-state runs and legacy results; added in results schema
	// v2). See Collector.EnableTimeSeries.
	Series *TimeSeries `json:"time_series,omitempty"`
}

// Summarize computes the run summary. offered is the configured load.
func (c *Collector) Summarize(offered float64, simulated int64, deadlock bool) Result {
	res := Result{
		OfferedLoad:      offered,
		DeliveredPackets: c.deliveredPkts,
		MaxLatency:       c.maxLatency,
		Deadlock:         deadlock,
		SimulatedCycles:  simulated,
		RequestPackets:   c.byClass[packet.Request],
		ReplyPackets:     c.byClass[packet.Reply],
	}
	window := float64(c.measureEnd - c.measureStart)
	if window > 0 && c.nodes > 0 {
		res.AcceptedLoad = float64(c.deliveredPhits) / (window * float64(c.nodes))
	}
	if c.deliveredPkts > 0 {
		res.AvgLatency = c.latencySum / float64(c.deliveredPkts)
		res.AvgNetLatency = c.netLatencySum / float64(c.deliveredPkts)
		res.AvgHops = float64(c.hopSum) / float64(c.deliveredPkts)
		res.MinimalFraction = float64(c.minRouted) / float64(c.deliveredPkts)
		res.P50 = c.latencyHist.Quantile(0.50)
		res.P95 = c.latencyHist.Quantile(0.95)
		res.P99 = c.latencyHist.Quantile(0.99)
	}
	res.Hist = c.latencyHist.Clone()
	res.Series = c.series.Clone()
	return res
}

// percentile computes the exact p-quantile of samples (p in [0,1]); it sorts
// a copy. It is the reference the histogram's accuracy tests compare against
// and serves callers that hold explicit sample sets.
func percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := make([]float64, len(samples))
	copy(s, samples)
	sort.Float64s(s)
	idx := p * float64(len(s)-1)
	lo := int(math.Floor(idx))
	hi := int(math.Ceil(idx))
	if lo == hi {
		return s[lo]
	}
	frac := idx - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// String implements fmt.Stringer.
func (r Result) String() string {
	state := ""
	if r.Deadlock {
		state = " DEADLOCK"
	}
	return fmt.Sprintf("offered=%.3f accepted=%.3f latency=%.1f (p99=%.1f) pkts=%d min%%=%.0f%s",
		r.OfferedLoad, r.AcceptedLoad, r.AvgLatency, r.P99, r.DeliveredPackets, 100*r.MinimalFraction, state)
}

// Aggregate averages several independent runs of the same configuration (the
// paper averages 5 seeds). Deadlock in any run marks the aggregate as
// deadlocked.
func Aggregate(results []Result) Result {
	if len(results) == 0 {
		return Result{}
	}
	agg := Result{OfferedLoad: results[0].OfferedLoad}
	n := float64(len(results))
	seriesMismatch := false
	for _, r := range results {
		agg.AcceptedLoad += r.AcceptedLoad / n
		agg.AvgLatency += r.AvgLatency / n
		agg.AvgNetLatency += r.AvgNetLatency / n
		agg.P50 += r.P50 / n
		agg.P95 += r.P95 / n
		agg.P99 += r.P99 / n
		agg.AvgHops += r.AvgHops / n
		agg.MinimalFraction += r.MinimalFraction / n
		agg.DeliveredPackets += r.DeliveredPackets
		agg.RequestPackets += r.RequestPackets
		agg.ReplyPackets += r.ReplyPackets
		agg.SimulatedCycles += r.SimulatedCycles
		if r.MaxLatency > agg.MaxLatency {
			agg.MaxLatency = r.MaxLatency
		}
		if r.Deadlock {
			agg.Deadlock = true
		}
		if r.Hist != nil {
			if agg.Hist == nil {
				agg.Hist = &Histogram{}
			}
			agg.Hist.Merge(r.Hist)
		}
		if r.Series != nil && !seriesMismatch {
			if agg.Series == nil {
				agg.Series = r.Series.Clone()
			} else if err := agg.Series.Merge(r.Series); err != nil {
				// Replications of one configuration always share a windowing;
				// a mismatch means the inputs mix different scenarios, where
				// no aggregate series is meaningful.
				agg.Series = nil
				seriesMismatch = true
			}
		}
	}
	return agg
}
