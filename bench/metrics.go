package main

// metricDef names one metric of the benchmark. BENCHMARK.json repeats these
// tables for the driver; TestBenchmarkJSONMatchesTables keeps the two equal.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the simulator sees, measured with
// tracing off on every workload. Bound is the share of the parent commit's
// median by which a change may worsen the metric. The time bounds are as wide
// as the same code's own medians were seen to drift apart on the reference
// host (README.md, "Noise"); a tighter bound would reject unchanged code.
var endToEnd = []metricDef{
	{"wall_s", "s", "lower", 0.25},
	{"cpu_s", "s", "lower", 0.25},
	{"peak_rss_mb", "MiB", "lower", 0.10},
	{"alloc_mb", "MiB", "lower", 0.05},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer are the metrics of single layers, taken in the traced run. They
// carry no bound: they explain a movement of an end-to-end metric, they do
// not gate. A metric that does not apply to a workload (sweep.* on a single
// replication) reads 0 there.
var perLayer = []metricDef{
	{Name: "sim.new_s", Unit: "s", Better: "lower"},
	{Name: "sim.ns_per_cycle", Unit: "ns", Better: "lower"},
	{Name: "sim.ns_per_router_cycle", Unit: "ns", Better: "lower"},
	{Name: "sim.ns_per_delivered_packet", Unit: "ns", Better: "lower"},
	{Name: "sim.cpu_per_wall", Unit: "ratio", Better: "lower"},
	{Name: "sim.event_wheel_depth_hwm", Unit: "count", Better: "lower"},
	{Name: "sim.phase.events_ns_per_cycle", Unit: "ns", Better: "lower"},
	{Name: "sim.phase.inject_ns_per_cycle", Unit: "ns", Better: "lower"},
	{Name: "sim.phase.pb_update_ns_per_cycle", Unit: "ns", Better: "lower"},
	{Name: "sim.phase.step_ns_per_cycle", Unit: "ns", Better: "lower"},
	{Name: "sim.phase.flush_ns_per_cycle", Unit: "ns", Better: "lower"},
	{Name: "sim.shard.count", Unit: "count", Better: "higher"},
	{Name: "sim.shard.imbalance", Unit: "ratio", Better: "lower"},
	{Name: "sim.shard.speedup", Unit: "ratio", Better: "higher"},
	{Name: "router.step_busy_ns", Unit: "ns", Better: "lower"},
	{Name: "router.step_idle_ns", Unit: "ns", Better: "lower"},
	{Name: "buffer.static_cycle_ns", Unit: "ns", Better: "lower"},
	{Name: "buffer.damq_cycle_ns", Unit: "ns", Better: "lower"},
	{Name: "packet.alloc_free_ns", Unit: "ns", Better: "lower"},
	{Name: "core.allowed_vcs_ns", Unit: "ns", Better: "lower"},
	{Name: "topology.build_s", Unit: "s", Better: "lower"},
	{Name: "topology.precompute_s", Unit: "s", Better: "lower"},
	{Name: "topology.minimal_port_ns", Unit: "ns", Better: "lower"},
	{Name: "routing.min_route_ns", Unit: "ns", Better: "lower"},
	{Name: "traffic.generate_ns_per_node_cycle", Unit: "ns", Better: "lower"},
	{Name: "stats.delivered_ns", Unit: "ns", Better: "lower"},
	{Name: "stats.summarize_s", Unit: "s", Better: "lower"},
	{Name: "stats.aggregate_s", Unit: "s", Better: "lower"},
	{Name: "results.put_p50_us", Unit: "us", Better: "lower"},
	{Name: "results.put_p90_us", Unit: "us", Better: "lower"},
	{Name: "results.flush_s", Unit: "s", Better: "lower"},
	{Name: "results.open_s", Unit: "s", Better: "lower"},
	{Name: "results.export_s", Unit: "s", Better: "lower"},
	{Name: "results.record_kb", Unit: "KiB", Better: "lower"},
	{Name: "sweep.reps_per_s", Unit: "1/s", Better: "higher"},
	{Name: "sweep.parallelism", Unit: "ratio", Better: "higher"},
	{Name: "sweep.restore_pass_s", Unit: "s", Better: "lower"},
	{Name: "sweep.render_s", Unit: "s", Better: "lower"},
	{Name: "campaign.compile_s", Unit: "s", Better: "lower"},
	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "runtime.gc_cpu_s", Unit: "s", Better: "lower"},
	{Name: "runtime.alloc_objects", Unit: "count", Better: "lower"},
	{Name: "runtime.heap_peak_mb", Unit: "MiB", Better: "lower"},
	{Name: "model.accepted_load", Unit: "phits/node/cyc", Better: "higher"},
	{Name: "model.avg_latency_cycles", Unit: "cycles", Better: "lower"},
	{Name: "model.p99_latency_cycles", Unit: "cycles", Better: "lower"},
	{Name: "model.delivered_packets", Unit: "count", Better: "higher"},
	{Name: "model.minimal_fraction", Unit: "ratio", Better: "higher"},
	{Name: "model.sat_throughput_baseline", Unit: "phits/node/cyc", Better: "higher"},
	{Name: "model.paper_gap_pp", Unit: "pp", Better: "lower"},
	{Name: "host.nproc", Unit: "count", Better: "higher"},
	{Name: "host.calib_ns", Unit: "ns", Better: "lower"},
	{Name: "host.calib_cv", Unit: "ratio", Better: "lower"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
	{Name: "trace.spans", Unit: "count", Better: "lower"},
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects the values of one run, keyed by metric name.
type metricSet map[string]float64

// emit renders the set against a definition table: every defined metric
// appears, one the run did not set reads 0 (not applicable on the workload).
func (m metricSet) emit(defs []metricDef) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		out[d.Name] = metricValue{Value: m[d.Name], Unit: d.Unit}
	}
	return out
}
