package campaignd

import "log/slog"

// Metric names the campaign service registers (see internal/obs and the
// DESIGN.md "Observability" section for the full inventory). Lease-protocol
// and checkpoint series (flexvc_results_*, flexvc_sweep_*) are produced by
// the layers below and flow up into the same registry: workers snapshot their
// whole registry into a terminal "metrics" event, and the coordinator merges
// those snapshots so `campaignd run -metrics-out` writes the pooled totals.
const (
	// MetricWorkerRecordsPerSec is a per-worker static value (labeled
	// worker="w0"…) holding the worker's end-of-run fresh-simulation
	// throughput, taken from its summary progress event. Static values
	// survive obs.Registry.Merge, so each worker's rate remains visible
	// after coordinator aggregation.
	MetricWorkerRecordsPerSec = "flexvc_campaignd_worker_records_per_sec"
	// MetricWorkersSpawned counts worker processes the coordinator started.
	MetricWorkersSpawned = "flexvc_campaignd_workers_spawned_total"
	// MetricWorkersKilled counts chaos-hook SIGKILLs (KillAfterRecords).
	MetricWorkersKilled = "flexvc_campaignd_workers_killed_total"
	// MetricWorkerFailures counts workers that exited with an error the
	// coordinator did not cause itself.
	MetricWorkerFailures = "flexvc_campaignd_worker_failures_total"
)

// logger returns l, or a discard logger when nil, so the package's layers can
// log unconditionally while keeping structured logging strictly opt-in (the
// zero WorkerConfig/Coordinator stays silent).
func logger(l *slog.Logger) *slog.Logger {
	if l == nil {
		return slog.New(slog.DiscardHandler)
	}
	return l
}
