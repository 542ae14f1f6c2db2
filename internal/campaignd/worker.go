package campaignd

import (
	"fmt"
	"io"
	"log/slog"
	"time"

	"flexvc/internal/campaign"
	"flexvc/internal/obs"
	"flexvc/internal/results"
	"flexvc/internal/sim"
	"flexvc/internal/sweep"
)

// WorkerConfig parameterizes one worker process of a sharded campaign run.
type WorkerConfig struct {
	// SpecPath is the campaign spec JSON to execute (the coordinator writes
	// the submitted spec under <results>/jobs/ and points every worker at
	// the same file, so all workers compile the identical job).
	SpecPath string
	// ResultsDir is the shared results directory the workers shard over.
	ResultsDir string
	// Owner tags this worker's leases and progress events ("w0", "w1", …).
	Owner string
	// Scale, Seeds and Quick override the spec's defaults exactly as
	// the figures CLI flags do; they must be identical across the workers of
	// one run (the coordinator guarantees this).
	Scale string
	Seeds int
	Quick bool
	// SimWorkers bounds this process's simulation concurrency
	// (sim.SetWorkerBudget); 0 keeps the GOMAXPROCS default. Coordinators
	// divide the machine between worker processes through it.
	SimWorkers int
	// LeaseTTL and Poll tune the shard-claim protocol (zero: defaults).
	LeaseTTL time.Duration
	Poll     time.Duration
	// Events receives the worker's NDJSON event stream (nil: no events).
	Events io.Writer
	// MetricsOut, when non-empty, is a file path the worker writes its final
	// obs registry snapshot to (JSON; see obs.WriteSnapshotFile).
	MetricsOut string
	// Logger receives structured diagnostics (nil: silent). Workers log to
	// stderr — stdout is reserved for the NDJSON event stream.
	Logger *slog.Logger
}

// RunWorker executes one worker of a sharded campaign run: it compiles the
// spec, opens the shared store and runs the campaign in claim mode, so this
// process simulates exactly the replications it wins leases for, restores
// everything its peers record, and finishes only when every replication of
// the campaign is on disk. Progress is streamed as NDJSON events; the report
// the run produces is discarded (rendering happens from the export, which
// the coordinator writes once the campaign is complete).
func RunWorker(wc WorkerConfig) error {
	log := logger(wc.Logger).With("worker", wc.Owner)
	spec, err := campaign.Load(wc.SpecPath)
	if err != nil {
		return err
	}
	store, err := results.Open(wc.ResultsDir)
	if err != nil {
		return err
	}
	if wc.SimWorkers > 0 {
		sim.SetWorkerBudget(wc.SimWorkers)
	}
	// Every worker carries a registry: it instruments only wall-clock
	// accounting (never simulated state — see the obs zero-impact contract),
	// and its snapshot rides the event stream up to the coordinator.
	reg := obs.NewRegistry()
	store.SetMetrics(reg)
	var ew *eventWriter
	if wc.Events != nil {
		ew = newEventWriter(wc.Events)
	}
	opts := sweep.Options{
		Scale:   wc.Scale,
		Seeds:   wc.Seeds,
		Quick:   wc.Quick,
		Results: store,
		Metrics: reg,
		Claims: &sweep.ClaimConfig{
			Owner: wc.Owner,
			TTL:   wc.LeaseTTL,
			Poll:  wc.Poll,
		},
	}
	opts.Progress = func(p sweep.Progress) {
		if p.Summary {
			// The per-worker throughput series carries the worker label so
			// it survives the coordinator's max-merge alongside its peers'.
			reg.SetValue(fmt.Sprintf("%s{worker=%q}", MetricWorkerRecordsPerSec, wc.Owner), p.RecordsPerSec)
			log.Info("campaign summary", "campaign", p.Experiment,
				"records", p.Done, "restored", p.Skipped,
				"elapsed", p.Elapsed.Round(time.Millisecond), "records_per_sec", p.RecordsPerSec)
		}
		if ew != nil {
			ew.emit(progressEvent(wc.Owner, p))
		}
	}
	log.Info("worker starting", "campaign", spec.Name, "spec", wc.SpecPath,
		"results", wc.ResultsDir, "sim_workers", wc.SimWorkers)
	if _, err := campaign.Run(spec, opts); err != nil {
		log.Error("campaign run failed", "campaign", spec.Name, "err", err)
		if ew != nil {
			ew.emit(Event{Type: "error", Campaign: spec.Name, Worker: wc.Owner, Error: err.Error()})
		}
		return fmt.Errorf("campaignd worker %s: %w", wc.Owner, err)
	}
	if err := store.Flush(); err != nil {
		return err
	}
	snap := reg.Snapshot()
	if wc.MetricsOut != "" {
		if err := obs.WriteSnapshotFile(reg, wc.MetricsOut); err != nil {
			log.Error("writing metrics snapshot", "path", wc.MetricsOut, "err", err)
			return fmt.Errorf("campaignd worker %s: metrics snapshot: %w", wc.Owner, err)
		}
	}
	if ew != nil {
		ew.emit(Event{Type: "metrics", Campaign: spec.Name, Worker: wc.Owner, Metrics: snap})
		ew.emit(Event{Type: "done", Campaign: spec.Name, Worker: wc.Owner})
	}
	log.Info("worker done", "campaign", spec.Name)
	return nil
}
