package sim

import (
	"fmt"
	"sync"
	"time"

	"flexvc/internal/config"
	"flexvc/internal/stats"
)

// Run simulates warm-up plus measurement cycles (or until the deadlock
// watchdog fires) and returns the run summary.
func (n *Network) Run() stats.Result {
	total := n.cfg.WarmupCycles + n.cfg.MeasureCycles
	if n.cfg.Scenario != nil {
		total = n.cfg.Scenario.TotalCycles()
	}
	if n.cfg.MaxCycles > 0 && n.cfg.MaxCycles < total {
		total = n.cfg.MaxCycles
	}
	for n.now < total {
		n.Step()
		if n.watchdog() {
			break
		}
	}
	return n.collector.Summarize(n.cfg.Load, n.now, n.deadlock)
}

// RunCycles advances the simulation by exactly `cycles` cycles (useful for
// tests that inspect intermediate state).
func (n *Network) RunCycles(cycles int64) {
	for i := int64(0); i < cycles; i++ {
		n.Step()
	}
}

// watchdog flags a deadlock when packets are in flight but none has been
// delivered for the configured window. It returns true when the run should be
// aborted.
func (n *Network) watchdog() bool {
	if n.cfg.DeadlockCycles <= 0 || n.inFlight == 0 {
		return false
	}
	last := n.collector.LastDeliveryCycle()
	if n.collector.TotalDelivered() == 0 {
		last = 0
	}
	if n.now-last > n.cfg.DeadlockCycles {
		n.deadlock = true
		return true
	}
	return false
}

// RunOne builds a network for cfg, runs it and returns its summary. With a
// metrics registry attached it also accounts the replication (count + wall
// histogram) — this is the single funnel every execution path (RunReplication,
// RunAveraged, tests) goes through. The network's recyclable memory comes from
// the scratch pool and is recycled when the run finishes if a hold is open
// (see HoldScratch): the summary is a deep copy, so nothing it holds aliases
// the recycled memory.
func RunOne(cfg config.Config) (stats.Result, error) {
	sc := acquireScratch()
	n, err := newNetwork(cfg, sc)
	if err != nil {
		sc.reclaim()
		return stats.Result{}, err
	}
	start := time.Now()
	r := n.Run()
	// Nil-safe handles: without a registry these are no-ops.
	cfg.Metrics.Histogram(MetricReplicationWall).Since(start)
	cfg.Metrics.Counter(MetricReplications).Inc()
	n.publishWork()
	sc.reclaim()
	return r, nil
}

// ReplicationSeed derives the PRNG seed of replication s from the base
// configuration seed. Every replication owns its configuration, network and
// PRNG streams, so replications are independent of each other and of the
// order (or concurrency) in which they execute. It is exported so the
// checkpointed sweep runner (internal/sweep + internal/results) can run and
// record single replications that are bit-identical to RunAveraged's.
func ReplicationSeed(base int64, s int) int64 { return base + int64(s)*7919 }

// RunReplication runs replication s of cfg — deriving its seed with
// ReplicationSeed — on the process-wide worker budget, and returns its
// summary together with the wall-clock time spent simulating (measured after
// the worker token is acquired, so queueing for a busy budget is excluded).
// RunAveraged(cfg, n) is exactly the aggregation of
// RunReplication(cfg, 0..n-1) in replication order.
func RunReplication(cfg config.Config, s int) (stats.Result, time.Duration, error) {
	release := acquireWorker()
	defer release()
	c := cfg
	c.Seed = ReplicationSeed(cfg.Seed, s)
	start := time.Now()
	r, err := RunOne(c)
	return r, time.Since(start), err
}

// RunAveraged runs `seeds` independent replications (the paper averages 5)
// and returns the aggregated result together with the individual runs, in
// replication order.
//
// Each replication is one RunReplication, all of them concurrent on the
// process-wide worker budget (see SetWorkerBudget). Each replication is fully
// self-contained and results are aggregated in replication order, so the
// output is bit-identical to running the same replications sequentially. The
// replications share one scratch hold, so each recycles the memory of the
// ones before it.
func RunAveraged(cfg config.Config, seeds int) (stats.Result, []stats.Result, error) {
	if seeds < 1 {
		return stats.Result{}, nil, fmt.Errorf("sim: need at least one replication")
	}
	defer HoldScratch()()
	results := make([]stats.Result, seeds)
	errs := make([]error, seeds)
	var wg sync.WaitGroup
	for s := 0; s < seeds; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			results[s], _, errs[s] = RunReplication(cfg, s)
		}(s)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return stats.Result{}, nil, err
		}
	}
	return stats.Aggregate(results), results, nil
}
