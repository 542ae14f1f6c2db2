package sim

import (
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

// RunOne builds a fresh network for cfg, runs it and returns its summary.
func RunOne(cfg config.Config) (stats.Result, error) { return runIn(cfg, nil) }

// runIn builds cfg's network in the scratch set sc (fresh memory when sc is
// nil), runs it and returns its summary. With a metrics registry attached it
// also accounts the replication (count + wall histogram) — this is the single
// funnel every execution path (RunOne, RunReplication, RunReplications) goes
// through. The summary is a deep copy, so nothing it holds aliases sc, which
// the caller may reclaim as soon as runIn returns.
func runIn(cfg config.Config, sc *scratch) (stats.Result, error) {
	n, err := newNetwork(cfg, sc)
	if err != nil {
		return stats.Result{}, err
	}
	start := time.Now()
	r := n.Run()
	// Nil-safe handles: without a registry these are no-ops.
	cfg.Metrics.Histogram(MetricReplicationWall).Since(start)
	cfg.Metrics.Counter(MetricReplications).Inc()
	n.publishWork()
	return r, nil
}

// ReplicationSeed derives the PRNG seed of replication s from the base
// configuration seed. Every replication owns its configuration, network and
// PRNG streams, so replications are independent of each other and of the
// order (or concurrency) in which they execute.
func ReplicationSeed(base int64, s int) int64 { return base + int64(s)*7919 }

// RunReplication runs replication s of cfg — deriving its seed with
// ReplicationSeed — in fresh memory, and returns its summary together with
// the wall-clock time spent building and simulating it.
func RunReplication(cfg config.Config, s int) (stats.Result, time.Duration, error) {
	return runReplication(cfg, s, nil)
}

// runReplication is RunReplication in the scratch set sc.
func runReplication(cfg config.Config, s int, sc *scratch) (stats.Result, time.Duration, error) {
	cfg.Seed = ReplicationSeed(cfg.Seed, s)
	start := time.Now()
	r, err := runIn(cfg, sc)
	return r, time.Since(start), err
}
