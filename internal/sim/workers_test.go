package sim

import (
	"sync/atomic"
	"testing"
	"time"

	"flexvc/internal/config"
	"flexvc/internal/stats"
)

// TestSetWorkerBudgetDuringRun sets the worker budget from inside a running
// RunReplications call: the call keeps the budget it started with (under
// -race, the write is also race-free), and the next call runs on the new one.
func TestSetWorkerBudgetDuringRun(t *testing.T) {
	defer SetWorkerBudget(WorkerBudget())
	cfg := config.Tiny()
	cfg.Load = 0.2
	cfg.WarmupCycles, cfg.MeasureCycles = 50, 200
	reps := func(n int) []Replication {
		r := make([]Replication, n)
		for i := range r {
			r[i] = Replication{Config: cfg, Seed: i}
		}
		return r
	}
	// peak runs reps and returns the most done callbacks that were in flight
	// at once. Each callback waits up to wait for want of them to be in
	// flight, so with want workers the count reaches want.
	peak := func(reps []Replication, want int64, wait time.Duration, first func()) int64 {
		var in, most atomic.Int64
		err := RunReplications(reps, func(i int, _ stats.Result, _ time.Duration) error {
			if i == 0 && first != nil {
				first()
			}
			n := in.Add(1)
			defer in.Add(-1)
			for deadline := time.Now().Add(wait); n < want && time.Now().Before(deadline); n = in.Load() {
				time.Sleep(time.Millisecond)
			}
			for m := most.Load(); n > m && !most.CompareAndSwap(m, n); m = most.Load() {
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return most.Load()
	}

	SetWorkerBudget(1)
	if got := peak(reps(4), 2, 20*time.Millisecond, func() { SetWorkerBudget(3) }); got != 1 {
		t.Errorf("a call started at budget 1 ran %d replications at once after the budget rose to 3", got)
	}
	if got := peak(reps(3), 3, 10*time.Second, nil); got != 3 {
		t.Errorf("the call after the budget rose to 3 ran %d replications at once, want 3", got)
	}
}
