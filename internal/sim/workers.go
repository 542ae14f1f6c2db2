package sim

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"flexvc/internal/config"
	"flexvc/internal/stats"
)

// workerBudget is how many replications RunReplications runs at once. Each
// call reads it once, when it starts, so changing it never disturbs a call in
// flight.
var workerBudget atomic.Int64

func init() { SetWorkerBudget(runtime.GOMAXPROCS(0)) }

// SetWorkerBudget sets how many replications a RunReplications call runs at
// once (default: GOMAXPROCS; values below 1 mean 1). It is safe to call at
// any time and takes effect at the next call.
func SetWorkerBudget(n int) { workerBudget.Store(int64(max(n, 1))) }

// WorkerBudget returns the current budget.
func WorkerBudget() int { return int(workerBudget.Load()) }

// Replication names one replication to run: replication Seed of Config, its
// PRNG seed derived with ReplicationSeed.
type Replication struct {
	Config config.Config
	Seed   int
}

// RunReplications runs reps on min(WorkerBudget(), len(reps)) goroutines,
// each taking the next replication of the list as it frees up. The goroutine
// that finishes reps[i] calls done(i, result, wall) before it takes another,
// so done must be safe for concurrent use. After the first error — from a
// replication or from done — no further replication starts, the ones in flight
// finish, and the error of the lowest index is returned.
//
// Each worker builds every network it runs in one scratch set of its own,
// created on its first replication, reclaimed between replications and
// dropped when the call returns. Every replication still owns its network and
// PRNG streams, so each result is bit-identical to RunReplication's whatever
// the worker count or order.
func RunReplications(reps []Replication, done func(i int, r stats.Result, wall time.Duration) error) error {
	var (
		next     atomic.Int64
		stop     atomic.Bool
		mu       sync.Mutex
		firstErr error
		errIndex int
		wg       sync.WaitGroup
	)
	fail := func(i int, err error) {
		stop.Store(true)
		mu.Lock()
		defer mu.Unlock()
		if firstErr == nil || i < errIndex {
			firstErr, errIndex = err, i
		}
	}
	for range min(WorkerBudget(), len(reps)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var sc *scratch
			for !stop.Load() {
				i := int(next.Add(1) - 1)
				if i >= len(reps) {
					return
				}
				if sc == nil {
					sc = newScratch()
				}
				r, wall, err := runReplication(reps[i].Config, reps[i].Seed, sc)
				if err == nil {
					err = done(i, r, wall)
				}
				if err != nil {
					fail(i, err)
					return
				}
				sc.reclaim()
			}
		}()
	}
	wg.Wait()
	return firstErr
}
