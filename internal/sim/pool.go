package sim

import (
	"runtime"
	"sync/atomic"
)

// The replication worker budget is a global token pool bounding how many
// simulations run concurrently across the whole process, regardless of how
// many sweeps, points or RunAveraged calls fan work out. Sharing one budget
// (instead of per-call semaphores) lets a sweep saturate every core without
// oversubscribing: each leaf worker builds its network only after acquiring a
// token, so peak memory is bounded by the budget too.
//
// The pool is held behind an atomic pointer so it can be resized while
// simulations are in flight: acquirers snapshot the current channel and
// release into the same one they acquired from, so a swap never loses or
// duplicates tokens — in-flight sims drain on the old pool while new
// acquisitions use the new size.
var workerBudget atomic.Pointer[chan struct{}]

func init() {
	ch := make(chan struct{}, defaultWorkers())
	workerBudget.Store(&ch)
}

func defaultWorkers() int {
	n := runtime.GOMAXPROCS(0)
	if n < 1 {
		n = 1
	}
	return n
}

// SetWorkerBudget resizes the global worker budget (default: GOMAXPROCS).
// It is safe to call concurrently with running simulations: sims already
// holding (or queueing for) a token finish against the old pool, and new
// acquisitions see the new size. Total in-flight work can therefore briefly
// exceed the smaller of the two sizes while the old pool drains.
func SetWorkerBudget(n int) {
	if n < 1 {
		n = 1
	}
	ch := make(chan struct{}, n)
	workerBudget.Store(&ch)
}

// WorkerBudget returns the current budget size.
func WorkerBudget() int { return cap(*workerBudget.Load()) }

// acquireWorker blocks until a worker token is free and returns the release
// function.
func acquireWorker() func() {
	budget := *workerBudget.Load()
	budget <- struct{}{}
	return func() { <-budget }
}
