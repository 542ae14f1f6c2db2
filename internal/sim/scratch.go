package sim

import (
	"sync"

	"flexvc/internal/packet"
	"flexvc/internal/stats"
)

// scratch is the recyclable per-replication memory of one network instance:
// the SoA packet store and the telemetry arena. A campaign runs thousands of
// replications, each of which used to grow these structures from nothing; the
// scratch pool keeps them across replications so steady-state sweeps allocate
// per-run memory once per worker, not once per replication.
//
// The pool is an explicit mutex-guarded free-list rather than a sync.Pool on
// purpose: sync.Pool drops entries at GC, which would make the allocation
// profile of a sweep depend on GC timing — TestSmokeSweepAllocs
// (internal/sweep) pins a sweep's allocation count.
type scratch struct {
	store *packet.Store
	arena *stats.Arena
}

var (
	scratchMu   sync.Mutex
	scratchFree []*scratch
)

// acquireScratch pops a recycled scratch set (or builds a fresh one). The
// returned store and arena are empty.
func acquireScratch() *scratch {
	scratchMu.Lock()
	if n := len(scratchFree); n > 0 {
		sc := scratchFree[n-1]
		scratchFree[n-1] = nil
		scratchFree = scratchFree[:n-1]
		scratchMu.Unlock()
		return sc
	}
	scratchMu.Unlock()
	return &scratch{store: packet.NewStore(), arena: stats.NewArena()}
}

// reclaim resets the store and arena and returns the set to the pool. The
// caller must be completely done with the network they backed: every Ref and
// arena-backed slice it handed out is invalidated here.
func (sc *scratch) reclaim() {
	sc.store.Reset()
	sc.arena.Reset()
	scratchMu.Lock()
	scratchFree = append(scratchFree, sc)
	scratchMu.Unlock()
}
