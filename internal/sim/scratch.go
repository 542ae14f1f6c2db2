package sim

import (
	"sync"

	"flexvc/internal/packet"
	"flexvc/internal/router"
	"flexvc/internal/stats"
	"flexvc/internal/traffic"
)

// scratch is the recyclable per-replication memory of one network instance:
// the SoA packet store, the telemetry arena, the traffic generators' per-node
// PRNG streams, the NIC queues, the event wheel's slots and the routers (with
// their buffers, VC rings and PRNG states). A sweep runs dozens to thousands
// of replications, each of which used to grow these structures from nothing;
// the scratch pool keeps them across the replications of a sweep, so
// steady-state sweeps allocate per-run memory once per worker, not once per
// replication.
//
// The pool lives only while some caller holds it (HoldScratch): outside a
// hold, reclaim drops the set and a replication retains nothing, and the last
// release empties the free list. The pool is an explicit mutex-guarded
// free-list rather than a sync.Pool on purpose: sync.Pool drops entries at GC,
// which would make the allocation profile of a sweep depend on GC timing —
// TestSmokeSweepAllocs (internal/sweep) pins a sweep's allocation count.
type scratch struct {
	store   *packet.Store
	arena   *stats.Arena
	sources traffic.Sources
	// nodes and slots are the last network's NIC queues and wheel slots;
	// newNetwork reuses them when the node count and wheel horizon match.
	nodes []nodeState
	slots [][]event
	// routers are the routers of the networks built from this set, released
	// between replications; newNetwork rebuilds router i of the next network
	// in routers[i] (Router.Rebuild).
	routers []*router.Router
}

var (
	scratchMu    sync.Mutex
	scratchFree  []*scratch
	scratchHolds int
)

// HoldScratch keeps the scratch pool alive until the returned release is
// called (exactly once): replications finishing while any hold is open hand
// their scratch set to the next replication instead of to the garbage
// collector. Holds nest and may overlap across goroutines; the last release
// empties the pool. Sweeps wrap their replications in one hold.
func HoldScratch() (release func()) {
	scratchMu.Lock()
	scratchHolds++
	scratchMu.Unlock()
	return func() {
		scratchMu.Lock()
		defer scratchMu.Unlock()
		if scratchHolds--; scratchHolds < 0 {
			panic("sim: scratch hold released twice")
		}
		if scratchHolds == 0 {
			scratchFree = nil
		}
	}
}

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

// reclaim resets the set and returns it to the pool while a hold is open
// (otherwise the set is left to the garbage collector). The caller must be
// completely done with the network it backed: every Ref, arena-backed slice
// and PRNG stream it handed out is invalidated here.
func (sc *scratch) reclaim() {
	sc.store.Reset()
	sc.arena.Reset()
	sc.sources.Rewind()
	for i := range sc.nodes {
		q := &sc.nodes[i]
		q.requests.reset()
		q.replies.reset()
		*q = nodeState{requests: q.requests, replies: q.replies}
	}
	// Credit events carry *buffer.InputBuffer pointers: clear every slot
	// over its full capacity so pooled memory pins no dead network.
	for i, s := range sc.slots {
		clear(s[:cap(s)])
		sc.slots[i] = s[:0]
	}
	for _, rt := range sc.routers {
		rt.Release()
	}
	scratchMu.Lock()
	if scratchHolds > 0 {
		scratchFree = append(scratchFree, sc)
	}
	scratchMu.Unlock()
}
