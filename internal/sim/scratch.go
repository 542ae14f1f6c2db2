package sim

import (
	"flexvc/internal/packet"
	"flexvc/internal/router"
	"flexvc/internal/traffic"
)

// scratch is the recyclable per-replication memory of one network instance:
// the SoA packet store, the traffic generators' per-node PRNG streams, the
// NIC queues and their pending requests, the event wheel's slots and the routers (with their buffers, VC
// rings and PRNG states). A sweep runs dozens to thousands of replications,
// each of which would otherwise grow these structures from nothing: every
// RunReplications worker owns one set, builds each of its networks in it and
// reclaims it between replications, so a sweep allocates per-run memory once
// per worker, not once per replication.
type scratch struct {
	store   *packet.Store
	pending pendingSlab
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

// newScratch returns an empty scratch set.
func newScratch() *scratch { return &scratch{store: packet.NewStore()} }

// reclaim resets the set for the next network. The caller must be completely
// done with the network it backed: every Ref and PRNG stream it handed out is
// invalidated here.
func (sc *scratch) reclaim() {
	sc.store.Reset()
	sc.pending.reset()
	sc.sources.Rewind()
	for i := range sc.nodes {
		q := &sc.nodes[i]
		q.requests.reset()
		q.replies.reset()
		*q = nodeState{requests: q.requests, replies: q.replies}
	}
	// Credit events carry *buffer.InputBuffer pointers: clear every slot
	// over its full capacity so a kept set pins no dead network.
	for i, s := range sc.slots {
		clear(s[:cap(s)])
		sc.slots[i] = s[:0]
	}
	for _, rt := range sc.routers {
		rt.Release()
	}
}
