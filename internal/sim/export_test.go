package sim

import "flexvc/internal/config"

// silenceSources stops the base traffic pattern from the current cycle on:
// no node is visited by its generator again, and the requests waiting at the
// NICs, which never entered the network, are dropped. The generator itself
// stays, so the replies owed for requests still in flight keep being queued
// and injected, and the network drains the way it would once every source
// falls silent.
func (n *Network) silenceSources() {
	n.genDue = n.genDue[:0]
	for i := range n.nodes {
		n.nodes[i].hasReq = false
	}
}

// DrainState is what a network holds after a drain: packets in flight and
// resident in routers, events pending in the wheel, requests and owed replies
// waiting at the NICs, and packet store slots. A network that drained holds
// the zero DrainState.
type DrainState struct {
	InFlight, Resident, Events, AtNICs, Slots int64
}

// DrainProbe builds cfg's network, runs loadCycles under load, silences the
// sources and runs silentCycles more, then reports what is left.
func DrainProbe(cfg config.Config, loadCycles, silentCycles int64) (DrainState, error) {
	n, err := New(cfg)
	if err != nil {
		return DrainState{}, err
	}
	n.RunCycles(loadCycles)
	n.silenceSources()
	n.RunCycles(silentCycles)
	return DrainState{
		InFlight: n.InFlight(),
		Resident: int64(n.ResidentPackets()),
		Events:   int64(n.wheel.pending()),
		AtNICs:   pendingAtSources(n),
		Slots:    int64(n.store.InUse()),
	}, nil
}
