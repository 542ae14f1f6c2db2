package sim

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
