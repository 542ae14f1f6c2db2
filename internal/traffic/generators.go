package traffic

import (
	"fmt"
	"math/rand"

	"flexvc/internal/packet"
)

// Bernoulli is a memoryless source: every cycle each node generates a packet
// with probability load/packetSize, with the destination drawn by the
// configured destination function. It implements the UN and ADV patterns.
type Bernoulli struct {
	name   string
	params Params
	dest   destinationFn
	rate   float64

	rngs []*rand.Rand
	ids  idAllocator
}

// NewBernoulli builds a Bernoulli source with the given destination function.
func NewBernoulli(name string, params Params, dest destinationFn) *Bernoulli {
	g := &Bernoulli{name: name, params: params, dest: dest, rate: params.packetRate()}
	g.rngs = make([]*rand.Rand, params.Topo.NumNodes())
	for i := range g.rngs {
		g.rngs[i] = params.Sources.nodeRNG(params.Seed, packet.NodeID(i))
	}
	return g
}

// Name implements Generator.
func (g *Bernoulli) Name() string { return g.name }

// NextEmission implements Generator: one draw per cycle until one falls under
// the cycle's generation probability.
func (g *Bernoulli) NextEmission(node packet.NodeID, from, limit int64) (int64, bool) {
	rng := g.rngs[node]
	rate, ramped := g.rate, g.params.Ramped()
	for c := from; c < limit; c++ {
		if ramped {
			rate = g.params.rateAt(c)
		}
		if rng.Float64() < rate {
			return c, true
		}
	}
	return 0, false
}

// Emit implements Generator: the destination is the node stream's next draw.
func (g *Bernoulli) Emit(now int64, node packet.NodeID) packet.Ref {
	dst := g.dest(g.rngs[node], node)
	ref := g.params.Store.Alloc(g.ids.alloc(), node, dst, g.params.PacketSize, packet.Request, now)
	fillEndpoints(g.params.Topo, g.params.Store.Hdr(ref))
	return ref
}

// Generate implements Generator.
func (g *Bernoulli) Generate(now int64, node packet.NodeID) packet.Ref {
	if _, ok := g.NextEmission(node, now, now+1); !ok {
		return packet.NilRef
	}
	return g.Emit(now, node)
}

// Delivered implements Generator (no reaction for open-loop patterns).
func (g *Bernoulli) Delivered(int64, packet.Ref) {}

// PendingReplies implements Generator.
func (g *Bernoulli) PendingReplies(packet.NodeID) packet.Ref { return packet.NilRef }

// Bursty is the BURSTY-UN pattern: a two-state Markov ON/OFF process per node
// (Adas '97), found representative of data-centre traffic (Benson et al.).
// While ON, the node generates back-to-back packets (one packet every
// PacketSize cycles, i.e. one phit per cycle) toward a destination fixed for
// the duration of the burst; while OFF it stays silent. Transition
// probabilities are derived from the requested average load and burst length.
type Bursty struct {
	params Params
	dest   destinationFn

	// pOffToOn is the per-cycle probability of starting a burst; pEnd is
	// the per-packet probability of ending it (1/avgBurstLength).
	pOffToOn float64
	pEnd     float64

	rngs  []*rand.Rand
	state []burstState
	ids   idAllocator
}

type burstState struct {
	on        bool
	dst       packet.NodeID
	nextStart int64 // next cycle a packet may start (paces 1 phit/cycle)
}

// NewBursty builds a BURSTY-UN generator. AvgBurstLength must be at least
// one packet: a shorter "burst" is not expressible by the ON/OFF chain, so it
// is rejected instead of being silently clamped (config.Validate surfaces the
// same error before a simulation is assembled).
func NewBursty(params Params) (*Bursty, error) {
	burst := params.AvgBurstLength
	if burst < 1 {
		return nil, fmt.Errorf("traffic: bursty-uniform needs AvgBurstLength >= 1 packet, got %g", burst)
	}
	g := &Bursty{params: params, dest: uniformDestination(params.Topo)}
	g.pEnd = 1 / burst
	g.pOffToOn = burstyOffToOn(params.Load, burst, params.PacketSize)
	g.rngs = make([]*rand.Rand, params.Topo.NumNodes())
	g.state = make([]burstState, params.Topo.NumNodes())
	for i := range g.rngs {
		g.rngs[i] = params.Sources.nodeRNG(params.Seed, packet.NodeID(i))
	}
	return g, nil
}

// burstyOffToOn derives the per-cycle OFF->ON probability that makes the
// two-state chain spend a `load` fraction of time ON. The ON state emits 1
// phit/cycle, so the fraction of time spent ON must equal the load; mean ON
// duration is burst*packetSize cycles, and the chain is solved for the
// OFF->ON probability.
func burstyOffToOn(load, burst float64, packetSize int) float64 {
	if load >= 1 {
		load = 0.999999
	}
	meanOn := burst * float64(packetSize)
	meanOff := meanOn * (1 - load) / load
	if meanOff < 1 {
		meanOff = 1
	}
	p := 1 / meanOff
	if load <= 0 {
		p = 0
	}
	return p
}

// Name implements Generator.
func (g *Bursty) Name() string { return NameBursty }

// NextEmission implements Generator. An OFF node draws once per cycle for the
// start of a burst (and, when one starts, for its destination); an ON node
// draws nothing until its pacing lets the next packet start, so the cycles in
// between are skipped outright.
func (g *Bursty) NextEmission(node packet.NodeID, from, limit int64) (int64, bool) {
	rng := g.rngs[node]
	st := &g.state[node]
	ramped := g.params.Ramped()
	for c := from; c < limit; {
		if !st.on {
			pOn := g.pOffToOn
			if ramped {
				// Load ramps modulate how often bursts start; burst shape
				// (length, 1 phit/cycle pacing) is load-independent.
				pOn = burstyOffToOn(g.params.LoadAt(c), g.params.AvgBurstLength, g.params.PacketSize)
			}
			if rng.Float64() >= pOn {
				c++
				continue
			}
			st.on = true
			st.dst = g.dest(rng, node)
			st.nextStart = c
		}
		if c < st.nextStart {
			c = st.nextStart
			continue
		}
		return c, true
	}
	return 0, false
}

// Emit implements Generator: the burst's next packet, and the draw that may
// end the burst with it.
func (g *Bursty) Emit(now int64, node packet.NodeID) packet.Ref {
	st := &g.state[node]
	ref := g.params.Store.Alloc(g.ids.alloc(), node, st.dst, g.params.PacketSize, packet.Request, now)
	fillEndpoints(g.params.Topo, g.params.Store.Hdr(ref))
	st.nextStart = now + int64(g.params.PacketSize)
	if g.rngs[node].Float64() < g.pEnd {
		st.on = false
	}
	return ref
}

// Generate implements Generator.
func (g *Bursty) Generate(now int64, node packet.NodeID) packet.Ref {
	if _, ok := g.NextEmission(node, now, now+1); !ok {
		return packet.NilRef
	}
	return g.Emit(now, node)
}

// Delivered implements Generator.
func (g *Bursty) Delivered(int64, packet.Ref) {}

// PendingReplies implements Generator.
func (g *Bursty) PendingReplies(packet.NodeID) packet.Ref { return packet.NilRef }

// Reactive wraps a base pattern with request-reply semantics: requests are
// generated by the base pattern, and every delivered request causes its
// destination node to enqueue a reply of the same size back to the source.
// Replies take priority over new requests at the node (the simulator drains
// PendingReplies first), which models the consumption assumption: nodes
// always sink requests and the replies they owe are buffered at the NIC.
type Reactive struct {
	base    Generator
	params  Params
	pending [][]packet.Ref
	ids     idAllocator
}

// NewReactive wraps a generator with request-reply semantics.
func NewReactive(base Generator, params Params) *Reactive {
	return &Reactive{
		base:    base,
		params:  params,
		pending: make([][]packet.Ref, params.Topo.NumNodes()),
	}
}

// Name implements Generator.
func (g *Reactive) Name() string { return g.base.Name() + "+reply" }

// NextEmission implements Generator: new requests come from the base pattern.
func (g *Reactive) NextEmission(node packet.NodeID, from, limit int64) (int64, bool) {
	return g.base.NextEmission(node, from, limit)
}

// Emit implements Generator.
func (g *Reactive) Emit(now int64, node packet.NodeID) packet.Ref { return g.base.Emit(now, node) }

// Generate implements Generator.
func (g *Reactive) Generate(now int64, node packet.NodeID) packet.Ref {
	return g.base.Generate(now, node)
}

// Delivered implements Generator: a delivered request queues a reply at the
// destination node; delivered replies close the transaction.
func (g *Reactive) Delivered(now int64, ref packet.Ref) {
	g.base.Delivered(now, ref)
	store := g.params.Store
	h := store.Hdr(ref)
	if h.Class != packet.Request {
		return
	}
	reply := store.Alloc(g.ids.alloc()|replyIDBit, h.Dst, h.Src, int(h.Size), packet.Reply, now)
	store.SetReplyTo(reply, ref)
	fillEndpoints(g.params.Topo, store.Hdr(reply))
	g.pending[h.Dst] = append(g.pending[h.Dst], reply)
}

// replyIDBit keeps reply IDs disjoint from request IDs.
const replyIDBit = uint64(1) << 63

// PendingReplies implements Generator: it pops one owed reply for the node. A
// drained queue is rewound rather than advanced, so its backing array serves
// the next reply (the simulator pops each reply as soon as it is owed: the
// queue is almost always one deep).
func (g *Reactive) PendingReplies(node packet.NodeID) packet.Ref {
	q := g.pending[node]
	if len(q) == 0 {
		return packet.NilRef
	}
	p := q[0]
	if len(q) == 1 {
		g.pending[node] = q[:0]
	} else {
		g.pending[node] = q[1:]
	}
	return p
}

// PendingReplyCount returns the number of replies node still owes, used by
// tests and the deadlock watchdog.
func (g *Reactive) PendingReplyCount(node packet.NodeID) int { return len(g.pending[node]) }
