// Package traffic implements the synthetic traffic patterns of the FlexVC
// evaluation: uniform random (UN), adversarial (ADV, destination in the next
// group) and bursty uniform (BURSTY-UN, a two-state Markov ON/OFF source),
// plus the reactive request-reply variants in which destinations answer every
// request with a reply to its source.
//
// Generators are deterministic given their seed: every node owns an
// independent PRNG stream so results are reproducible and independent of the
// iteration order of the simulator.
package traffic

import (
	"fmt"
	"math/rand"

	"flexvc/internal/packet"
	"flexvc/internal/prng"
	"flexvc/internal/topology"
)

// Generator decides what the nodes offer to the network: when each node
// generates a request and where it sends it. Packets live in the Params.Store
// arena, but a generated request needs no slot until it is injected, so the
// generators leave allocation to their caller (see NewRequest); only Generate
// and the replies of reactive patterns allocate.
//
// A node's source is a function of its own PRNG stream and the cycle alone, so
// it can be run ahead of the simulated clock: NextEmission finds the next cycle
// the node emits a request, consuming exactly the draws polling the node every
// cycle would, and Emit — called when the clock reaches that cycle — draws its
// destination. The request stream therefore depends on the (cycle, node) order
// of the Emit calls and on nothing the look-ahead did.
type Generator interface {
	// Name identifies the pattern.
	Name() string
	// NextEmission runs one node's source over the cycles [from, limit) and
	// stops at the first one in which the node emits, which it returns with
	// ok. The caller must then call Emit for that cycle and resume the node
	// at the cycle after it. Without an emission (ok false) every cycle of the
	// window has been consumed and the node resumes at limit — not past it:
	// cycle limit itself has not been drawn for.
	NextEmission(node packet.NodeID, from, limit int64) (cycle int64, ok bool)
	// Emit returns the destination of the request NextEmission announced for
	// cycle now; its source is node, its size Params.PacketSize and its
	// generation time now. Calls must come in ascending (cycle, node) order.
	Emit(now int64, node packet.NodeID) packet.NodeID
	// Generate polls one node for one cycle: the one-cycle window of
	// NextEmission and Emit, with the request allocated from Params.Store
	// under the generator's own ID sequence. It returns the new packet or
	// NilRef.
	Generate(now int64, node packet.NodeID) packet.Ref
	// Delivered notifies the generator that a packet reached its
	// destination (reactive patterns respond by scheduling a reply).
	Delivered(now int64, ref packet.Ref)
	// PendingReplies returns packets the destination nodes owe to the
	// network for the given node (reply traffic); the simulator drains this
	// queue with priority over new requests. It returns NilRef when empty.
	PendingReplies(node packet.NodeID) packet.Ref
}

// Params collects what every generator needs.
type Params struct {
	// Topo is the simulated topology (destination selection needs group
	// structure for adversarial traffic).
	Topo topology.Topology
	// Load is the offered load in phits/node/cycle (the load at cycle
	// RampStart when LoadEnd is set).
	Load float64
	// LoadEnd, when non-nil, linearly ramps the offered load from Load at
	// cycle RampStart to *LoadEnd at cycle RampStart+RampCycles; generation
	// before and after the ramp window uses the nearest endpoint. Scenario
	// load-ramp phases (internal/scenario) set these three fields.
	LoadEnd *float64
	// RampStart is the first cycle of the load ramp (LoadEnd != nil only).
	RampStart int64
	// RampCycles is the ramp duration in cycles (LoadEnd != nil only).
	RampCycles int64
	// PacketSize is the packet size in phits.
	PacketSize int
	// Seed seeds the per-node PRNG streams.
	Seed int64
	// AvgBurstLength is the mean burst length in packets (BURSTY-UN only).
	// It must be >= 1; New rejects smaller values instead of clamping.
	AvgBurstLength float64
	// HotspotFraction is the fraction of group-hotspot traffic aimed at the
	// hot group (0 selects DefaultHotspotFraction).
	HotspotFraction float64
	// HotspotGroup is the group concentrated on by group-hotspot traffic (a
	// router index on flat topologies).
	HotspotGroup int
	// Store is the packet arena Generate and reactive replies allocate from.
	// The network owns it; freed slots recycle so steady-state generation
	// allocates nothing per packet.
	Store *packet.Store
	// Sources, when non-nil, supplies the per-node PRNG streams from a
	// recycled list instead of fresh allocations (see Sources).
	Sources *Sources
}

// packetRate returns the per-cycle packet generation probability that yields
// the requested load.
func (p Params) packetRate() float64 {
	if p.PacketSize <= 0 {
		return 0
	}
	r := p.Load / float64(p.PacketSize)
	if r > 1 {
		r = 1
	}
	return r
}

// Ramped reports whether the params describe a load ramp.
func (p Params) Ramped() bool { return p.LoadEnd != nil && p.RampCycles > 0 }

// LoadAt returns the offered load at the given cycle: Load when the params
// are not ramped, otherwise the linear interpolation between Load and LoadEnd
// across the ramp window, clamped to the endpoints outside it.
func (p Params) LoadAt(now int64) float64 {
	if !p.Ramped() {
		return p.Load
	}
	frac := float64(now-p.RampStart) / float64(p.RampCycles)
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	return p.Load + (*p.LoadEnd-p.Load)*frac
}

// rateAt returns the per-cycle packet generation probability at the given
// cycle, honouring a load ramp.
func (p Params) rateAt(now int64) float64 {
	q := p
	q.Load = p.LoadAt(now)
	return q.packetRate()
}

// Sources is a recyclable list of PRNG streams. Generators draw their
// per-node streams from Params.Sources through nodeRNG, which reseeds a
// recycled rand.Rand in place — Seed allocates nothing, where a fresh source
// is a 4.9 KB state. Every stream is a prng.Source, so fresh or reseeded it
// is bit-identical to rand.New(rand.NewSource(seed)). A nil *Sources makes
// nodeRNG allocate fresh. The zero value is ready to use.
type Sources struct {
	rngs []*rand.Rand
	used int
}

// Rewind makes every stream available again. Streams handed out before it
// must no longer be used: the next nodeRNG calls reseed them.
func (s *Sources) Rewind() { s.used = 0 }

// nodeRNG returns the deterministic PRNG of one node: the next recycled
// stream, reseeded, or a fresh one when s is nil.
func (s *Sources) nodeRNG(seed int64, node packet.NodeID) *rand.Rand {
	// SplitMix-style seed scrambling keeps neighbouring node streams
	// decorrelated.
	z := uint64(seed)*0x9E3779B97F4A7C15 + uint64(node)*0xBF58476D1CE4E5B9 + 0x94D049BB133111EB
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	if s == nil {
		return rand.New(prng.New(int64(z)))
	}
	if s.used == len(s.rngs) {
		s.rngs = append(s.rngs, rand.New(prng.New(int64(z))))
	} else {
		s.rngs[s.used].Seed(int64(z))
	}
	s.used++
	return s.rngs[s.used-1]
}

// idAllocator hands out unique packet IDs.
type idAllocator struct{ next uint64 }

func (a *idAllocator) alloc() uint64 {
	a.next++
	return a.next
}

// destinationFn picks the destination for a new packet from a node.
type destinationFn func(rng *rand.Rand, src packet.NodeID) packet.NodeID

// uniformDestination draws any node except the source.
func uniformDestination(topo topology.Topology) destinationFn {
	n := topo.NumNodes()
	return func(rng *rand.Rand, src packet.NodeID) packet.NodeID {
		d := packet.NodeID(rng.Intn(n - 1))
		if d >= src {
			d++
		}
		return d
	}
}

// adversarialDestination draws a random node of the following group (ADV+1).
// On flat topologies (a single group) it degenerates to a fixed offset
// pattern that similarly concentrates load.
func adversarialDestination(topo topology.Topology) destinationFn {
	n := topo.NumNodes()
	groups := topo.NumGroups()
	if groups <= 1 {
		// Flat diameter-2 network: send to the "next router" so all traffic
		// from a router shares one link, the analogous worst case.
		perRouter := topo.NodesPerRouter()
		return func(rng *rand.Rand, src packet.NodeID) packet.NodeID {
			srcRouter := topo.RouterOfNode(src)
			dstRouter := (int(srcRouter) + 1) % topo.NumRouters()
			return topo.NodeAt(packet.RouterID(dstRouter), rng.Intn(perRouter))
		}
	}
	nodesPerGroup := n / groups
	return func(rng *rand.Rand, src packet.NodeID) packet.NodeID {
		srcGroup := topo.GroupOf(topo.RouterOfNode(src))
		dstGroup := (srcGroup + 1) % groups
		return packet.NodeID(dstGroup*nodesPerGroup + rng.Intn(nodesPerGroup))
	}
}

// fillEndpoints completes the router fields of a freshly allocated packet.
func fillEndpoints(topo topology.Topology, h *packet.Header) {
	h.SrcRouter = topo.RouterOfNode(h.Src)
	h.DstRouter = topo.RouterOfNode(h.Dst)
}

// NewRequest allocates the request src generated at cycle gen toward dst,
// with its endpoint routers filled in. The caller picks the ID.
func NewRequest(store *packet.Store, topo topology.Topology, id uint64, src, dst packet.NodeID, size int, gen int64) packet.Ref {
	ref := store.Alloc(id, src, dst, size, packet.Request, gen)
	fillEndpoints(topo, store.Hdr(ref))
	return ref
}

// poll is every generator's Generate: the one-cycle window of NextEmission,
// then Emit, with the request allocated under the next of ids.
func poll(g Generator, p *Params, ids *idAllocator, now int64, node packet.NodeID) packet.Ref {
	if _, ok := g.NextEmission(node, now, now+1); !ok {
		return packet.NilRef
	}
	return NewRequest(p.Store, p.Topo, ids.alloc(), node, g.Emit(now, node), p.PacketSize, now)
}

// Kind names the implemented patterns.
const (
	NameUniform      = "uniform"
	NameAdversarial  = "adversarial"
	NameBursty       = "bursty-uniform"
	NameTranspose    = "transpose"
	NameBitReverse   = "bit-reverse"
	NameShuffle      = "shuffle"
	NameGroupHotspot = "group-hotspot"
)

// CanonicalPattern resolves a pattern name or alias to its canonical name.
// It lets spec layers (internal/scenario, internal/config) validate pattern
// names without instantiating a generator.
func CanonicalPattern(pattern string) (string, bool) {
	switch pattern {
	case NameUniform, "un":
		return NameUniform, true
	case NameAdversarial, "adv":
		return NameAdversarial, true
	case NameBursty, "bursty-un", "bursty":
		return NameBursty, true
	case NameTranspose:
		return NameTranspose, true
	case NameBitReverse, "bitrev":
		return NameBitReverse, true
	case NameShuffle:
		return NameShuffle, true
	case NameGroupHotspot, "hotspot":
		return NameGroupHotspot, true
	default:
		return "", false
	}
}

// New builds the generator named by pattern (see CanonicalPattern for the
// accepted names and aliases), optionally wrapped for reactive request-reply
// traffic. Invalid parameters are rejected with an error, never clamped.
func New(pattern string, params Params, reactive bool) (Generator, error) {
	name, ok := CanonicalPattern(pattern)
	if !ok {
		return nil, fmt.Errorf("traffic: unknown pattern %q", pattern)
	}
	var g Generator
	switch name {
	case NameUniform:
		g = NewBernoulli(NameUniform, params, uniformDestination(params.Topo))
	case NameAdversarial:
		g = NewBernoulli(NameAdversarial, params, adversarialDestination(params.Topo))
	case NameBursty:
		b, err := NewBursty(params)
		if err != nil {
			return nil, err
		}
		g = b
	case NameTranspose:
		g = NewBernoulli(NameTranspose, params, permDestination(params.Topo, transposePerm))
	case NameBitReverse:
		g = NewBernoulli(NameBitReverse, params, permDestination(params.Topo, bitReversePerm))
	case NameShuffle:
		g = NewBernoulli(NameShuffle, params, permDestination(params.Topo, shufflePerm))
	case NameGroupHotspot:
		dest, err := groupHotspotDestination(params.Topo, params.HotspotFraction, params.HotspotGroup)
		if err != nil {
			return nil, err
		}
		g = NewBernoulli(NameGroupHotspot, params, dest)
	}
	if reactive {
		g = NewReactive(g, params)
	}
	return g, nil
}
