// Package router models a combined input-output buffered, Virtual
// Cut-Through router with credit-based flow control, an iterative input-first
// separable allocator and an optional internal frequency speedup, as used in
// the FlexVC evaluation (FOGSim's router model).
//
// A router owns the input buffers of its ports (including the injection
// buffers of its terminal ports) and one staging buffer per output resource: a
// link port, or one per-class ejection channel of a terminal port. Each cycle
// it runs `speedup` allocation iterations that move packets from input VCs to
// staging buffers (consuming credits of the downstream input buffer on a link)
// and then drains every staging buffer onto its channel at one phit per cycle.
package router

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"

	"flexvc/internal/buffer"
	"flexvc/internal/core"
	"flexvc/internal/minheap"
	"flexvc/internal/packet"
	"flexvc/internal/prng"
	"flexvc/internal/routing"
	"flexvc/internal/topology"
)

// Params collects the microarchitectural parameters of a router.
type Params struct {
	// Speedup is the number of allocation iterations per link cycle.
	Speedup int
	// Pipeline is the router pipeline latency in cycles, applied to every
	// packet between arrival and visibility to the allocator.
	Pipeline int
	// OutputBufPhits is the capacity of each output staging buffer.
	OutputBufPhits int
	// InjectionQueues is the number of injection VCs per terminal port.
	InjectionQueues int
	// NumClasses is the number of message classes (1, or 2 for
	// request-reply workloads); terminal ports expose one ejection channel
	// per class so replies never wait behind requests.
	NumClasses int
	// LocalLatency, GlobalLatency and InjectionLatency are the link
	// latencies in cycles, also used for credit return.
	LocalLatency, GlobalLatency, InjectionLatency int
	// BufferConfig returns the input-buffer configuration for a port of the
	// given kind with the given number of VCs.
	BufferConfig func(kind topology.PortKind, numVCs int) buffer.Config
	// Store is the packet store of the network this router belongs to; every
	// Ref the router handles resolves through it.
	Store *packet.Store
}

// LinkLatency returns the link latency for a port kind.
func (p Params) LinkLatency(kind topology.PortKind) int {
	switch kind {
	case topology.Global:
		return p.GlobalLatency
	case topology.Local:
		return p.LocalLatency
	default:
		return p.InjectionLatency
	}
}

// Validate checks the parameters.
func (p Params) Validate() error {
	if p.Speedup < 1 {
		return fmt.Errorf("router: speedup must be >= 1, got %d", p.Speedup)
	}
	if p.Pipeline < 0 {
		return fmt.Errorf("router: negative pipeline latency")
	}
	if p.OutputBufPhits <= 0 {
		return fmt.Errorf("router: output buffer capacity must be positive")
	}
	if p.InjectionQueues < 1 {
		return fmt.Errorf("router: need at least one injection queue")
	}
	if p.NumClasses < 1 || p.NumClasses > packet.NumClasses {
		return fmt.Errorf("router: invalid class count %d", p.NumClasses)
	}
	if p.BufferConfig == nil {
		return fmt.Errorf("router: missing buffer configuration function")
	}
	if p.Store == nil {
		return fmt.Errorf("router: missing packet store")
	}
	return nil
}

// Env is the interface the router uses to interact with the rest of the
// simulated network; it is implemented by internal/sim's Network.
//
// Step calls Env methods only. Everything else a Step touches is either
// private to the router (input queues, PRNG, allocation scratch, VC-plan
// caches, sleep state), immutable during a run (topology, route tables,
// core.Manager, the downstream buffers SetEnv resolved), or owned by this
// router as the unique upstream writer and reader of its links' downstream
// credit counters (Reserve, FreeFor and the congestion probes all act on the
// prober's own output ports). Credit returns and arrivals reach other routers only when
// the scheduled events are replayed at the start of a later cycle, so the
// order routers step in within a cycle matters only through the order of
// their Schedule* calls. An Env must not call EnqueueArrival from inside a
// Schedule* call: a packet enqueued between two Steps takes part in the next
// one, a packet enqueued during a Step would wait for the one after.
//
// There is one write that crosses routers outside Step: a ReleaseCredit on a
// buffer returned by DownstreamInput sets a bit in the wake set of the router
// SetEnv registered with it (buffer.InputBuffer.SetWake), whoever calls it and
// whenever. The router reads its wake set only at the top of its own Step, so
// an Env may release credits from an event replay, from inside ScheduleCredit
// or between steps — but always on the goroutine that steps the routers.
type Env interface {
	// DownstreamInput returns the input buffer at the far end of output
	// port `port` of router r (nil for terminal ports), with as many VCs as
	// the port. SetEnv asks once per link port, so the buffers must exist
	// before the router is wired.
	DownstreamInput(r packet.RouterID, port int) *buffer.InputBuffer
	// ScheduleArrival delivers the packet into VC vc of input port `port`
	// of router `to` after `delay` cycles; kind is the routing kind recorded
	// when the space was reserved.
	ScheduleArrival(delay int64, to packet.RouterID, port, vc int, ref packet.Ref, kind packet.RouteKind)
	// ScheduleCredit releases `size` phits of VC vc of buf after `delay`
	// cycles.
	ScheduleCredit(delay int64, buf *buffer.InputBuffer, vc, size int, kind packet.RouteKind)
	// ScheduleDelivery consumes the packet at its destination node after
	// `delay` cycles.
	ScheduleDelivery(delay int64, ref packet.Ref)
}

// Router is one switch of the simulated network.
type Router struct {
	id     packet.RouterID
	topo   topology.Topology
	scheme core.Scheme
	mgr    *core.Manager
	alg    routing.Algorithm
	params Params
	env    Env
	rng    *rand.Rand
	store  *packet.Store

	numPorts int
	inputs   []*buffer.InputBuffer
	// Output resources, in outKey numbering: a link port and each per-class
	// ejection channel of a terminal port owns one staging buffer and the
	// cycle its channel falls idle. Numbers no resource takes are never read.
	stage []*buffer.OutputBuffer
	busy  []int64

	// Immutable per-port facts, resolved once at construction so the
	// allocation and transmit passes never re-query the topology interface.
	kinds    []topology.PortKind
	nbrs     []packet.RouterID // neighbor router per port (InvalidRouter for terminal)
	nbrPorts []int             // input port on the neighbor (-1 for terminal)
	linkLat  []int64           // link latency per port
	numVCs   []int             // VCs per input port (so the allocator need not touch the buffer)

	// down is the input buffer at the far end of each link port (nil for
	// terminal ports), resolved by SetEnv.
	down []*buffer.InputBuffer

	// Activity lists drive the batched allocator: instead of probing every
	// VC of every port each allocation iteration, the proposal pass visits
	// only ports that actually hold packets (liveIn, a dense ascending-sorted
	// list) and within each port only the occupied VCs (vcMask), and the
	// transmit pass only ports with staged output work (xmit). The lists are
	// pure occupancy bookkeeping, updated incrementally on enqueue and
	// dequeue — skipping an empty port or VC is exactly what the probing loop
	// would have concluded, and the sorted order reproduces the full scan's
	// ascending port order, so results are bit-identical. The mask is one
	// word, which is why New rejects ports with more than MaxPortVCs VCs.
	// AuditActivity cross-checks list state against a brute-force scan in
	// tests.
	liveIn  portList
	xmit    portList
	inCount []int32  // resident input packets per port
	vcMask  []uint64 // per port: bit v set iff VC v holds >= 1 packet

	// Transmission is scheduled, not polled: xmitDue[port] is the first cycle
	// one of the port's staged packets can leave — the later of an output
	// resource's channel falling idle and the head of its staging buffer
	// becoming ready, the earliest such over the port's resources (a terminal
	// port has one per class), never for a port with nothing staged — kept
	// exact by every push and pop.
	// xmitMin is a lower bound of it over all ports, so a Step in which
	// nothing can leave returns from transmit at once.
	xmitDue []int64
	xmitMin int64

	inVCRR []int // round-robin pointer over VCs, per input port
	outRR  []int // round-robin pointer over input ports, per output resource
	alloc  allocState

	// pending counts packets resident anywhere in the router (input VCs and
	// staging buffers). The simulator skips the Step of routers with no
	// pending work.
	pending int

	// Per-VC allocator state is indexed by slot = port*vcStride + vc, where
	// vcStride is the maximum VC count over all input ports.
	vcStride int
	// plans caches, per slot, the routing-stable part of the head packet's
	// request (output resource, allowed VC range, escape fallback).
	// Occupancy-dependent checks are re-evaluated from it.
	plans []vcPlan

	// Head tracking. The head of a VC changes at exactly two places — an
	// EnqueueArrival into an empty VC and this router's own grant — so what
	// the allocator needs to know about a head lives in compact router-local
	// state and a repeat evaluation touches neither the VC ring nor the packet
	// store. heads[slot] identifies the head of an occupied VC and the cycle
	// it becomes visible to the allocator; planCur (one VC bit per port) says
	// plans[slot] was built for the current head and is routing-stable.
	heads   []headState
	planCur []uint64

	// Sleep state: the allocator is event-driven. A head whose plan is
	// routing-stable and whose request failed is put to sleep (a VC bit in
	// sleepMask[port]) and the proposal pass walks vcMask &^ sleepMask. It can
	// only succeed after space appears in an output resource it asked for —
	// its planned one or its escape — and space appears through two events
	// only: a credit returned to a link port's downstream buffer, or a packet
	// popped from a resource's staging buffer.
	// Both set the resource's bit (numbered as outKey) in the wake set; Step
	// folds the set in once, before allocating, waking the heads whose
	// waits[slot] name a signalled resource. See DESIGN.md "Event-driven
	// allocation" for why skipping a sleeper is unobservable.
	sleepMask []uint64
	woken     []uint64   // per port: woken, not yet re-evaluated (work counters only)
	waits     []waitKeys // per slot, valid while the head sleeps
	wake      []uint64   // bitset over output resources signalled since the last fold
	asleep    int        // sleeping heads, to skip the fold's scan when there are none
	work      Work

	// Pipeline timers: time is the third wake source. A head still inside the
	// router pipeline (ready in the future) has its VC bit in pipeMask[port]
	// and the proposal pass walks vcMask &^ sleepMask &^ pipeMask; one key per
	// such head, (ready, port, vc) packed by timerKey, sits in the timers heap
	// and Step releases the due ones before allocating. A head enters the mask
	// when it becomes head: always on an EnqueueArrival into an empty VC (which
	// does not know the cycle; the next Step releases it if it is ready by
	// then), and on a grant only when the packet behind the departing head is
	// not ready yet — one already ready must take part in the next iteration
	// of the same Step.
	pipeMask []uint64
	timers   minheap.Heap
	// awake counts the heads the proposal pass would evaluate — occupied VCs
	// neither asleep nor inside the pipeline — so a Step with none skips
	// allocation outright.
	awake int

	// vcCand is reusable scratch for selectVC's candidate list.
	vcCand []core.VCCandidate

	// grantCount counts switch allocations, for utilisation statistics.
	grantCount int64
}

// MaxPortVCs is the most VCs one input port may have: the per-port occupancy
// mask the allocator scans is a single 64-bit word. config.Validate checks
// the same limit, so a configuration beyond it fails before any simulation.
const MaxPortVCs = 64

// New builds a router. The environment may be set later with SetEnv (the
// simulator wires routers and the event system together after construction).
func New(id packet.RouterID, topo topology.Topology, scheme core.Scheme, alg routing.Algorithm, params Params, seed int64) (*Router, error) {
	r := new(Router)
	if err := r.Rebuild(id, topo, scheme, alg, params, seed); err != nil {
		return nil, err
	}
	return r, nil
}

// Rebuild makes r the router New(id, topo, scheme, alg, params, seed) builds,
// in r's memory: a router of a finished network, its buffers, VC rings and
// PRNG state become the next network's router wherever their sizes still fit,
// and nothing of its old state is observable (New itself is Rebuild on a zero
// Router). On error r is left unusable except as the receiver of another
// Rebuild.
func (r *Router) Rebuild(id packet.RouterID, topo topology.Topology, scheme core.Scheme, alg routing.Algorithm, params Params, seed int64) error {
	if err := params.Validate(); err != nil {
		return err
	}
	// mem holds the memory to reuse; everything else starts from zero.
	mem := *r
	*r = Router{
		id:       id,
		topo:     topo,
		scheme:   scheme,
		mgr:      mem.mgr,
		alg:      alg,
		params:   params,
		store:    params.Store,
		numPorts: topo.Radix(),
		rng:      mem.rng,
		xmitMin:  never,
		vcCand:   mem.vcCand[:0],
	}
	if r.numOutKeys() > math.MaxInt16 {
		return fmt.Errorf("router: radix %d with %d classes needs %d output resources, more than the %d the allocator numbers", r.numPorts, params.NumClasses, r.numOutKeys(), math.MaxInt16)
	}
	// The Manager is immutable and depends on the scheme alone.
	if r.mgr == nil || r.mgr.Scheme() != scheme {
		r.mgr = core.NewManager(scheme)
	}
	// A reseeded source draws what a fresh one would (see lazySource).
	rngSeed := seed ^ (int64(id)+1)*0x9E3779B9
	if r.rng == nil {
		r.rng = rand.New(&lazySource{seed: rngSeed})
	} else {
		r.rng.Seed(rngSeed)
	}
	n := r.numPorts
	// Buffers are kept (and reset below), the rest of the per-port state is
	// zeroed.
	r.inputs = keep(mem.inputs, n)
	r.stage = keep(mem.stage, r.numOutKeys())
	r.kinds = zeroed(mem.kinds, n)
	r.nbrs = zeroed(mem.nbrs, n)
	r.nbrPorts = zeroed(mem.nbrPorts, n)
	r.down = zeroed(mem.down, n)
	// The per-port words the proposal pass reads together share one backing
	// array (and one allocation), as do the per-port ints.
	words := zeroed(mem.vcMask[:cap(mem.vcMask)], 5*n+(r.numOutKeys()+63)/64)
	r.vcMask, r.planCur, r.sleepMask, r.woken, r.pipeMask, r.wake = words[:n], words[n:2*n], words[2*n:3*n], words[3*n:4*n], words[4*n:5*n], words[5*n:]
	ints := zeroed(mem.numVCs[:cap(mem.numVCs)], 2*n)
	r.numVCs, r.inVCRR = ints[:n], ints[n:]
	cycles := zeroed(mem.linkLat[:cap(mem.linkLat)], 2*n+r.numOutKeys())
	r.linkLat, r.xmitDue, r.busy = cycles[:n], cycles[n:2*n], cycles[2*n:]
	r.outRR = zeroed(mem.outRR, r.numOutKeys())
	r.liveIn = mem.liveIn.emptied(n)
	r.xmit = mem.xmit.emptied(n)
	r.timers = mem.timers[:0]
	if r.timers == nil {
		r.timers = make(minheap.Heap, 0, n)
	}
	r.alloc = mem.alloc.emptied(r.numOutKeys())
	for p := range r.xmitDue {
		r.xmitDue[p] = never
	}
	r.inCount = zeroed(mem.inCount, n)
	for p := 0; p < r.numPorts; p++ {
		if n := r.portVCs(topo.PortKind(id, p)); n > r.vcStride {
			r.vcStride = n
		}
	}
	r.plans = zeroed(mem.plans, r.numPorts*r.vcStride)
	r.heads = zeroed(mem.heads, r.numPorts*r.vcStride)
	r.waits = zeroed(mem.waits, r.numPorts*r.vcStride)
	for p := 0; p < r.numPorts; p++ {
		kind := topo.PortKind(id, p)
		numVCs := r.portVCs(kind)
		r.kinds[p] = kind
		r.numVCs[p] = numVCs
		r.linkLat[p] = int64(params.LinkLatency(kind))
		r.nbrs[p] = packet.InvalidRouter
		r.nbrPorts[p] = -1
		if kind != topology.Terminal {
			r.nbrs[p], r.nbrPorts[p] = topo.Neighbor(id, p)
		}
		if numVCs > MaxPortVCs {
			return fmt.Errorf("router: %s ports have %d VCs, more than the %d the allocator's occupancy mask holds", kind, numVCs, MaxPortVCs)
		}
		r.inputs[p] = resetInput(r.inputs[p], params.BufferConfig(kind, numVCs))
		lo, hi := r.portKeys(p)
		for key := lo; key < hi; key++ {
			r.stage[key] = resetOutput(r.stage[key], params.OutputBufPhits)
		}
	}
	return nil
}

// Release drops the router's references to its network — environment,
// topology, routing algorithm, packet store and parameters — so a router kept
// for a later Rebuild pins no finished network. The router must not be used
// again until rebuilt.
func (r *Router) Release() {
	r.env, r.topo, r.alg, r.store, r.params = nil, nil, nil, nil, Params{}
}

// zeroed returns n zero elements in s's memory when its capacity allows, and
// fresh memory otherwise.
func zeroed[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// keep returns s at length n, keeping its elements — including those past its
// length, up to its capacity — and zero-extending it when shorter.
func keep[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	grown := make([]T, n)
	copy(grown, s[:cap(s)])
	return grown
}

// resetInput is NewInputBuffer(cfg) in b's memory when b is non-nil.
func resetInput(b *buffer.InputBuffer, cfg buffer.Config) *buffer.InputBuffer {
	if b == nil {
		return buffer.NewInputBuffer(cfg)
	}
	b.Reset(cfg)
	return b
}

// resetOutput is NewOutputBuffer(capacity) in o's memory when o is non-nil.
func resetOutput(o *buffer.OutputBuffer, capacity int) *buffer.OutputBuffer {
	if o == nil {
		return buffer.NewOutputBuffer(capacity)
	}
	o.Reset(capacity)
	return o
}

// portVCs returns the number of VCs of an input port of the given kind.
func (r *Router) portVCs(kind topology.PortKind) int {
	if kind == topology.Terminal {
		return r.params.InjectionQueues
	}
	return r.scheme.VCs.TotalOf(kind)
}

// SetEnv wires the router to its environment (tests re-wire routers to fresh
// environments). It resolves the input buffer at the far end of every link
// port once and registers the port's wake bit in it, so every credit returned
// to that buffer — by whatever caller — wakes the heads sleeping on the port.
// A link port without a downstream buffer, or with one whose VC count differs
// from the port's, is a wiring bug and panics: the VC ranges plans select
// from lie below the port's count (core.VCConfig.ClassTop), so this check is
// what lets them index the downstream buffer unclipped. Everything derived
// from an old wiring goes: its wake registrations, the cached plans and the
// sleep state (heads slept on the old buffers' occupancy). Pipeline timers and
// transmission due cycles describe the router's own resident packets and
// stay.
func (r *Router) SetEnv(env Env) {
	r.env = env
	for p := range r.down {
		if r.down[p] != nil {
			r.down[p].SetWake(nil, 0)
			r.down[p] = nil
		}
		if r.kinds[p] != topology.Terminal {
			b := env.DownstreamInput(r.id, p)
			if b == nil {
				panic(fmt.Sprintf("router %d: %s port %d has no downstream input buffer", r.id, r.kinds[p], p))
			}
			if b.NumVCs() != r.numVCs[p] {
				panic(fmt.Sprintf("router %d: %s port %d has %d VCs, its downstream input buffer %d", r.id, r.kinds[p], p, r.numVCs[p], b.NumVCs()))
			}
			b.SetWake(&r.wake[p>>6], 1<<uint(p&63))
			r.down[p] = b
		}
		r.planCur[p] = 0
		r.sleepMask[p] = 0
		r.woken[p] = 0
	}
	r.awake += r.asleep
	r.asleep = 0
	for i := range r.wake {
		r.wake[i] = 0
	}
}

// ID returns the router identifier.
func (r *Router) ID() packet.RouterID { return r.id }

// Input returns the input buffer of a port (injection buffers for terminal
// ports). The simulator uses it to probe occupancy; arrivals go through
// EnqueueArrival so the router's pending-work counter stays exact.
func (r *Router) Input(port int) *buffer.InputBuffer { return r.inputs[port] }

// EnqueueArrival places a packet into an input VC (space must already be
// reserved) and records the pending work, so Busy reports the router needs
// stepping. The packet takes part in allocation from the first Step at or
// after cycle ready.
func (r *Router) EnqueueArrival(port, vc int, ref packet.Ref, ready int64, kind packet.RouteKind) {
	r.inputs[port].Enqueue(vc, ref, ready, kind)
	r.pending++
	r.noteEnqueue(port, vc, ref, ready)
}

// noteEnqueue updates the activity lists for a packet entering an input VC;
// a packet entering an empty VC is its new head, held back until the next
// Step finds it ready.
func (r *Router) noteEnqueue(port, vc int, ref packet.Ref, ready int64) {
	if r.inCount[port]++; r.inCount[port] == 1 {
		r.liveIn.add(port)
	}
	if bit := uint64(1) << uint(vc); r.vcMask[port]&bit == 0 {
		r.vcMask[port] |= bit
		r.heads[port*r.vcStride+vc] = headState{ready: ready, ref: ref}
		r.holdInPipeline(port, vc, ready)
	}
}

// noteDequeue updates the activity lists for the head packet leaving an input
// VC at cycle now and starts tracking the packet behind it. It must run after
// the buffer dequeue (it reads the new head). The departing head proposed, so
// it was awake and its woken bit is already spent.
func (r *Router) noteDequeue(now int64, port, vc int) {
	bit := uint64(1) << uint(vc)
	r.planCur[port] &^= bit
	if ref, ready, ok := r.inputs[port].Peek(vc); ok {
		r.heads[port*r.vcStride+vc] = headState{ready: ready, ref: ref}
		if ready > now {
			r.holdInPipeline(port, vc, ready)
			r.awake--
		}
	} else {
		r.vcMask[port] &^= bit
		r.awake--
	}
	if r.inCount[port]--; r.inCount[port] == 0 {
		r.liveIn.remove(port)
	}
}

// A timer key is (ready, port, vc): the VC in the low timerVCBits (MaxPortVCs
// VCs), the port in timerPortBits above it (New bounds the output-resource
// numbering, and with it the radix, below that) and the ready cycle on top, so
// the heap releases timers in time order.
const (
	timerVCBits   = 6
	timerPortBits = 15
)

func timerKey(ready int64, port, vc int) int64 {
	return ready<<(timerPortBits+timerVCBits) | int64(port)<<timerVCBits | int64(vc)
}

func splitTimerKey(key int64) (ready int64, port, vc int) {
	return key >> (timerPortBits + timerVCBits), int(key >> timerVCBits & (1<<timerPortBits - 1)), int(key & (1<<timerVCBits - 1))
}

// holdInPipeline keeps the new head of a VC out of the proposal pass until
// cycle ready.
func (r *Router) holdInPipeline(port, vc int, ready int64) {
	r.pipeMask[port] |= 1 << uint(vc)
	r.timers.Push(timerKey(ready, port, vc))
}

// releaseTimers lets every head whose pipeline latency has elapsed by cycle
// now take part in allocation.
func (r *Router) releaseTimers(now int64) {
	for after := timerKey(now+1, 0, 0); len(r.timers) > 0 && r.timers[0] < after; {
		_, port, vc := splitTimerKey(r.timers.Pop())
		r.pipeMask[port] &^= 1 << uint(vc)
		r.awake++
		r.work.TimerWakeups++
	}
}

// Busy reports whether the router holds any packet (and therefore must be
// stepped). Idle routers can safely be skipped: an empty router's Step is a
// no-op that consumes no randomness and mutates no state.
func (r *Router) Busy() bool { return r.pending > 0 }

// ResidentPackets returns the number of packets stored in the router (input
// VCs and staging buffers), used by the deadlock watchdog.
func (r *Router) ResidentPackets() int {
	n := 0
	for p := 0; p < r.numPorts; p++ {
		n += r.inputs[p].ResidentPackets() + r.staged(p)
	}
	return n
}

// staged counts the packets in a port's staging buffers.
func (r *Router) staged(p int) int {
	n := 0
	lo, hi := r.portKeys(p)
	for key := lo; key < hi; key++ {
		n += r.stage[key].Len()
	}
	return n
}

// Grants returns the number of switch allocations performed so far.
func (r *Router) Grants() int64 { return r.grantCount }

// Work counts what the router did to VC heads and staged packets since
// construction. The counts are exact and repeat for a given configuration and
// seed, so they show what a change to the router saves beside the (noisy)
// timings. They are plain fields bumped on the hot path; the simulator sums
// them into its metrics registry once, when a replication ends.
type Work struct {
	// Evals is the number of full head evaluations: a request built, or
	// found impossible, from the head's plan.
	Evals int64
	// Sleeps is the number of failed evaluations that put the head to sleep.
	Sleeps int64
	// Wakeups is the number of sleeping heads woken by a credit return or an
	// output drain; WakeFailed counts those whose next evaluation failed
	// again (the event freed space, but not enough, or another head took it).
	Wakeups, WakeFailed int64
	// TimerWakeups is the number of heads released from the router pipeline
	// by their timer.
	TimerWakeups int64
	// XmitVisits is the number of times the transmit pass serviced a port
	// with a packet due to leave, Sends the packets it put on a link or an
	// ejection channel (a terminal port can send one per class per visit).
	XmitVisits, Sends int64
}

// Work returns the router's work counters.
func (r *Router) Work() Work { return r.work }

// Step advances the router by one cycle: the wake events since the last Step
// are folded in and the pipeline timers due by now released, then `speedup`
// allocation iterations run, followed by link transmission. Steps of distinct
// routers within one cycle are mutually conflict-free (see the Env contract);
// cross-router effects are confined to the Env.Schedule* calls, whose replay
// order the network controls.
func (r *Router) Step(now int64) {
	r.foldWakes()
	r.releaseTimers(now)
	// With every head asleep or inside the pipeline an iteration would change
	// nothing, and neither would the ones after it.
	for i := 0; i < r.params.Speedup && r.awake > 0; i++ {
		r.allocate(now)
	}
	r.transmit(now)
}

// headState is what the allocator tracks about the head packet of a VC.
type headState struct {
	ready int64 // cycle the head becomes visible to the allocator
	ref   packet.Ref
}

// waitKeys names the one or two output resources (outKey numbering, -1 for
// none) a sleeping head waits on.
type waitKeys struct{ a, b int16 }

// signal records a wake event on an output resource.
func (r *Router) signal(key int) { r.wake[key>>6] |= 1 << uint(key&63) }

// signalled reports whether a wake event is pending on an output resource.
func (r *Router) signalled(key int16) bool {
	return key >= 0 && r.wake[key>>6]>>uint(key&63)&1 != 0
}

// foldWakes wakes every sleeping head that waits on a resource signalled
// since the last fold and clears the wake set. It runs once per Step, before
// the first allocation iteration: space freed while a Step is under way (an
// Env that returns credits inside ScheduleCredit, the drain in transmit) is
// seen by the next Step, exactly as a polled head would first see it there.
func (r *Router) foldWakes() {
	var any uint64
	for _, w := range r.wake {
		any |= w
	}
	if any == 0 {
		return
	}
	if r.asleep > 0 {
		for _, lp := range r.liveIn.ports {
			p := int(lp)
			for m := r.sleepMask[p]; m != 0; m &= m - 1 {
				vc := bits.TrailingZeros64(m)
				if w := r.waits[p*r.vcStride+vc]; r.signalled(w.a) || r.signalled(w.b) {
					r.sleepMask[p] &^= 1 << uint(vc)
					r.woken[p] |= 1 << uint(vc)
					r.asleep--
					r.awake++
					r.work.Wakeups++
				}
			}
		}
	}
	for i := range r.wake {
		r.wake[i] = 0
	}
}

// request is one input port's proposal during an allocation iteration. It
// carries the packet's ref and size so the grant path never resolves the
// store until it must mutate route state.
type request struct {
	inPort, inVC int
	ref          packet.Ref
	size         int32
	key          int // the output resource, in outKey numbering
	destVC       int
	outKind      topology.PortKind
	// revert marks a request that follows the packet's escape (minimal)
	// path instead of its planned Valiant continuation; the Valiant detour
	// is abandoned only if this request is granted.
	revert bool
}

// ejectKey is the output-resource number of a terminal port's ejection
// channel. Arbitration, waking and transmission share one numbering of output
// resources (outKey): link port p is resource p, and the ejection channel of
// class c on terminal port p is resource ejectKey(p, c).
func (r *Router) ejectKey(port, class int) int {
	return r.numPorts + port*r.params.NumClasses + class
}

// numOutKeys is the size of the output-resource numbering.
func (r *Router) numOutKeys() int { return r.numPorts * (1 + r.params.NumClasses) }

// portKeys returns the output resources [lo, hi) of a port: the port itself,
// or a terminal port's ejection channels.
func (r *Router) portKeys(p int) (lo, hi int) {
	if r.kinds[p] != topology.Terminal {
		return p, p + 1
	}
	lo = r.ejectKey(p, 0)
	return lo, lo + r.params.NumClasses
}

// keyPort returns the port an output resource belongs to.
func (r *Router) keyPort(key int) int {
	if key < r.numPorts {
		return key
	}
	return (key - r.numPorts) / r.params.NumClasses
}

// allocate runs one iteration of the input-first separable allocator.
func (r *Router) allocate(now int64) {
	if r.alloc.proposals == nil {
		numKeys := r.numOutKeys()
		r.alloc.proposals = make([]request, 0, r.numPorts)
		r.alloc.keyWinner = make([]int, numKeys)
		r.alloc.keyGen = make([]uint64, numKeys)
		r.alloc.touched = make([]int, 0, r.numPorts)
	}
	st := &r.alloc
	st.gen++
	st.proposals = st.proposals[:0]
	st.touched = st.touched[:0]

	// Phase 1 (batched): every live input port contributes at most one
	// (VC, output) proposal built from its cached plan; ports holding no
	// packets are absent from the activity list and ports whose heads all
	// sleep or sit in the pipeline are passed over — identical to what probing
	// them would conclude — and the list's sorted order reproduces the full
	// scan's ascending port order. Grants only land after this loop, so the
	// list is not mutated while it is being walked. Phase 2 (fused): each
	// output resource keeps the proposal closest to its round-robin pointer.
	live := r.liveIn.ports
	for i := 0; i < len(live); i++ {
		p := int(live[i])
		if awake := r.vcMask[p] &^ (r.sleepMask[p] | r.pipeMask[p]); awake != 0 {
			if req, ok := r.proposeFromPort(now, p, awake); ok {
				r.propose(st, req)
			}
		}
	}
	for _, key := range st.touched {
		winner := st.proposals[st.keyWinner[key]]
		r.outRR[key] = (winner.inPort + 1) % r.numPorts
		r.grant(now, winner)
	}
}

// propose files one input port's request into the arbitration state, keeping
// per output resource the proposal closest to its round-robin pointer.
func (r *Router) propose(st *allocState, req request) {
	idx := len(st.proposals)
	st.proposals = append(st.proposals, req)
	key := req.key
	if st.keyGen[key] != st.gen {
		st.keyGen[key] = st.gen
		st.keyWinner[key] = idx
		st.touched = append(st.touched, key)
		return
	}
	cur := st.proposals[st.keyWinner[key]]
	if r.rrDistance(key, req.inPort) < r.rrDistance(key, cur.inPort) {
		st.keyWinner[key] = idx
	}
}

// allocState holds reusable allocator scratch space, built on the router's
// first allocation.
type allocState struct {
	proposals []request
	keyWinner []int
	keyGen    []uint64
	gen       uint64
	touched   []int
}

// emptied returns the scratch for a router with numKeys output resources:
// st's memory when it numbers as many, none otherwise (the first allocation
// builds it). The generation carries on, so no keyGen entry left from st's
// iterations matches a later one.
func (st allocState) emptied(numKeys int) allocState {
	if len(st.keyGen) != numKeys {
		return allocState{}
	}
	return allocState{proposals: st.proposals[:0], keyWinner: st.keyWinner, keyGen: st.keyGen, gen: st.gen, touched: st.touched[:0]}
}

// rrDistance returns the round-robin distance of an input port from the
// output resource's pointer.
func (r *Router) rrDistance(key, inPort int) int {
	return (inPort - r.outRR[key] + r.numPorts) % r.numPorts
}

// vcPlan caches the routing-stable part of the request for an input VC's
// head packet: a copy of the routing.PlanHop of its routing decision — the
// planned hop and, when that is opportunistic, the escape fallback, each
// resolved to its output resource. Those only depend on the packet's route
// state — which, for a packet waiting at the head of a VC, is mutated
// exclusively by this router's own Route/grant calls — so the plan stays
// valid until the head changes (planCur tracks that). Occupancy checks
// (staging buffer space, downstream credits, VC selection) are re-evaluated
// from the plan.
//
// Plans are only reusable when the routing decision is provably stable:
// MIN routing, or an adaptive packet that has already committed its decision
// (Route degenerates to the pure routeToward). An uncommitted PAR packet
// re-senses congestion on every evaluation, so its plan is rebuilt every
// time — and it never sleeps: its decision depends on occupancy that grows
// with no wake event.
//
// The record is kept small (24 bytes, narrow fields: output resources fit
// int16, VC indices int8 since a port has at most MaxPortVCs) because
// evaluating a blocked head is bound by the cache lines it touches, not by
// arithmetic.
type vcPlan struct {
	ref    packet.Ref
	size   int32 // the packet's size in phits
	stable bool

	planned, escape planLeg
}

// planLeg is one output resource a head may request: its outKey number (-1
// when there is none to request), the kind of its port and the allowed VC
// range at the far end (0..0 on an ejection channel).
type planLeg struct {
	key    int16
	kind   topology.PortKind
	lo, hi int8
}

// proposeFromPort picks the first requestable VC of an input port among its
// awake occupied VCs, in round-robin order: first the set bits at or above the
// port's pointer, then the set bits below it. Empty VCs could not propose,
// sleeping heads would fail again and heads in the pipeline are not visible
// yet.
func (r *Router) proposeFromPort(now int64, p int, awake uint64) (request, bool) {
	below := uint64(1)<<uint(r.inVCRR[p]) - 1
	for _, span := range [2]uint64{awake &^ below, awake & below} {
		for ; span != 0; span &= span - 1 {
			if req, ok := r.tryVC(now, p, bits.TrailingZeros64(span)); ok {
				return req, true
			}
		}
	}
	return request{}, false
}

// tryVC evaluates the head of one input VC against its plan, building the
// plan when the head is new (or its routing decision still open). A failed
// request of a routing-stable plan puts the head to sleep.
func (r *Router) tryVC(now int64, p, vc int) (request, bool) {
	slot := p*r.vcStride + vc
	head := r.heads[slot]
	if head.ready > now {
		panic(fmt.Sprintf("router %d: allocator evaluated VC %d of port %d at cycle %d, but its head is inside the pipeline until %d", r.id, vc, p, now, head.ready))
	}
	r.work.Evals++
	bit := uint64(1) << uint(vc)
	plan := &r.plans[slot]
	if r.planCur[p]&bit == 0 {
		r.buildPlan(p, head.ref, r.store.Hdr(head.ref), plan)
		if plan.stable {
			r.planCur[p] |= bit
		}
	}
	wasWoken := r.woken[p]&bit != 0
	r.woken[p] &^= bit
	req, ok := r.requestFromPlan(plan, p, vc)
	if !ok {
		if plan.stable {
			r.sleepMask[p] |= bit
			r.waits[slot] = planWaits(plan)
			r.asleep++
			r.awake--
			r.work.Sleeps++
			if wasWoken {
				r.work.WakeFailed++
			}
		}
		return request{}, false
	}
	// Advance the pointer past the requesting VC so other VCs get served
	// in subsequent iterations even if this one keeps winning.
	r.inVCRR[p] = (vc + 1) % r.numVCs[p]
	return req, true
}

// planWaits names the output resources whose space a plan's request needs:
// exactly the buffers requestFromPlan consults.
func planWaits(plan *vcPlan) waitKeys { return waitKeys{plan.planned.key, plan.escape.key} }

// buildPlan resolves routing and VC management for the head packet of an
// input VC: the hop routing.PlanHop plans, escape fallback included.
func (r *Router) buildPlan(p int, ref packet.Ref, hdr *packet.Header, plan *vcPlan) {
	rt := r.store.Route(ref)
	dec := r.alg.Route(r.id, hdr, rt, r.rng)
	hop := routing.PlanHop(r.mgr, r.topo, r.alg.Kind().Mode(), r.id, p, dec.OutPort, hdr, rt)
	*plan = vcPlan{
		ref:     ref,
		size:    int32(hdr.Size),
		stable:  rt.AdaptiveDecided || r.alg.Kind() == routing.MIN,
		planned: r.leg(dec.OutPort, hop.Kind, hop.VCs, hdr.Class),
		escape:  r.leg(hop.EscPort, hop.EscKind, hop.EscVCs, hdr.Class),
	}
}

// leg resolves a hop to the output resource it requests: a link port, or the
// ejection channel of the packet's class on a terminal port (the last one on
// a router with fewer classes). A hop with no port or an empty range has none.
func (r *Router) leg(port int, kind topology.PortKind, vcs core.VCRange, class packet.Class) planLeg {
	if port < 0 || vcs.Empty() {
		return planLeg{key: -1}
	}
	key := port
	if kind == topology.Terminal {
		key = r.ejectKey(port, min(int(class), r.params.NumClasses-1))
	}
	return planLeg{key: int16(key), kind: kind, lo: int8(vcs.Lo), hi: int8(vcs.Hi)}
}

// requestFromPlan performs the occupancy-dependent half of request building:
// staging-buffer admission and VC selection over the planned leg, falling
// back to the escape leg when the planned one has no room. A failure draws no
// randomness (Select draws only among eligible VCs) and changes no state.
func (r *Router) requestFromPlan(plan *vcPlan, p, vc int) (request, bool) {
	leg, revert := plan.planned, false
	destVC, ok := r.admit(leg, int(plan.size))
	if !ok && plan.escape.key >= 0 {
		leg, revert = plan.escape, true
		destVC, ok = r.admit(leg, int(plan.size))
	}
	if !ok {
		return request{}, false
	}
	return request{inPort: p, inVC: vc, ref: plan.ref, size: plan.size, key: int(leg.key),
		destVC: destVC, outKind: leg.kind, revert: revert}, true
}

// admit reports whether a leg's output resource can take a packet of size
// phits now, and on which VC at the far end.
func (r *Router) admit(leg planLeg, size int) (destVC int, ok bool) {
	if leg.key < 0 || !r.stage[leg.key].CanAccept(size) {
		return 0, false
	}
	if leg.kind == topology.Terminal {
		return 0, true
	}
	return r.selectVC(int(leg.key), int(leg.lo), int(leg.hi), size)
}

// selectVC picks one downstream VC with room in [lo, hi] using the scheme's
// selection function.
func (r *Router) selectVC(outPort, lo, hi, size int) (int, bool) {
	down := r.down[outPort]
	candidates := r.vcCand[:0]
	for v := lo; v <= hi; v++ {
		candidates = append(candidates, core.VCCandidate{VC: v, Free: down.FreeFor(v)})
	}
	r.vcCand = candidates
	return r.scheme.Selection.Select(candidates, size, r.rng)
}

// grant moves a packet from its input VC into the chosen output buffer,
// consuming downstream credits and scheduling the credit return for the space
// it frees upstream.
func (r *Router) grant(now int64, req request) {
	in := r.inputs[req.inPort]
	ref, resKind := in.Dequeue(req.inVC)
	if ref != req.ref {
		panic(fmt.Sprintf("router %d: allocator granted VC %d of port %d but its head changed", r.id, req.inVC, req.inPort))
	}
	r.grantCount++
	r.noteDequeue(now, req.inPort, req.inVC)

	size := int(req.size)
	transfer := int64((size + r.params.Speedup - 1) / r.params.Speedup)
	creditDelay := transfer + r.linkLat[req.inPort]
	r.env.ScheduleCredit(creditDelay, in, req.inVC, size, resKind)

	rt := r.store.Route(ref)
	if req.outKind != topology.Terminal && !r.down[req.key].Reserve(req.destVC, size, rt.Kind) {
		panic(fmt.Sprintf("router %d: downstream VC %d of port %d lost its credits between check and grant", r.id, req.destVC, req.key))
	}
	routing.TakeHop(r.topo, r.alg.Kind().Mode(), rt, req.outKind, req.destVC, req.revert)
	r.stage[req.key].Push(ref, size, req.destVC, rt.Kind, now+transfer)
	r.noteStaged(r.keyPort(req.key))
}

// never is the due cycle of a port with nothing staged.
const never = math.MaxInt64

// noteStaged records a packet pushed into one of a port's staging buffers.
func (r *Router) noteStaged(port int) {
	r.xmit.add(port)
	due := r.portDue(port)
	r.xmitDue[port] = due
	if due < r.xmitMin {
		r.xmitMin = due
	}
}

// portDue computes the first cycle a port can send from its staging buffers:
// the earliest over its output resources of the later of the channel falling
// idle and the head becoming ready.
func (r *Router) portDue(p int) int64 {
	due := int64(never)
	lo, hi := r.portKeys(p)
	for key := lo; key < hi; key++ {
		if ready, ok := r.stage[key].HeadReady(); ok {
			due = min(due, max(r.busy[key], ready))
		}
	}
	return due
}

// transmit drains staging buffers onto their links and ejection channels,
// one packet at a time at one phit per cycle. Only ports with a packet due
// are serviced, in ascending port order, matching a full scan: a port that is
// not due would have found its channels busy or their heads not ready, and
// done nothing. A port leaves the activity list once all its
// staging buffers drain; removal shifts the remaining (higher) ports left, so
// not advancing the index after a removal preserves the ascending visit order.
func (r *Router) transmit(now int64) {
	if now < r.xmitMin {
		return
	}
	l := &r.xmit
	next := int64(never)
	for i := 0; i < len(l.ports); {
		p := int(l.ports[i])
		if r.xmitDue[p] <= now {
			r.work.XmitVisits++
			r.transmitPort(now, p)
			r.xmitDue[p] = r.portDue(p)
		}
		if due := r.xmitDue[p]; due == never {
			l.in[p] = false
			copy(l.ports[i:], l.ports[i+1:])
			l.ports = l.ports[:len(l.ports)-1]
		} else {
			next = min(next, due)
			i++
		}
	}
	r.xmitMin = next
}

// transmitPort puts the head of each of a port's staging buffers on its
// channel if the channel is idle and the head ready: onto the link towards
// the neighbour, or out of a terminal port to its node.
func (r *Router) transmitPort(now int64, p int) {
	lo, hi := r.portKeys(p)
	for key := lo; key < hi; key++ {
		if r.busy[key] > now {
			continue
		}
		ref, size, destVC, kind := r.stage[key].Head(now)
		if ref == packet.NilRef {
			continue
		}
		r.stage[key].Pop()
		r.signal(key)
		r.pending--
		r.work.Sends++
		r.busy[key] = now + int64(size)
		if r.kinds[p] == topology.Terminal {
			r.env.ScheduleDelivery(r.linkLat[p]+int64(size), ref)
		} else {
			r.env.ScheduleArrival(r.linkLat[p]+int64(size), r.nbrs[p], r.nbrPorts[p], destVC, ref, kind)
		}
	}
}

// lazySource is the router's PRNG source, seeded on the first draw: the real
// source is a 4.9 KB register, and a router under MIN routing with a
// deterministic VC selection never draws. Once seeded it is the source
// rand.NewSource(seed) would have been (prng.Source draws the same stream),
// so streams are unchanged. Seed (Rebuild reseeds through it) keeps the built
// source and reseeds it in place on the next draw, which allocates nothing
// and draws what a fresh source would.
type lazySource struct {
	seed   int64
	src    *prng.Source
	seeded bool
}

func (s *lazySource) real() *prng.Source {
	if !s.seeded {
		if s.src == nil {
			s.src = prng.New(s.seed)
		} else {
			s.src.Seed(s.seed)
		}
		s.seeded = true
	}
	return s.src
}

func (s *lazySource) Int63() int64    { return s.real().Int63() }
func (s *lazySource) Uint64() uint64  { return s.real().Uint64() }
func (s *lazySource) Seed(seed int64) { s.seed, s.seeded = seed, false }
