// Package router models a combined input-output buffered, Virtual
// Cut-Through router with credit-based flow control, an iterative input-first
// separable allocator and an optional internal frequency speedup, as used in
// the FlexVC evaluation (FOGSim's router model).
//
// A router owns the input buffers of its ports (including the injection
// buffers of its terminal ports), a small output buffer per port and per-class
// ejection buffers for its terminal ports. Each cycle it runs `speedup`
// allocation iterations that move packets from input VCs to output buffers
// (consuming credits of the downstream input buffer) and then drains every
// output buffer onto its link at one phit per cycle.
package router

import (
	"fmt"
	"math/bits"
	"math/rand"

	"flexvc/internal/buffer"
	"flexvc/internal/core"
	"flexvc/internal/packet"
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
// caches), immutable during a run (topology, route tables, core.Manager, the
// wiring behind DownstreamInput), or owned by this router as the unique
// upstream writer and reader of its links' downstream credit counters
// (Reserve, FreeFor and the congestion probes all act on the prober's own
// output ports). Credit returns and arrivals reach other routers only when
// the scheduled events are replayed at the start of a later cycle, so the
// order routers step in within a cycle matters only through the order of
// their Schedule* calls.
type Env interface {
	// DownstreamInput returns the input buffer at the far end of output
	// port `port` of router r (nil for terminal ports).
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
	outputs  []*buffer.OutputBuffer   // nil for terminal ports
	eject    [][]*buffer.OutputBuffer // [terminal port][class], nil otherwise
	linkBusy []int64
	ejBusy   [][]int64

	// Immutable per-port facts, resolved once at construction so the
	// allocation and transmit passes never re-query the topology interface.
	kinds    []topology.PortKind
	nbrs     []packet.RouterID // neighbor router per port (InvalidRouter for terminal)
	nbrPorts []int             // input port on the neighbor (-1 for terminal)
	linkLat  []int64           // link latency per port

	// down lazily caches Env.DownstreamInput per output port (the environment
	// is wired after construction, so the cache fills on first use).
	down    []*buffer.InputBuffer
	downSet []bool

	// Activity lists drive the batched allocator: instead of probing every
	// VC of every port each allocation iteration, the proposal pass visits
	// only ports that actually hold packets (liveIn, a dense ascending-sorted
	// list) and within each port only the occupied VCs (vcMask), and the
	// transmit pass only ports with staged output work (xmit). The lists are
	// pure occupancy bookkeeping, updated incrementally on enqueue and
	// dequeue — skipping an empty port or VC is exactly what the probing loop
	// would have concluded, and the sorted order reproduces the full scan's
	// ascending port order, so results are bit-identical. The mask is one
	// word, which is why New rejects ports with more than maxPortVCs VCs.
	// AuditActivity cross-checks list state against a brute-force scan in
	// tests.
	liveIn  portList
	xmit    portList
	inCount []int32  // resident input packets per port
	vcMask  []uint64 // per port: bit v set iff VC v holds >= 1 packet

	inVCRR []int // round-robin pointer over VCs, per input port
	outRR  []int // round-robin pointer over input ports, per output resource
	alloc  allocState

	// pending counts packets resident anywhere in the router (input VCs,
	// output staging buffers, ejection channels). The simulator skips the
	// Step of routers with no pending work.
	pending int

	// failStamp memoises failed proposals: failStamp[port*vcStride+vc]
	// records now+1 when no request could be built for the head of that VC
	// at cycle `now`. Within a cycle no buffer space is ever freed (credits
	// return through events between cycles, output/ejection buffers drain
	// after the last allocation iteration) and no new head can appear
	// (arrivals enqueue between cycles), so a failed request stays failed
	// for the remaining allocation iterations of the cycle and need not be
	// rebuilt. Heads with an unstable routing decision (uncommitted PAR/PB
	// packets) are never stamped: their decision re-senses occupancy, which
	// does change as the cycle's grants land.
	failStamp []int64
	// portFail is the port-level analogue: a port none of whose VCs could
	// propose (all of them stampable) is skipped for the rest of the cycle.
	portFail []int64
	// plans caches, per input VC (flat, port*vcStride+vc), the
	// routing-stable part of the head packet's request (output port, allowed
	// VC ranges, escape fallback). Occupancy-dependent checks are
	// re-evaluated every cycle.
	plans []vcPlan
	// vcStride is the row stride of failStamp and plans: the maximum VC
	// count over all input ports.
	vcStride int

	// vcCand is reusable scratch for selectVC's candidate list.
	vcCand []core.VCCandidate

	// grantCount counts switch allocations, for utilisation statistics.
	grantCount int64
}

// maxPortVCs is the most VCs one input port may have: the per-port occupancy
// mask the allocator scans is a single 64-bit word.
const maxPortVCs = 64

// New builds a router. The environment may be set later with SetEnv (the
// simulator wires routers and the event system together after construction).
func New(id packet.RouterID, topo topology.Topology, scheme core.Scheme, alg routing.Algorithm, params Params, seed int64) (*Router, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	r := &Router{
		id:       id,
		topo:     topo,
		scheme:   scheme,
		mgr:      core.NewManager(scheme),
		alg:      alg,
		params:   params,
		store:    params.Store,
		numPorts: topo.Radix(),
		rng:      rand.New(rand.NewSource(seed ^ (int64(id)+1)*0x9E3779B9)),
	}
	r.inputs = make([]*buffer.InputBuffer, r.numPorts)
	r.outputs = make([]*buffer.OutputBuffer, r.numPorts)
	r.eject = make([][]*buffer.OutputBuffer, r.numPorts)
	r.linkBusy = make([]int64, r.numPorts)
	r.ejBusy = make([][]int64, r.numPorts)
	r.kinds = make([]topology.PortKind, r.numPorts)
	r.nbrs = make([]packet.RouterID, r.numPorts)
	r.nbrPorts = make([]int, r.numPorts)
	r.linkLat = make([]int64, r.numPorts)
	r.down = make([]*buffer.InputBuffer, r.numPorts)
	r.downSet = make([]bool, r.numPorts)
	r.inVCRR = make([]int, r.numPorts)
	r.outRR = make([]int, r.numPorts*(1+params.NumClasses))
	r.portFail = make([]int64, r.numPorts)
	r.liveIn = newPortList(r.numPorts)
	r.xmit = newPortList(r.numPorts)
	r.inCount = make([]int32, r.numPorts)
	r.vcMask = make([]uint64, r.numPorts)
	for p := 0; p < r.numPorts; p++ {
		if n := r.portVCs(topo.PortKind(id, p)); n > r.vcStride {
			r.vcStride = n
		}
	}
	r.failStamp = make([]int64, r.numPorts*r.vcStride)
	r.plans = make([]vcPlan, r.numPorts*r.vcStride)
	for p := 0; p < r.numPorts; p++ {
		kind := topo.PortKind(id, p)
		numVCs := r.portVCs(kind)
		r.kinds[p] = kind
		r.linkLat[p] = int64(params.LinkLatency(kind))
		r.nbrs[p] = packet.InvalidRouter
		r.nbrPorts[p] = -1
		if kind != topology.Terminal {
			r.nbrs[p], r.nbrPorts[p] = topo.Neighbor(id, p)
		}
		if numVCs > maxPortVCs {
			return nil, fmt.Errorf("router: %s ports have %d VCs, more than the %d the allocator's occupancy mask holds", kind, numVCs, maxPortVCs)
		}
		r.inputs[p] = buffer.NewInputBuffer(params.BufferConfig(kind, numVCs))
		if kind == topology.Terminal {
			r.eject[p] = make([]*buffer.OutputBuffer, params.NumClasses)
			r.ejBusy[p] = make([]int64, params.NumClasses)
			for c := range r.eject[p] {
				r.eject[p][c] = buffer.NewOutputBuffer(params.OutputBufPhits)
			}
		} else {
			r.outputs[p] = buffer.NewOutputBuffer(params.OutputBufPhits)
		}
	}
	return r, nil
}

// portVCs returns the number of VCs of an input port of the given kind.
func (r *Router) portVCs(kind topology.PortKind) int {
	if kind == topology.Terminal {
		return r.params.InjectionQueues
	}
	return r.scheme.VCs.TotalOf(kind)
}

// SetEnv wires the router to its environment and resets the downstream-input
// cache (tests re-wire routers to fresh environments).
func (r *Router) SetEnv(env Env) {
	r.env = env
	for p := range r.downSet {
		r.downSet[p] = false
		r.down[p] = nil
	}
}

// downstream returns the input buffer at the far end of an output port,
// resolving it through the environment once and caching the answer (the
// wiring is immutable for the lifetime of a network).
func (r *Router) downstream(port int) *buffer.InputBuffer {
	if r.downSet[port] {
		return r.down[port]
	}
	b := r.env.DownstreamInput(r.id, port)
	r.down[port] = b
	r.downSet[port] = true
	return b
}

// ID returns the router identifier.
func (r *Router) ID() packet.RouterID { return r.id }

// Input returns the input buffer of a port (injection buffers for terminal
// ports). The simulator uses it to probe occupancy; arrivals go through
// EnqueueArrival so the router's pending-work counter stays exact.
func (r *Router) Input(port int) *buffer.InputBuffer { return r.inputs[port] }

// EnqueueArrival places a packet into an input VC (space must already be
// reserved) and records the pending work, so Busy reports the router needs
// stepping.
func (r *Router) EnqueueArrival(port, vc int, ref packet.Ref, ready int64, kind packet.RouteKind) {
	r.inputs[port].Enqueue(vc, ref, ready, kind)
	r.pending++
	r.noteEnqueue(port, vc)
}

// noteEnqueue updates the activity lists for a packet entering an input VC.
func (r *Router) noteEnqueue(port, vc int) {
	if r.inCount[port]++; r.inCount[port] == 1 {
		r.liveIn.add(port)
	}
	r.vcMask[port] |= 1 << uint(vc)
}

// noteDequeue updates the activity lists for a packet leaving an input VC.
// It must run after the buffer dequeue (it re-checks the queue length).
func (r *Router) noteDequeue(port, vc int) {
	if r.inputs[port].QueueLen(vc) == 0 {
		r.vcMask[port] &^= 1 << uint(vc)
	}
	if r.inCount[port]--; r.inCount[port] == 0 {
		r.liveIn.remove(port)
	}
}

// Busy reports whether the router holds any packet (and therefore must be
// stepped). Idle routers can safely be skipped: an empty router's Step is a
// no-op that consumes no randomness and mutates no state.
func (r *Router) Busy() bool { return r.pending > 0 }

// Output returns the output staging buffer of a non-terminal port, or nil.
func (r *Router) Output(port int) *buffer.OutputBuffer { return r.outputs[port] }

// ResidentPackets returns the number of packets stored in the router (input
// VCs, output buffers and ejection buffers), used by the deadlock watchdog.
func (r *Router) ResidentPackets() int {
	n := 0
	for p := 0; p < r.numPorts; p++ {
		n += r.inputs[p].ResidentPackets()
		if r.outputs[p] != nil {
			n += r.outputs[p].Len()
		}
		for _, e := range r.eject[p] {
			n += e.Len()
		}
	}
	return n
}

// Grants returns the number of switch allocations performed so far.
func (r *Router) Grants() int64 { return r.grantCount }

// Step advances the router by one cycle: `speedup` allocation iterations
// followed by link transmission. Steps of distinct routers within one cycle
// are mutually conflict-free (see the Env concurrency contract), so the
// network may run them concurrently; cross-router effects are confined to
// the Env.Schedule* calls, whose replay order the network controls.
func (r *Router) Step(now int64) {
	for i := 0; i < r.params.Speedup; i++ {
		r.allocate(now)
	}
	r.transmit(now)
}

// request is one input port's proposal during an allocation iteration. It
// carries the packet's ref and size so the grant path never resolves the
// store until it must mutate route state.
type request struct {
	inPort, inVC int
	ref          packet.Ref
	size         int32
	outPort      int
	destVC       int
	terminal     bool
	class        int
	outKind      topology.PortKind
	// revert marks a request that follows the packet's escape (minimal)
	// path instead of its planned Valiant continuation; the Valiant detour
	// is abandoned only if this request is granted.
	revert bool
}

// outKey maps an output resource (a non-terminal port, or a terminal port's
// per-class ejection channel) to an arbitration slot.
func (r *Router) outKey(req request) int {
	if !req.terminal {
		return req.outPort
	}
	return r.numPorts + req.outPort*r.params.NumClasses + req.class
}

// allocate runs one iteration of the input-first separable allocator.
func (r *Router) allocate(now int64) {
	if r.alloc.proposals == nil {
		numKeys := r.numPorts * (1 + r.params.NumClasses)
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
	// packets are absent from the activity list — identical to what probing
	// them would conclude — and the list's sorted order reproduces the full
	// scan's ascending port order. Grants only land after this loop, so the
	// list is not mutated while it is being walked. Phase 2 (fused): each
	// output resource keeps the proposal closest to its round-robin pointer.
	live := r.liveIn.ports
	for i := 0; i < len(live); i++ {
		p := int(live[i])
		if r.portFail[p] == now+1 {
			continue
		}
		if req, ok := r.proposeFromPort(now, p); ok {
			r.propose(st, req)
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
	key := r.outKey(req)
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

// allocState holds reusable allocator scratch space.
type allocState struct {
	proposals []request
	keyWinner []int
	keyGen    []uint64
	gen       uint64
	touched   []int
}

// rrDistance returns the round-robin distance of an input port from the
// output resource's pointer.
func (r *Router) rrDistance(key, inPort int) int {
	return (inPort - r.outRR[key] + r.numPorts) % r.numPorts
}

// vcPlan caches the routing-stable part of the request for an input VC's
// head packet: the routing decision, the allowed VC range of the planned
// continuation and, when the plan is opportunistic, the escape fallback's
// port and range. Those only depend on the packet's route state — which, for
// a packet waiting at the head of a VC, is mutated exclusively by this
// router's own Route/grant calls — so the plan stays valid until the head
// changes. Occupancy checks (output buffer space, downstream credits, VC
// selection) are re-evaluated every cycle from the plan.
//
// Plans are only reusable when the routing decision is provably stable:
// MIN routing, or an adaptive packet that has already committed its decision
// (Route degenerates to the pure routeToward). An uncommitted PAR/PB packet
// re-senses congestion every cycle, so its plan is rebuilt on every
// evaluation, which matches the pre-plan behaviour.
//
// Head identity is checked by Ref AND packet ID: the packet store can
// reissue the same ref for a different packet.
type vcPlan struct {
	ref    packet.Ref
	id     uint64
	stable bool

	deliver bool
	class   int // ejection class (deliver only)
	outPort int
	outKind topology.PortKind
	lo, hi  int // allowed downstream VC range; lo > hi when the plan has none

	// Escape fallback (opportunistic Valiant continuations only).
	escValid     bool
	escOutPort   int
	escOutKind   topology.PortKind
	escLo, escHi int
}

// proposeFromPort picks the first requestable VC of an input port, starting
// from its round-robin pointer. When it finds nothing, it records fail
// stamps so the rest of the cycle skips the re-evaluation — but only for
// heads whose routing decision is stable: an uncommitted adaptive (PAR/PB)
// packet re-senses congestion on every allocation iteration, and occupancy
// grows as the cycle's grants land, so its decision may legitimately change
// within the cycle.
func (r *Router) proposeFromPort(now int64, p int) (request, bool) {
	in := r.inputs[p]
	nvc := in.NumVCs()
	fails := r.failStamp[p*r.vcStride : p*r.vcStride+nvc]
	plans := r.plans[p*r.vcStride : p*r.vcStride+nvc]
	stampable := true

	// Visit only occupied VCs, in round-robin order (start at the RR pointer,
	// wrap around): first the set bits at or above the pointer, then the set
	// bits below it. Empty VCs could not propose anyway.
	start := r.inVCRR[p]
	mask := r.vcMask[p]
	for _, span := range [2]uint64{mask &^ (1<<uint(start) - 1), mask & (1<<uint(start) - 1)} {
		for span != 0 {
			vc := bits.TrailingZeros64(span)
			span &^= 1 << uint(vc)
			if req, ok, st := r.tryVC(now, in, fails, plans, p, vc, nvc); ok {
				return req, true
			} else if !st {
				stampable = false
			}
		}
	}
	if stampable {
		r.portFail[p] = now + 1
	}
	return request{}, false
}

// tryVC evaluates the head of one input VC against its cached plan. It
// returns the request and ok on success; stampable is false when the head's
// routing decision is adaptive-uncommitted and may legitimately change within
// the cycle (such heads block the port-level fail stamp).
func (r *Router) tryVC(now int64, in *buffer.InputBuffer, fails []int64, plans []vcPlan, p, vc, nvc int) (request, bool, bool) {
	if fails[vc] == now+1 {
		// This head already failed earlier this cycle and no space has
		// been freed since; skip the re-evaluation.
		return request{}, false, true
	}
	ref := in.Head(vc, now)
	if ref == packet.NilRef {
		// Empty or not-yet-ready heads cannot change within the cycle
		// (arrivals enqueue between cycles and ready times are fixed).
		return request{}, false, true
	}
	plan := &plans[vc]
	hdr := r.store.Hdr(ref)
	if plan.ref != ref || plan.id != hdr.ID || !plan.stable {
		r.buildPlan(p, ref, hdr, plan)
	}
	req, ok := r.requestFromPlan(plan, p, vc, ref, int(hdr.Size))
	if !ok {
		if plan.stable {
			fails[vc] = now + 1
			return request{}, false, true
		}
		return request{}, false, false
	}
	// Advance the pointer past the requesting VC so other VCs get served
	// in subsequent iterations even if this one keeps winning.
	r.inVCRR[p] = (vc + 1) % nvc
	return req, true, true
}

// buildPlan resolves routing and VC management for the head packet of an
// input VC. When the planned continuation of a Valiant detour is
// opportunistic (not classified safe), the packet's escape path (the minimal
// route to its destination) is planned as a fallback, as the paper's
// opportunistic-routing rule prescribes; the detour is only abandoned if the
// escape request wins allocation.
func (r *Router) buildPlan(p int, ref packet.Ref, hdr *packet.Header, plan *vcPlan) {
	rt := r.store.Route(ref)
	dec := r.alg.Route(r.id, hdr, rt, r.rng)
	*plan = vcPlan{
		ref:    ref,
		id:     hdr.ID,
		stable: rt.AdaptiveDecided || r.alg.Kind() == routing.MIN,
	}
	if dec.Deliver {
		class := int(hdr.Class)
		if class >= r.params.NumClasses {
			class = r.params.NumClasses - 1
		}
		plan.deliver = true
		plan.outPort = r.topo.TerminalPort(r.id, hdr.Dst)
		plan.class = class
		return
	}
	var safe bool
	plan.outPort = dec.OutPort
	plan.outKind, plan.lo, plan.hi, safe = r.planRange(p, hdr, rt, dec.OutPort, false)
	if !safe && rt.Kind == packet.Nonminimal && rt.Phase == packet.PhaseToIntermediate {
		escPort := r.topo.NextMinimalPort(r.id, hdr.DstRouter)
		if escPort >= 0 && escPort != dec.OutPort {
			plan.escOutKind, plan.escLo, plan.escHi, _ = r.planRange(p, hdr, rt, escPort, true)
			plan.escOutPort = escPort
			plan.escValid = plan.escLo <= plan.escHi
		}
	}
}

// planRange computes the allowed VC range at the downstream input port of
// one candidate output port. With revert set, the range is computed for the
// escape (minimal) continuation rather than the planned one. It returns
// lo > hi when the continuation is invalid or has no allowed VCs; safe
// reports whether the continuation was classified as a safe hop.
func (r *Router) planRange(p int, hdr *packet.Header, rt *packet.RouteState, outPort int, revert bool) (kind topology.PortKind, lo, hi int, safe bool) {
	if outPort < 0 {
		return topology.Terminal, 1, 0, false
	}
	kind = r.kinds[outPort]
	next := r.nbrs[outPort]
	escape := routing.EscapeRemaining(r.topo, next, hdr.DstRouter)
	planned := escape
	if !revert && rt.Kind == packet.Nonminimal && rt.Phase == packet.PhaseToIntermediate {
		// Only a Valiant detour still heading to its intermediate differs
		// from the escape path; every other plan IS the minimal path, which
		// PlannedRemaining would recompute identically.
		planned = routing.PlannedRemaining(r.topo, next, rt, hdr.DstRouter)
	}
	ctx := core.HopContext{
		Class:        hdr.Class,
		Kind:         kind,
		InputKind:    r.kinds[p],
		InputVC:      int(rt.InputVC),
		RefPosition:  routing.BaselinePosition(r.topo, rt),
		PlannedAfter: planned,
		EscapeAfter:  escape,
	}
	vcRange := r.mgr.AllowedVCs(ctx)
	if vcRange.Empty() {
		return kind, 1, 0, false
	}
	down := r.downstream(outPort)
	if down == nil {
		return kind, 1, 0, vcRange.Safe
	}
	hi = vcRange.Hi
	if hi >= down.NumVCs() {
		hi = down.NumVCs() - 1
	}
	return kind, vcRange.Lo, hi, vcRange.Safe
}

// requestFromPlan performs the per-cycle, occupancy-dependent half of
// request building: ejection/output buffer admission and VC selection over
// the plan's allowed range, falling back to the escape plan when the planned
// continuation has no room.
func (r *Router) requestFromPlan(plan *vcPlan, p, vc int, ref packet.Ref, size int) (request, bool) {
	if plan.deliver {
		if !r.eject[plan.outPort][plan.class].CanAccept(size) {
			return request{}, false
		}
		return request{inPort: p, inVC: vc, ref: ref, size: int32(size), outPort: plan.outPort, destVC: 0,
			terminal: true, class: plan.class, outKind: topology.Terminal}, true
	}
	if plan.lo <= plan.hi && r.outputs[plan.outPort].CanAccept(size) {
		if destVC, ok := r.selectVC(plan.outPort, plan.lo, plan.hi, size); ok {
			return request{inPort: p, inVC: vc, ref: ref, size: int32(size), outPort: plan.outPort,
				destVC: destVC, outKind: plan.outKind}, true
		}
	}
	if plan.escValid && r.outputs[plan.escOutPort].CanAccept(size) {
		if destVC, ok := r.selectVC(plan.escOutPort, plan.escLo, plan.escHi, size); ok {
			return request{inPort: p, inVC: vc, ref: ref, size: int32(size), outPort: plan.escOutPort,
				destVC: destVC, outKind: plan.escOutKind, revert: true}, true
		}
	}
	return request{}, false
}

// selectVC picks one downstream VC with room in [lo, hi] using the scheme's
// selection function.
func (r *Router) selectVC(outPort, lo, hi, size int) (int, bool) {
	down := r.downstream(outPort)
	if down == nil {
		return -1, false
	}
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
	r.noteDequeue(req.inPort, req.inVC)
	r.xmit.add(req.outPort)

	size := int(req.size)
	transfer := int64((size + r.params.Speedup - 1) / r.params.Speedup)
	creditDelay := transfer + r.linkLat[req.inPort]
	r.env.ScheduleCredit(creditDelay, in, req.inVC, size, resKind)

	rt := r.store.Route(ref)
	if req.terminal {
		r.eject[req.outPort][req.class].Push(ref, size, 0, rt.Kind, now+transfer)
		return
	}

	down := r.downstream(req.outPort)
	if !down.Reserve(req.destVC, size, rt.Kind) {
		panic(fmt.Sprintf("router %d: downstream VC %d of port %d lost its credits between check and grant", r.id, req.destVC, req.outPort))
	}
	if req.revert {
		// The escape request won: abandon the Valiant detour and head
		// straight to the destination from here on.
		rt.Phase = packet.PhaseToDestination
	}
	rt.InputVC = int32(req.destVC)
	switch req.outKind {
	case topology.Local:
		rt.LocalHops++
	case topology.Global:
		rt.GlobalHops++
	}
	rt.Hops++
	r.outputs[req.outPort].Push(ref, size, req.destVC, rt.Kind, now+transfer)
}

// transmit drains output buffers onto their links and ejection channels onto
// the terminal links, one packet at a time at one phit per cycle. Only ports
// with staged packets are visited (in ascending port order, matching the full
// scan); a port leaves the activity list once all its staging buffers drain.
// Removal shifts the remaining (higher) ports left, so not advancing the
// index after a removal preserves the ascending visit order.
func (r *Router) transmit(now int64) {
	l := &r.xmit
	for i := 0; i < len(l.ports); {
		p := int(l.ports[i])
		if r.transmitPort(now, p) {
			l.in[p] = false
			copy(l.ports[i:], l.ports[i+1:])
			l.ports = l.ports[:len(l.ports)-1]
		} else {
			i++
		}
	}
}

// transmitPort services one port's staging buffers and reports whether they
// are now empty.
func (r *Router) transmitPort(now int64, p int) bool {
	if r.outputs[p] != nil {
		r.transmitLink(now, p)
		return r.outputs[p].Len() == 0
	}
	empty := true
	for c := range r.eject[p] {
		r.transmitEject(now, p, c)
		if r.eject[p][c].Len() > 0 {
			empty = false
		}
	}
	return empty
}

func (r *Router) transmitLink(now int64, p int) {
	if r.linkBusy[p] > now {
		return
	}
	ref, size, destVC, kind := r.outputs[p].Head(now)
	if ref == packet.NilRef {
		return
	}
	r.outputs[p].Pop()
	r.pending--
	r.linkBusy[p] = now + int64(size)
	r.env.ScheduleArrival(r.linkLat[p]+int64(size), r.nbrs[p], r.nbrPorts[p], destVC, ref, kind)
}

func (r *Router) transmitEject(now int64, p, c int) {
	if r.ejBusy[p][c] > now {
		return
	}
	ref, size, _, _ := r.eject[p][c].Head(now)
	if ref == packet.NilRef {
		return
	}
	r.eject[p][c].Pop()
	r.pending--
	r.ejBusy[p][c] = now + int64(size)
	r.env.ScheduleDelivery(int64(r.params.InjectionLatency+size), ref)
}
