package sim

import (
	"fmt"
	"time"

	"flexvc/internal/packet"
	"flexvc/internal/traffic"
)

// fifo is an unbounded NIC queue with an explicit head index, so popping the
// front neither reallocates nor abandons backing storage: once drained, the
// slice is rewound and its capacity reused.
type fifo[T any] struct {
	items []T
	head  int
}

func (q *fifo[T]) len() int    { return len(q.items) - q.head }
func (q *fifo[T]) empty() bool { return q.head >= len(q.items) }

func (q *fifo[T]) push(p T) {
	if q.head > 0 && q.head >= len(q.items)-q.head {
		// The dead prefix is at least as large as the live tail: compact so
		// a queue that never fully drains cannot grow its backing array
		// beyond twice its live depth. Amortised O(1) per push.
		live := copy(q.items, q.items[q.head:])
		q.items = q.items[:live]
		q.head = 0
	}
	q.items = append(q.items, p)
}

func (q *fifo[T]) peek() T { return q.items[q.head] }

func (q *fifo[T]) pop() T {
	p := q.items[q.head]
	q.head++
	if q.head == len(q.items) {
		q.items = q.items[:0]
		q.head = 0
	}
	return p
}

func (q *fifo[T]) reset() { q.items = q.items[:0]; q.head = 0 }

// Step advances the network by one cycle:
//
//  1. process due events (arrivals into input VCs, credit returns, deliveries)
//  2. inject traffic at the NICs
//  3. refresh the piggybacked congestion state (PB routing only)
//  4. step every router that holds work (allocation iterations + link
//     transmission), in ascending identifier order
//
// Router steps are mutually conflict-free within a cycle — a router's grants
// consume credits of the downstream buffers that only it writes and probes,
// queue state is owner-only, and credit returns ride the event wheel into the
// next cycle — so the router order influences results solely through the
// order events are appended to the wheel (a slot's append order is the order
// processEvents replays it).
//
// This is the only place the phases are sequenced. With a metrics registry
// attached (config.Metrics) the same body also reads the wall clock between
// phases; metrics only observe — they never feed back into simulated state —
// so metered and plain runs are bit-identical (locked by
// TestMetricsExportInvariant).
func (n *Network) Step() {
	m := n.metrics
	var t time.Time
	if m != nil {
		t = time.Now()
	}
	n.processEvents()
	if m != nil {
		t = lap(m.phaseEvents, t)
	}
	n.inject()
	if m != nil {
		t = lap(m.phaseInject, t)
	}
	if n.pb != nil {
		n.pb.Update(n.now)
	}
	if m != nil {
		t = lap(m.phasePB, t)
	}
	n.stepRouters()
	if m != nil {
		lap(m.phaseStep, t)
		m.cycles.Inc()
		m.wheelHWM.SetMax(n.wheel.count)
	}
	n.now++
}

// stepRouters steps the busy routers in ascending ID order. Idle routers are
// skipped: an empty router's Step is a no-op that consumes no randomness, so
// skipping it cannot change results.
func (n *Network) stepRouters() {
	for id, active := range n.activeRouter {
		if !active {
			continue
		}
		r := n.routers[id]
		r.Step(n.now)
		if !r.Busy() {
			n.activeRouter[id] = false
		}
	}
}

// markRouterActive flags a router for stepping; it stays flagged until a Step
// leaves it with no resident packets.
func (n *Network) markRouterActive(r packet.RouterID) { n.activeRouter[r] = true }

// queueNode flags a node as holding NIC work (a waiting request or queued
// replies), so the injection pass visits it. The flag is cleared once both
// are gone.
func (n *Network) queueNode(node packet.NodeID) {
	if !n.nodes[node].queued {
		n.nodes[node].queued = true
		n.pendingNodes = append(n.pendingNodes, node)
	}
}

// processEvents drains the events due this cycle.
func (n *Network) processEvents() {
	for _, ev := range n.wheel.take(n.now) {
		switch ev.kind {
		case evArrival:
			// The packet becomes visible to the allocator once the router
			// pipeline latency has elapsed.
			ready := n.now + int64(n.cfg.RouterPipeline)
			n.routers[ev.router].EnqueueArrival(int(ev.port), int(ev.vc), ev.ref, ready, ev.rkind)
			n.markRouterActive(ev.router)
		case evCredit:
			ev.buf.ReleaseCredit(int(ev.vc), int(ev.size), ev.rkind)
		case evDelivery:
			n.deliver(ev.ref)
		}
	}
}

// deliver consumes a packet at its destination node, collects the reply the
// destination now owes (reactive traffic), and recycles store slots that can
// no longer be referenced.
func (n *Network) deliver(ref packet.Ref) {
	n.store.Times(ref).Recv = n.now
	n.inFlight--
	n.collector.Delivered(n.store, ref, n.now)
	n.gen.Delivered(n.now, ref)
	if !n.cfg.Reactive {
		n.store.Free(ref)
		return
	}
	if hdr := n.store.Hdr(ref); hdr.Class == packet.Request {
		// Move the owed reply to the NIC immediately instead of polling every
		// node every cycle. The delivered request stays alive: its reply
		// references it through ReplyTo until the reply itself is delivered.
		if reply := n.gen.PendingReplies(hdr.Dst); reply != packet.NilRef {
			n.nodes[hdr.Dst].replies.push(reply)
			n.queueNode(hdr.Dst)
		}
		return
	}
	// A delivered reply closes its transaction: both the reply and the
	// request it retained are unreachable now.
	if req := n.store.ReplyTo(ref); req != packet.NilRef {
		n.store.Free(req)
	}
	n.store.Free(ref)
}

// genWindow bounds how far one look-ahead call runs a node's source past the
// cycle it starts from. A call pays a fixed price — a heap operation and the
// cache misses of reaching one node's 4.9 KB PRNG state — that a longer window
// spreads over more draws (BenchmarkInjectLowLoad: 19, 10 and 6.8 µs per cycle
// at 16, 64 and 256), while a run that ends, or swaps its generator, throws
// away up to a window of draws per node: at 256 that is 0.1-0.2 % of the
// replications the figures run.
const genWindow = 256

// A genDue key orders the nodes' next generator visits by (cycle, node): the
// cycle above genNodeBits+1 bits, the node, and in the lowest bit whether the
// node emits a packet at that cycle or merely resumes its look-ahead there.
const genNodeBits = 23

func genKey(cycle int64, node packet.NodeID, emits bool) int64 {
	k := cycle<<(genNodeBits+1) | int64(node)<<1
	if emits {
		k |= 1
	}
	return k
}

// armGenerators (re)starts every node's look-ahead at cycle `from`, drawing
// nothing yet: each node is queued to resume there.
func (n *Network) armGenerators(from int64) {
	n.genDue = n.genDue[:0]
	for node := range n.nodes {
		n.genDue.Push(genKey(from, packet.NodeID(node), false))
	}
}

// generate hands the nodes that hold no request the requests their sources
// emit this cycle. Traffic generation is scheduled, not polled: genDue holds,
// per such node, the next cycle its generator needs a visit — the cycle it
// emits a request, found by running its source ahead of the clock, or the
// cycle a look-ahead window ended without one. A node that holds a request is
// off the heap: tryInject pulls its next request when it injects this one.
// Each node's draws come from its own stream, so the order nodes are visited
// in does not matter.
func (n *Network) generate() {
	for len(n.genDue) > 0 {
		key := n.genDue[0]
		due := key >> (genNodeBits + 1)
		if due > n.now {
			break
		}
		if due < n.now {
			panic(fmt.Sprintf("sim: generator visit due at cycle %d was skipped (now %d)", due, n.now))
		}
		node := packet.NodeID(key >> 1 & (1<<genNodeBits - 1))
		if key&1 != 0 {
			n.genDue.Pop()
			n.emit(node, n.now)
		} else if next, ok := n.lookAhead(node, n.now); ok {
			n.genDue.ReplaceMin(next)
		} else {
			n.genDue.Pop()
		}
	}
}

// lookAhead runs node's source from cycle `from` to genWindow cycles past the
// clock. An emission at or before the clock becomes the node's waiting
// request (ok false); otherwise it returns the node's genDue key: the cycle
// of the emission it found, or the cycle the window ends.
func (n *Network) lookAhead(node packet.NodeID, from int64) (key int64, ok bool) {
	n.lookaheads++
	limit := n.now + genWindow
	c, emits := n.gen.NextEmission(node, from, limit)
	switch {
	case !emits:
		return genKey(limit, node, false), true
	case c > n.now:
		return genKey(c, node, true), true
	}
	n.emit(node, c)
	return 0, false
}

// emit makes the request node's source emits at cycle c the node's waiting
// request.
func (n *Network) emit(node packet.NodeID, c int64) {
	ns := &n.nodes[node]
	ns.reqGen, ns.reqDst, ns.hasReq = c, n.gen.Emit(c, node), true
	n.generated++
	n.collector.Generated()
	n.queueNode(node)
}

// inject runs the NIC model: sources due this cycle hand their nodes a
// request, then the injection attempt — class arbitration, JSQ over the
// injection VCs, credit reservation — runs for the nodes that actually hold
// work.
func (n *Network) inject() {
	n.generate()
	live := n.pendingNodes[:0]
	for _, node := range n.pendingNodes {
		ns := &n.nodes[node]
		if !ns.hasReq && ns.replies.empty() {
			ns.queued = false
			continue
		}
		live = append(live, node)
		if ns.nextInject > n.now {
			continue
		}
		n.tryInject(node, ns)
	}
	n.pendingNodes = live
}

// tryInject moves at most one packet from a node's NIC into the source
// router's injection buffers. When a request waits beside queued replies the
// classes alternate (round-robin): replies must keep draining (the
// consumption assumption that breaks protocol deadlock needs the NIC to
// absorb them), but a continuous reply stream must not starve locally
// generated requests forever either. A request gets its store slot only
// here, once an injection VC has been reserved for it; the node then looks
// ahead in its source from the cycle after the request's generation, taking
// the next request at once if it was emitted by now, and otherwise goes back
// on genDue.
func (n *Network) tryInject(node packet.NodeID, ns *nodeState) {
	n.injectTries++
	reply := !ns.replies.empty() && (!ns.hasReq || !ns.lastWasReply)
	size, kind := n.cfg.PacketSize, packet.Minimal
	if reply {
		ref := ns.replies.peek()
		size, kind = int(n.store.Hdr(ref).Size), n.store.Route(ref).Kind
	}
	rtr := n.topo.RouterOfNode(node)
	port := n.topo.TerminalPort(rtr, node)
	buf := n.routers[rtr].Input(port)
	// Pick the injection VC with the most free space (JSQ over the
	// injection queues); skip this cycle if none fits.
	bestVC, bestFree := -1, -1
	for vc := 0; vc < buf.NumVCs(); vc++ {
		if free := buf.FreeFor(vc); free >= size && free > bestFree {
			bestVC, bestFree = vc, free
		}
	}
	if bestVC < 0 {
		n.injectNoVC++
		return
	}
	if !buf.Reserve(bestVC, size, kind) {
		return
	}
	var ref packet.Ref
	if reply {
		ref = ns.replies.pop()
	} else {
		n.requestIDs++
		ref = traffic.NewRequest(n.store, n.topo, n.requestIDs, node, ns.reqDst, size, ns.reqGen)
		ns.hasReq = false
		if next, ok := n.lookAhead(node, ns.reqGen+1); ok {
			n.genDue.Push(next)
		}
	}
	ready := n.now + int64(n.cfg.InjectionLatency+n.cfg.RouterPipeline)
	n.routers[rtr].EnqueueArrival(port, bestVC, ref, ready, kind)
	n.markRouterActive(rtr)
	n.store.Times(ref).Inject = n.now
	n.collector.Injected()
	n.inFlight++
	ns.nextInject = n.now + int64(size)
	ns.lastWasReply = reply
}

// ResidentPackets returns the number of packets currently stored in router
// buffers across the network.
func (n *Network) ResidentPackets() int {
	total := 0
	for _, r := range n.routers {
		total += r.ResidentPackets()
	}
	return total
}
