package traffic

import (
	"fmt"
	"testing"

	"flexvc/internal/packet"
)

// emission is one generated packet as the simulator sees it. IDs are the
// allocating caller's, not the stream's, so they are left out.
type emission struct {
	cycle int64
	node  packet.NodeID
	dst   packet.NodeID
	ref   packet.Ref
	reply packet.Ref // the reply owed for it (reactive generators), else NilRef
}

// record notes a new packet and at once delivers it, so a reactive generator
// allocates its reply from the same store in between the requests. Every
// third slot is freed: store slots recycle, and a ref only matches if the
// allocation order does.
func record(st *packet.Store, g Generator, now int64, node packet.NodeID, ref packet.Ref) emission {
	h := st.Hdr(ref)
	e := emission{cycle: now, node: node, dst: h.Dst, ref: ref}
	g.Delivered(now, ref)
	e.reply = g.PendingReplies(h.Dst)
	if ref%3 == 0 && e.reply == packet.NilRef {
		st.Free(ref)
	}
	return e
}

// polledStream polls every node every cycle of [from, to).
func polledStream(st *packet.Store, g Generator, nodes int, from, to int64) []emission {
	var out []emission
	for now := from; now < to; now++ {
		for n := 0; n < nodes; n++ {
			if ref := g.Generate(now, packet.NodeID(n)); ref != packet.NilRef {
				out = append(out, record(st, g, now, packet.NodeID(n), ref))
			}
		}
	}
	return out
}

// scheduledStream drives a generator the way the simulator does: every node
// has a due cycle at which it either emits or resumes its look-ahead, and due
// nodes are served in ascending node order. The last window is cut at
// `cycles`, so afterwards every node's source stands exactly there. Each
// emitted request is allocated at once, so a reactive generator's reply slots
// interleave with the requests' as they do under polling.
func scheduledStream(g Generator, p Params, cycles, window int64) []emission {
	st, nodes := p.Store, p.Topo.NumNodes()
	var id uint64
	due := make([]int64, nodes)
	emits := make([]bool, nodes)
	var out []emission
	for now := int64(0); now < cycles; now++ {
		for n := 0; n < nodes; n++ {
			node := packet.NodeID(n)
			for due[n] == now {
				from := now
				if emits[n] {
					id++
					ref := NewRequest(st, p.Topo, id, node, g.Emit(now, node), p.PacketSize, now)
					out = append(out, record(st, g, now, node, ref))
					from++
				}
				limit := min(from+window, cycles)
				if c, ok := g.NextEmission(node, from, limit); ok {
					due[n], emits[n] = c, true
				} else {
					due[n], emits[n] = limit, false
				}
			}
		}
	}
	return out
}

// TestLookaheadMatchesPolling is the equivalence the scheduled NIC model rests
// on: running each node's source ahead of the clock in windows and building
// packets when the clock arrives yields the packets — cycle, node,
// destination, ID, store ref, owed reply — polling every node every cycle
// yields, and leaves every node's stream where polling leaves it.
func TestLookaheadMatchesPolling(t *testing.T) {
	const cycles, tail = 400, 60
	ramp := func(p *Params) {
		end := 0.9
		p.LoadEnd, p.RampStart, p.RampCycles = &end, 50, 200
	}
	type variant struct {
		name     string
		load     float64
		mut      func(*Params)
		reactive bool
	}
	variants := []variant{
		{name: "load 0.4", load: 0.4},
		{name: "load 0", load: 0},
		{name: "load 1", load: 1},
		{name: "ramped", load: 0.1, mut: ramp},
		{name: "reactive", load: 0.4, reactive: true},
		{name: "reactive ramped", load: 0.1, mut: ramp, reactive: true},
	}
	patterns := []string{NameUniform, NameAdversarial, NameBursty, NameTranspose, NameBitReverse, NameShuffle, NameGroupHotspot}
	for _, pattern := range patterns {
		for _, v := range variants {
			build := func() (Generator, Params) {
				p := params(t, v.load)
				if v.mut != nil {
					v.mut(&p)
				}
				g, err := New(pattern, p, v.reactive)
				if err != nil {
					t.Fatal(err)
				}
				return g, p
			}
			checkLookahead(t, pattern+" "+v.name, build, cycles, tail)
		}
	}
}

// TestLookaheadCrossesPhases runs a Switchable whose first boundaries fall
// inside, at the end of and one past the first look-ahead window (the first
// phase is silent, so that window is not cut short by an emission), with
// stateful and ramped phases behind them.
func TestLookaheadCrossesPhases(t *testing.T) {
	for _, window := range lookaheadWindows {
		for _, first := range []int64{window - 1, window, window + 1} {
			if first == 0 {
				continue
			}
			end := 0.8
			phases := []PhaseSpec{
				{Pattern: "uniform", Load: 0, Cycles: first},
				{Pattern: "bursty-un", Load: 0.5, Cycles: 2*window + 1},
				{Pattern: "adversarial", Load: 0.1, LoadEnd: &end, Cycles: 90},
				{Pattern: "uniform", Load: 1, Cycles: 1},
				{Pattern: "group-hotspot", Load: 0.3, Cycles: window},
				{Pattern: "bursty-un", Load: 0.2, LoadEnd: &end, Cycles: 60},
			}
			var total int64
			for _, ph := range phases {
				total += ph.Cycles
			}
			for _, reactive := range []bool{false, true} {
				build := func() (Generator, Params) {
					p := params(t, 0)
					var g Generator
					g, err := NewSwitchable(p, phases)
					if err != nil {
						t.Fatal(err)
					}
					if reactive {
						g = NewReactive(g, p)
					}
					return g, p
				}
				// Past the last boundary too: the last phase keeps running.
				name := fmt.Sprintf("first phase %d cycles, reactive %v", first, reactive)
				checkLookaheadWindow(t, name, build, total+20, 30, window)
			}
		}
	}
}

var lookaheadWindows = []int64{1, 2, 7, 64}

func checkLookahead(t *testing.T, name string, build func() (Generator, Params), cycles, tail int64) {
	t.Helper()
	for _, window := range lookaheadWindows {
		checkLookaheadWindow(t, name, build, cycles, tail, window)
	}
}

// checkLookaheadWindow compares a scheduled generator against a polled twin
// over [0, cycles), then polls both over the next `tail` cycles: the streams
// only agree there if every node's PRNG and source state ended up where
// polling left them.
func checkLookaheadWindow(t *testing.T, name string, build func() (Generator, Params), cycles, tail, window int64) {
	t.Helper()
	polled, pp := build()
	sched, sp := build()
	polledStore, schedStore := pp.Store, sp.Store
	nodes := testTopo(t).NumNodes()
	want := polledStream(polledStore, polled, nodes, 0, cycles)
	got := scheduledStream(sched, sp, cycles, window)
	if err := sameEmissions(got, want); err != nil {
		t.Fatalf("%s, window %d: %v", name, window, err)
	}
	want = polledStream(polledStore, polled, nodes, cycles, cycles+tail)
	got = polledStream(schedStore, sched, nodes, cycles, cycles+tail)
	if err := sameEmissions(got, want); err != nil {
		t.Fatalf("%s, window %d: streams differ after the look-ahead: %v", name, window, err)
	}
}

func sameEmissions(got, want []emission) error {
	for i := range want {
		if i >= len(got) {
			return fmt.Errorf("%d packets, want %d; first missing %+v", len(got), len(want), want[i])
		}
		if got[i] != want[i] {
			return fmt.Errorf("packet %d is %+v, polling gives %+v", i, got[i], want[i])
		}
	}
	if len(got) > len(want) {
		return fmt.Errorf("%d packets, want %d; first extra %+v", len(got), len(want), got[len(want)])
	}
	return nil
}

// TestLookaheadStreamsNotVacuous keeps the equivalence tests honest: the
// generators they drive must emit, and the silent ones must not.
func TestLookaheadStreamsNotVacuous(t *testing.T) {
	for _, tc := range []struct {
		load float64
		some bool
	}{{0.4, true}, {1, true}, {0, false}} {
		p := params(t, tc.load)
		g, err := New("bursty-un", p, true)
		if err != nil {
			t.Fatal(err)
		}
		out := scheduledStream(g, p, 400, 7)
		if (len(out) > 0) != tc.some {
			t.Errorf("load %g: %d packets", tc.load, len(out))
		}
		for _, e := range out {
			if e.reply == packet.NilRef {
				t.Fatalf("load %g: reactive generator owed no reply for %+v", tc.load, e)
			}
		}
	}
}

// TestPendingRepliesReusesQueue: the simulator pops each reply as soon as it
// is owed, so the per-node queue is one deep; popping must keep its backing
// array, or every reply allocates one.
func TestPendingRepliesReusesQueue(t *testing.T) {
	p := params(t, 0)
	base, err := New("uniform", p, false)
	if err != nil {
		t.Fatal(err)
	}
	g := NewReactive(base, p)
	req := p.Store.Alloc(1, 0, 5, 8, packet.Request, 0)
	cycle := func() {
		g.Delivered(0, req)
		reply := g.PendingReplies(5)
		if reply == packet.NilRef || g.PendingReplyCount(5) != 0 {
			t.Fatal("the owed reply was not popped")
		}
		p.Store.Free(reply)
	}
	cycle() // the queue and the store slot reach their capacity
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("%v allocations per delivered request and popped reply, want 0", allocs)
	}
	// Deeper queues still pop in order.
	g.Delivered(0, req)
	g.Delivered(0, req)
	a, b := g.PendingReplies(5), g.PendingReplies(5)
	if a == packet.NilRef || b == packet.NilRef || a == b || g.PendingReplies(5) != packet.NilRef {
		t.Fatalf("two owed replies popped as %d, %d", a, b)
	}
	if p.Store.Hdr(a).ID >= p.Store.Hdr(b).ID {
		t.Fatalf("replies popped out of order: IDs %d then %d", p.Store.Hdr(a).ID, p.Store.Hdr(b).ID)
	}
}
