package packet

import (
	"fmt"
	"strings"
	"testing"
)

func TestStoreAllocBasics(t *testing.T) {
	s := NewStore()
	ref := s.Alloc(42, 3, 9, 8, Request, 100)
	h := s.Hdr(ref)
	if h.ID != 42 || h.Src != 3 || h.Dst != 9 || h.Size != 8 || h.Class != Request {
		t.Fatal("header fields broken")
	}
	if h.SrcRouter != InvalidRouter || h.DstRouter != InvalidRouter {
		t.Fatal("endpoint routers should start invalid")
	}
	if s.Times(ref).Gen != 100 {
		t.Fatal("gen time broken")
	}
	r := s.Route(ref)
	if r.Kind != Minimal || r.Phase != PhaseToDestination || r.InputVC != -1 {
		t.Fatal("route state defaults broken")
	}
	if r.Intermediate != InvalidRouter {
		t.Fatal("intermediate default broken")
	}
	s.Times(ref).Inject = 110
	s.Times(ref).Recv = 250
	if s.Latency(ref) != 150 || s.NetworkLatency(ref) != 140 {
		t.Fatal("latency helpers broken")
	}
	if !strings.Contains(s.Describe(ref), "id=42") {
		t.Fatalf("Describe broken: %s", s.Describe(ref))
	}
}

func TestStoreRecycling(t *testing.T) {
	s := NewStore()
	a := s.Alloc(1, 0, 1, 8, Request, 0)
	b := s.Alloc(2, 1, 2, 8, Request, 0)
	if a == b {
		t.Fatal("distinct live packets share a ref")
	}
	if s.Slots() != 2 || s.InUse() != 2 {
		t.Fatalf("Slots/InUse broken: %d/%d", s.Slots(), s.InUse())
	}
	s.Free(b)
	if s.InUse() != 1 {
		t.Fatalf("InUse after free: %d", s.InUse())
	}
	c := s.Alloc(3, 2, 3, 8, Reply, 7)
	if c != b {
		t.Fatalf("free-list should recycle the last freed index: got %d want %d", c, b)
	}
	// The recycled slot must be fully re-initialised.
	h, r := s.Hdr(c), s.Route(c)
	if h.ID != 3 || h.Class != Reply || r.Kind != Minimal || r.InputVC != -1 || s.ReplyTo(c) != NilRef {
		t.Fatal("recycled slot not reset")
	}
	news, reuses := s.Stats()
	if news != 2 || reuses != 1 {
		t.Fatalf("stats: news=%d reuses=%d", news, reuses)
	}
}

func TestStoreReplyLink(t *testing.T) {
	s := NewStore()
	req := s.Alloc(1, 0, 1, 8, Request, 0)
	rep := s.Alloc(2, 1, 0, 8, Reply, 5)
	s.SetReplyTo(rep, req)
	if s.ReplyTo(rep) != req {
		t.Fatal("reply link broken")
	}
	s.Free(rep)
	// Free must clear the link so a recycled slot carries no stale retain.
	rep2 := s.Alloc(3, 1, 0, 8, Reply, 6)
	if rep2 != rep || s.ReplyTo(rep2) != NilRef {
		t.Fatal("reply link survived recycling")
	}
	_ = req
}

func TestStoreReset(t *testing.T) {
	s := NewStore()
	for i := 0; i < 10; i++ {
		s.Alloc(uint64(i), 0, 1, 8, Request, 0)
	}
	s.Free(3)
	s.Reset()
	if s.Slots() != 0 || s.InUse() != 0 {
		t.Fatal("Reset left slots behind")
	}
	news, reuses := s.Stats()
	if news != 0 || reuses != 0 {
		t.Fatal("Reset left counters behind")
	}
	ref := s.Alloc(1, 0, 1, 8, Request, 0)
	if ref != 0 {
		t.Fatalf("post-Reset alloc should restart at slot 0, got %d", ref)
	}
}

// TestStorePagesNeverMove: accessor pointers taken before an Alloc that opens
// a new page still address the same packet afterwards.
func TestStorePagesNeverMove(t *testing.T) {
	s := NewStore()
	var last Ref
	for i := 0; i < pageSize; i++ {
		last = s.Alloc(uint64(i), 0, 1, 8, Request, int64(i))
	}
	hdr, route, times := s.Hdr(last), s.Route(last), s.Times(last)
	next := s.Alloc(pageSize, 2, 3, 8, Reply, 7)
	if next>>pageBits == last>>pageBits {
		t.Fatalf("refs %d and %d share a page; the test needs a page boundary", last, next)
	}
	route.Hops = 5
	if hdr.ID != pageSize-1 || times.Gen != pageSize-1 || s.Route(last).Hops != 5 {
		t.Fatalf("pointers taken before the new page no longer address packet %d: %+v %+v", last, *hdr, *times)
	}
	if s.Hdr(next).ID != pageSize || s.Hdr(next).Src != 2 {
		t.Fatal("the new page's first packet is broken")
	}
}

// TestStorePoisonAcrossPages: poison mode panics on dead refs on both sides
// of a page boundary, and on refs past the last slot handed out.
func TestStorePoisonAcrossPages(t *testing.T) {
	s := NewStore()
	s.EnablePoison()
	refs := make([]Ref, pageSize+2)
	for i := range refs {
		refs[i] = s.Alloc(uint64(i), 0, 1, 8, Request, 0)
	}
	mustPanic := func(what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", what)
			}
		}()
		f()
	}
	for _, ref := range []Ref{pageSize - 1, pageSize} {
		s.Free(ref)
		mustPanic(fmt.Sprintf("Hdr of freed ref %d", ref), func() { s.Hdr(ref) })
		mustPanic(fmt.Sprintf("double free of ref %d", ref), func() { s.Free(ref) })
	}
	mustPanic("Route past the last slot", func() { s.Route(pageSize + 2) })
	// The live neighbours on either side stay readable.
	if s.Hdr(pageSize-2).ID != pageSize-2 || s.Hdr(pageSize+1).ID != pageSize+1 {
		t.Fatal("live neighbours of the freed refs broken")
	}
	s.Reset()
	mustPanic("Hdr after Reset", func() { s.Hdr(0) })
}

func TestRouteStateReset(t *testing.T) {
	s := NewStore()
	ref := s.Alloc(1, 0, 1, 8, Reply, 0)
	r := s.Route(ref)
	r.Kind = Nonminimal
	r.Phase = PhaseToIntermediate
	r.Intermediate = 7
	r.RefSlot = 3
	r.Hops = 2
	r.InputVC = 4
	r.AdaptiveDecided = true
	r.Reset()
	if r.Kind != Minimal || r.Phase != PhaseToDestination ||
		r.Intermediate != InvalidRouter || r.RefSlot != -1 ||
		r.Hops != 0 || r.InputVC != -1 || r.AdaptiveDecided {
		t.Fatalf("Reset left state behind: %+v", *r)
	}
}

func TestStringers(t *testing.T) {
	if Request.String() != "request" || Reply.String() != "reply" {
		t.Error("Class.String broken")
	}
	if Class(9).String() == "" {
		t.Error("unknown class should still stringify")
	}
	if Minimal.String() != "minimal" || Nonminimal.String() != "nonminimal" {
		t.Error("RouteKind.String broken")
	}
	if NumClasses != 2 {
		t.Error("NumClasses should be 2")
	}
	if s := (&Store{}).Describe(NilRef); s != "pkt{nil}" {
		t.Errorf("NilRef describe: %s", s)
	}
}
