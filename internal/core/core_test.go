package core

import (
	"math/rand"
	"strings"
	"testing"

	"flexvc/internal/packet"
	"flexvc/internal/topology"
)

func TestVCConfigBasics(t *testing.T) {
	c := TwoClass(3, 2, 2, 1)
	if c.Total() != (SubpathVCs{Local: 5, Global: 3}) {
		t.Fatalf("Total = %v", c.Total())
	}
	if c.ClassOffset(packet.Request, topology.Local) != 0 || c.ClassOffset(packet.Reply, topology.Local) != 3 {
		t.Fatal("ClassOffset broken")
	}
	if c.ClassCount(packet.Reply, topology.Global) != 1 {
		t.Fatal("ClassCount broken")
	}
	if c.ClassTop(packet.Request, topology.Local) != 3 || c.ClassTop(packet.Reply, topology.Local) != 5 {
		t.Fatal("ClassTop broken")
	}
	if !c.HasReply() || SingleClass(2, 1).HasReply() {
		t.Fatal("HasReply broken")
	}
	if got := c.String(); got != "5/3 (3/2+2/1)" {
		t.Fatalf("String = %q", got)
	}
	if got := SingleClass(4, 2).String(); got != "4/2" {
		t.Fatalf("String = %q", got)
	}
}

// TestAdmit checks the admission rule on the tiny Dragonfly (diameter 2/1):
// every class in use must hold a safe minimal path in its own subsequence,
// and the routing mode's reference path must be safe under the baseline or
// not forbidden under FlexVC, replies included.
func TestAdmit(t *testing.T) {
	df, _ := topology.NewDragonfly(1, 2, 1)
	fb, _ := topology.NewFlattenedButterfly2D(2, 1)
	for _, topo := range []topology.Topology{df, fb} {
		if hops := Reference(topo, ModeMIN).Hops(); hops != topo.Diameter() {
			t.Errorf("%s: MIN reference path spans %+v, want the diameter %+v", topo.Name(), hops, topo.Diameter())
		}
	}
	base, flex := Baseline, FlexVC
	for _, tc := range []struct {
		policy   Policy
		vcs      VCConfig
		mode     RoutingMode
		reactive bool
		want     string // "" when admitted, else a fragment of the error
	}{
		{base, SingleClass(2, 1), ModeMIN, false, ""},
		{base, SingleClass(1, 1), ModeMIN, false, "request subsequence 1/1 cannot hold a safe minimal path"},
		{base, TwoClass(2, 1, 2, 1), ModeMIN, true, ""},
		{base, TwoClass(2, 1, 1, 1), ModeMIN, true, "reply subsequence 1/1 cannot hold a safe minimal path"},
		{base, TwoClass(2, 1, 2, 1), ModeMIN, false, "single message class"},
		{base, SingleClass(4, 2), ModeVAL, false, ""},
		{base, SingleClass(3, 2), ModeVAL, false, "cannot support val routing (needs 4/2 per class)"},
		{base, SingleClass(4, 2), ModePAR, false, "cannot support par routing (needs 5/2 per class)"},
		{base, TwoClass(4, 2, 4, 2), ModeVAL, true, ""},
		{base, TwoClass(4, 2, 2, 1), ModeVAL, true, "cannot support val routing"},
		{base, TwoClass(5, 2, 4, 2), ModePAR, true, "cannot support par routing"},
		{flex, SingleClass(3, 2), ModeVAL, false, ""},
		{flex, SingleClass(2, 2), ModeVAL, false, "forbids val routing on dragonfly"},
		{flex, TwoClass(3, 2, 2, 1), ModePAR, true, ""},
		{flex, TwoClass(2, 1, 2, 1), ModeVAL, true, "forbids val routing"},
	} {
		err := Admit(Scheme{Policy: tc.policy, VCs: tc.vcs}, df, tc.mode, tc.reactive)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s %s %s reactive=%v: %v, want admitted", tc.policy, tc.vcs, tc.mode, tc.reactive, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s %s %s reactive=%v: %v, want an error mentioning %q", tc.policy, tc.vcs, tc.mode, tc.reactive, err, tc.want)
		}
	}
}

// TestInterleaveMatchesPaperReferences checks the canonical orderings against
// the reference paths spelled out in the paper.
func TestInterleaveMatchesPaperReferences(t *testing.T) {
	L, G := topology.Local, topology.Global
	cases := []struct {
		vl, vg int
		want   []topology.PortKind
	}{
		{2, 1, []topology.PortKind{L, G, L}},                            // l0-g1-l2 (MIN)
		{3, 2, []topology.PortKind{L, G, L, G, L}},                      // l0-g1-l2-g3-l4 (Section III-C)
		{4, 2, []topology.PortKind{L, G, L, L, G, L}},                   // l0-g1-l2-l3-g4-l5 (VAL)
		{5, 2, []topology.PortKind{L, L, G, L, L, G, L}},                // l0-l1-g2-l3-l4-g5-l6 (PAR)
		{8, 4, []topology.PortKind{L, G, L, L, G, L, L, G, L, L, G, L}}, // four MIN blocks
		{3, 0, []topology.PortKind{L, L, L}},                            // flat network
	}
	for _, c := range cases {
		got := interleave(c.vl, c.vg)
		if len(got) != len(c.want) {
			t.Fatalf("interleave(%d,%d) length %d, want %d", c.vl, c.vg, len(got), len(c.want))
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("interleave(%d,%d)[%d] = %v, want %v (%v)", c.vl, c.vg, i, got[i], c.want[i], got)
				break
			}
		}
	}
}

// TestOrderTableRanksIncrease checks that within each kind, ranks strictly
// increase with the VC index, and that reply VCs rank after request VCs.
func TestOrderTableRanksIncrease(t *testing.T) {
	cfgs := []VCConfig{SingleClass(2, 1), SingleClass(8, 4), TwoClass(4, 2, 2, 1), TwoClass(3, 2, 3, 2)}
	for _, cfg := range cfgs {
		for _, class := range []packet.Class{packet.Request, packet.Reply} {
			o := buildOrderTable(cfg, class)
			for _, kind := range []topology.PortKind{topology.Local, topology.Global} {
				prev := -1
				for i := 0; i < o.count(kind); i++ {
					r := o.rank(kind, i)
					if r <= prev {
						t.Fatalf("cfg %v class %v kind %v: rank not increasing at index %d", cfg, class, kind, i)
					}
					prev = r
				}
			}
		}
		// Reply visibility: the reply table covers request + reply VCs.
		rep := buildOrderTable(cfg, packet.Reply)
		if rep.count(topology.Local) != cfg.TotalOf(topology.Local) {
			t.Fatalf("cfg %v: reply order covers %d local VCs, want %d", cfg, rep.count(topology.Local), cfg.TotalOf(topology.Local))
		}
		req := buildOrderTable(cfg, packet.Request)
		if req.count(topology.Local) != cfg.ClassTop(packet.Request, topology.Local) {
			t.Fatalf("cfg %v: request order covers %d local VCs", cfg, req.count(topology.Local))
		}
	}
}

// seqEmbeds is an independent checker: does seq embed into the order at
// strictly increasing ranks with the first hop at VC index `first`?
func seqEmbeds(o *orderTable, seq topology.PathSeq, first int) bool {
	if seq.Len() == 0 || first >= o.count(seq.At(0)) {
		return false
	}
	rank := o.rank(seq.At(0), first)
	for i := 1; i < seq.Len(); i++ {
		idx := o.lowestIndexAtOrAboveRank(seq.At(i), rank+1)
		if idx >= o.count(seq.At(i)) {
			return false
		}
		rank = o.rank(seq.At(i), idx)
	}
	return true
}

// TestHighestFeasible checks hand-computed cases and the monotonicity
// property (every index at or below the returned one also embeds).
func TestHighestFeasible(t *testing.T) {
	L, G := topology.Local, topology.Global
	cases := []struct {
		cfg   VCConfig
		class packet.Class
		seq   topology.PathSeq
		want  int
		ok    bool
	}{
		// MIN with 2/1: the full l-g-l path must start at l0.
		{SingleClass(2, 1), packet.Request, topology.SeqOf(L, G, L), 0, true},
		// An l-g path (no destination-group hop) must also start at l0,
		// because the global hop needs a slot after it.
		{SingleClass(2, 1), packet.Request, topology.SeqOf(L, G), 0, true},
		// The final local hop may use l0 or l2 (index 1).
		{SingleClass(2, 1), packet.Request, topology.SeqOf(L), 1, true},
		// A lone global hop uses the only global VC.
		{SingleClass(2, 1), packet.Request, topology.SeqOf(G), 0, true},
		// A g-l suffix fits with the global at index 0.
		{SingleClass(2, 1), packet.Request, topology.SeqOf(G, L), 0, true},
		// Valiant path needs 4/2: with 2/1 it cannot start anywhere.
		{SingleClass(2, 1), packet.Request, topology.SeqOf(L, G, L, L, G, L), -1, false},
		// With 4/2 the Valiant path is safe starting at l0.
		{SingleClass(4, 2), packet.Request, topology.SeqOf(L, G, L, L, G, L), 0, true},
		// With 4/2, a minimal l-g-l path may start as high as local index 2.
		{SingleClass(4, 2), packet.Request, topology.SeqOf(L, G, L), 2, true},
		// Replies see the concatenated sequence: a minimal reply path over
		// 2/1+2/1 may start at local index 2 (the first reply VC).
		{TwoClass(2, 1, 2, 1), packet.Reply, topology.SeqOf(L, G, L), 2, true},
		// Requests are confined to the request subsequence.
		{TwoClass(2, 1, 2, 1), packet.Request, topology.SeqOf(L, G, L), 0, true},
		// A reply Valiant path over 2/1+2/1 dips into request VCs
		// opportunistically and starts at l0.
		{TwoClass(2, 1, 2, 1), packet.Reply, topology.SeqOf(L, G, L, L, G, L), 0, true},
		// A request Valiant path over 2/1+2/1 is impossible.
		{TwoClass(2, 1, 2, 1), packet.Request, topology.SeqOf(L, G, L, L, G, L), -1, false},
	}
	for _, c := range cases {
		o := buildOrderTable(c.cfg, c.class)
		got, ok := o.highestFeasible(c.seq)
		if ok != c.ok || (ok && got != c.want) {
			t.Errorf("cfg %v class %v seq %v: highestFeasible = (%d,%v), want (%d,%v)",
				c.cfg, c.class, c.seq, got, ok, c.want, c.ok)
			continue
		}
		if ok {
			for j := 0; j <= got; j++ {
				if !seqEmbeds(&o, c.seq, j) {
					t.Errorf("cfg %v seq %v: index %d <= hi %d does not embed", c.cfg, c.seq, j, got)
				}
			}
			if got+1 < o.count(c.seq.At(0)) && seqEmbeds(&o, c.seq, got+1) {
				t.Errorf("cfg %v seq %v: index %d above hi embeds, hi not maximal", c.cfg, c.seq, got+1)
			}
		}
	}
}

func TestSelectionFunctions(t *testing.T) {
	cands := []VCCandidate{{VC: 0, Free: 8}, {VC: 1, Free: 16}, {VC: 2, Free: 4}, {VC: 3, Free: 16}}
	if vc, ok := JSQ.Select(cands, 8, nil); !ok || vc != 1 {
		t.Errorf("JSQ picked %d (ties break to the lowest index)", vc)
	}
	if vc, ok := HighestVC.Select(cands, 8, nil); !ok || vc != 3 {
		t.Errorf("HighestVC picked %d", vc)
	}
	if vc, ok := LowestVC.Select(cands, 8, nil); !ok || vc != 0 {
		t.Errorf("LowestVC picked %d", vc)
	}
	if vc, ok := RandomVC.Select(cands, 8, nil); !ok || vc == 2 {
		t.Errorf("RandomVC picked %d (without an rng it must pick the first eligible)", vc)
	}
	if _, ok := JSQ.Select(cands, 32, nil); ok {
		t.Error("selection should fail when nothing fits")
	}
	if _, ok := JSQ.Select(nil, 8, nil); ok {
		t.Error("selection over no candidates should fail")
	}
	for _, fn := range SelectionFns {
		parsed, err := ParseSelectionFn(fn.String())
		if err != nil || parsed != fn {
			t.Errorf("ParseSelectionFn round-trip failed for %v", fn)
		}
	}
	if _, err := ParseSelectionFn("bogus"); err == nil {
		t.Error("expected error for unknown selection function")
	}
}

// TestRandomVCDrawsLikeAList: RandomVC makes one Intn draw over the eligible
// VCs and returns the drawn one, as indexing a list of them would, so the
// stream and the choice stay what they were when it built that list.
func TestRandomVCDrawsLikeAList(t *testing.T) {
	gen := rand.New(rand.NewSource(5))
	got, want := rand.New(rand.NewSource(9)), rand.New(rand.NewSource(9))
	for i := 0; i < 2000; i++ {
		cands := make([]VCCandidate, gen.Intn(6))
		var eligible []int
		for j := range cands {
			cands[j] = VCCandidate{VC: j, Free: gen.Intn(24)}
			if cands[j].Free >= 8 {
				eligible = append(eligible, j)
			}
		}
		vc, ok := RandomVC.Select(cands, 8, got)
		if len(eligible) == 0 {
			if ok {
				t.Fatalf("case %d: picked %d with nothing eligible", i, vc)
			}
			continue
		}
		if w := eligible[want.Intn(len(eligible))]; !ok || vc != w {
			t.Fatalf("case %d %v: picked (%d, %v), the list pick is %d", i, cands, vc, ok, w)
		}
	}
	if got.Int63() != want.Int63() {
		t.Error("RandomVC drew a different number of values than the list pick")
	}
}

// TestSelectAllocs pins every selection function at zero allocations.
func TestSelectAllocs(t *testing.T) {
	cands := []VCCandidate{{VC: 0, Free: 8}, {VC: 1, Free: 16}, {VC: 2, Free: 4}, {VC: 3, Free: 16}}
	rng := rand.New(rand.NewSource(1))
	for _, fn := range SelectionFns {
		if a := testing.AllocsPerRun(100, func() { fn.Select(cands, 8, rng) }); a != 0 {
			t.Errorf("%v: Select allocates %v times, want 0", fn, a)
		}
	}
}

func TestSchemeString(t *testing.T) {
	s := Scheme{Policy: FlexVC, VCs: TwoClass(4, 2, 2, 1), Selection: JSQ, MinCred: true}
	if got := s.String(); got != "flexvc-minCred 6/3 (4/2+2/1) jsq" {
		t.Errorf("Scheme.String = %q", got)
	}
	if Baseline.String() != "baseline" || FlexVC.String() != "flexvc" {
		t.Error("Policy.String broken")
	}
}
