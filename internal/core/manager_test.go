package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"flexvc/internal/packet"
	"flexvc/internal/topology"
)

// TestBaselinePositionalAssignment checks the fixed-order VC of the baseline
// policy for the canonical Dragonfly cases (the l0-g1-l2 notation).
func TestBaselinePositionalAssignment(t *testing.T) {
	L, G := topology.Local, topology.Global
	mgr := NewManager(Scheme{Policy: Baseline, VCs: SingleClass(4, 2), Selection: JSQ})
	cases := []struct {
		name string
		ctx  HopContext
		want int
	}{
		{"source-group local hop", HopContext{Class: packet.Request, Kind: L, RefPosition: topology.HopCount{Local: 0}}, 0},
		{"destination-group local hop", HopContext{Class: packet.Request, Kind: L, RefPosition: topology.HopCount{Local: 1}}, 1},
		{"first global hop", HopContext{Class: packet.Request, Kind: G, RefPosition: topology.HopCount{Global: 0}}, 0},
		{"second global hop", HopContext{Class: packet.Request, Kind: G, RefPosition: topology.HopCount{Global: 1}}, 1},
		{"valiant dest-group local hop", HopContext{Class: packet.Request, Kind: L, RefPosition: topology.HopCount{Local: 3}}, 3},
	}
	for _, c := range cases {
		r := mgr.AllowedVCs(c.ctx)
		if r.Empty() || r.Lo != r.Hi || r.Lo != c.want {
			t.Errorf("%s: got range [%d,%d], want exactly VC %d", c.name, r.Lo, r.Hi, c.want)
		}
	}
	// Positions beyond the configured VCs are forbidden.
	r := mgr.AllowedVCs(HopContext{Class: packet.Request, Kind: L, RefPosition: topology.HopCount{Local: 4}})
	if !r.Empty() {
		t.Error("position beyond the VC count must be forbidden")
	}
}

// TestBaselineReplyOffset checks that reply packets are confined to the reply
// subsequence under the baseline policy.
func TestBaselineReplyOffset(t *testing.T) {
	mgr := NewManager(Scheme{Policy: Baseline, VCs: TwoClass(2, 1, 2, 1), Selection: JSQ})
	r := mgr.AllowedVCs(HopContext{Class: packet.Reply, Kind: topology.Local, RefPosition: topology.HopCount{Local: 1}})
	if r.Lo != 3 || r.Hi != 3 {
		t.Errorf("reply dest-group hop should use VC 3 (offset 2 + position 1), got [%d,%d]", r.Lo, r.Hi)
	}
	g := mgr.AllowedVCs(HopContext{Class: packet.Reply, Kind: topology.Global, RefPosition: topology.HopCount{Global: 0}})
	if g.Lo != 1 || g.Hi != 1 {
		t.Errorf("reply global hop should use VC 1, got [%d,%d]", g.Lo, g.Hi)
	}
}

// TestFlexVCRangesDragonflyMIN checks the allowed ranges of FlexVC with the
// minimal 2/1 VC set, including the case that broke the naive per-kind rule
// (a source-group hop of an l-g path must not use the last local VC, because
// the global hop still needs a later slot).
func TestFlexVCRangesDragonflyMIN(t *testing.T) {
	L, G := topology.Local, topology.Global
	mgr := NewManager(Scheme{Policy: FlexVC, VCs: SingleClass(2, 1), Selection: JSQ})

	// Source-group hop of a full l-g-l path.
	r := mgr.AllowedVCs(HopContext{
		Class: packet.Request, Kind: L, InputKind: topology.Terminal, InputVC: -1,
		PlannedAfter: topology.SeqOf(G, L), EscapeAfter: topology.SeqOf(G, L),
	})
	if r.Lo != 0 || r.Hi != 0 || !r.Safe {
		t.Errorf("l-g-l source hop: got [%d,%d] safe=%v, want exactly VC0 safe", r.Lo, r.Hi, r.Safe)
	}

	// Source-group hop of an l-g path (no destination-group hop): still VC0
	// only, because the global hop needs a slot after the local one.
	r = mgr.AllowedVCs(HopContext{
		Class: packet.Request, Kind: L, InputKind: topology.Terminal, InputVC: -1,
		PlannedAfter: topology.SeqOf(G), EscapeAfter: topology.SeqOf(G),
	})
	if r.Lo != 0 || r.Hi != 0 {
		t.Errorf("l-g source hop: got [%d,%d], want exactly VC0", r.Lo, r.Hi)
	}

	// Destination-group hop: both local VCs allowed.
	r = mgr.AllowedVCs(HopContext{
		Class: packet.Request, Kind: L, InputKind: G, InputVC: 0,
		PlannedAfter: topology.PathSeq{}, EscapeAfter: topology.PathSeq{},
	})
	if r.Lo != 0 || r.Hi != 1 || !r.Safe {
		t.Errorf("destination hop: got [%d,%d] safe=%v, want [0,1] safe", r.Lo, r.Hi, r.Safe)
	}

	// Global hop: single global VC.
	r = mgr.AllowedVCs(HopContext{
		Class: packet.Request, Kind: G, InputKind: L, InputVC: 0,
		PlannedAfter: topology.SeqOf(L), EscapeAfter: topology.SeqOf(L),
	})
	if r.Lo != 0 || r.Hi != 0 {
		t.Errorf("global hop: got [%d,%d], want exactly VC0", r.Lo, r.Hi)
	}
}

// TestFlexVCExploitsExtraVCs checks that FlexVC lets minimal traffic use the
// VCs provisioned for Valiant routing (4/2), which the baseline cannot.
func TestFlexVCExploitsExtraVCs(t *testing.T) {
	L, G := topology.Local, topology.Global
	mgr := NewManager(Scheme{Policy: FlexVC, VCs: SingleClass(4, 2), Selection: JSQ})

	src := mgr.AllowedVCs(HopContext{
		Class: packet.Request, Kind: L, InputKind: topology.Terminal, InputVC: -1,
		PlannedAfter: topology.SeqOf(G, L), EscapeAfter: topology.SeqOf(G, L),
	})
	if src.Lo != 0 || src.Hi != 2 {
		t.Errorf("MIN source hop over 4/2: got [%d,%d], want [0,2]", src.Lo, src.Hi)
	}
	glob := mgr.AllowedVCs(HopContext{
		Class: packet.Request, Kind: G, InputKind: L, InputVC: 0,
		PlannedAfter: topology.SeqOf(L), EscapeAfter: topology.SeqOf(L),
	})
	if glob.Lo != 0 || glob.Hi != 1 {
		t.Errorf("MIN global hop over 4/2: got [%d,%d], want [0,1]", glob.Lo, glob.Hi)
	}
	dst := mgr.AllowedVCs(HopContext{
		Class: packet.Request, Kind: L, InputKind: G, InputVC: 1,
		PlannedAfter: topology.PathSeq{}, EscapeAfter: topology.PathSeq{},
	})
	if dst.Lo != 0 || dst.Hi != 3 {
		t.Errorf("MIN destination hop over 4/2: got [%d,%d], want [0,3]", dst.Lo, dst.Hi)
	}
}

// TestFlexVCOpportunisticValiant checks the 3/2 configuration of Section
// III-C: Valiant paths are not safe but every hop remains feasible
// opportunistically.
func TestFlexVCOpportunisticValiant(t *testing.T) {
	L, G := topology.Local, topology.Global
	mgr := NewManager(Scheme{Policy: FlexVC, VCs: SingleClass(3, 2), Selection: JSQ})

	// First hop of a Valiant path (planned l-g-l-l-g-l does not fit) with a
	// minimal escape of l-g-l: allowed, not safe.
	r := mgr.AllowedVCs(HopContext{
		Class: packet.Request, Kind: L, InputKind: topology.Terminal, InputVC: -1,
		PlannedAfter: topology.SeqOf(G, L, L, G, L), EscapeAfter: topology.SeqOf(G, L),
	})
	if r.Empty() || r.Safe {
		t.Errorf("first Valiant hop over 3/2 should be opportunistic and feasible, got %+v", r)
	}
	// A packet already sitting in the last local VC cannot take a hop that
	// still needs a global slot afterwards.
	r = mgr.AllowedVCs(HopContext{
		Class: packet.Request, Kind: L, InputKind: L, InputVC: 2,
		PlannedAfter: topology.SeqOf(G, L, L, G, L), EscapeAfter: topology.SeqOf(G, L),
	})
	if !r.Empty() {
		t.Errorf("opportunistic hop from the last local VC with a global escape must be forbidden, got %+v", r)
	}
}

// TestFlexVCRequestReplySharing checks that replies may dip into request VCs
// while requests stay inside their own subsequence.
func TestFlexVCRequestReplySharing(t *testing.T) {
	L, G := topology.Local, topology.Global
	mgr := NewManager(Scheme{Policy: FlexVC, VCs: TwoClass(4, 2, 2, 1), Selection: JSQ})

	// Reply on a minimal destination-group hop: any of the 6 local VCs.
	rep := mgr.AllowedVCs(HopContext{
		Class: packet.Reply, Kind: L, InputKind: G, InputVC: 2,
		PlannedAfter: topology.PathSeq{}, EscapeAfter: topology.PathSeq{},
	})
	if rep.Lo != 0 || rep.Hi != 5 {
		t.Errorf("reply destination hop: got [%d,%d], want [0,5]", rep.Lo, rep.Hi)
	}
	// Reply on a Valiant path (6 hops): does not fit the reply subsequence,
	// fits the concatenated sequence opportunistically.
	repVal := mgr.AllowedVCs(HopContext{
		Class: packet.Reply, Kind: L, InputKind: topology.Terminal, InputVC: -1,
		PlannedAfter: topology.SeqOf(G, L, L, G, L), EscapeAfter: topology.SeqOf(G, L),
	})
	if repVal.Empty() {
		t.Error("reply Valiant hop over 4/2+2/1 should be feasible via request VCs")
	}
	// Request on the same hop must stay within the request subsequence
	// (4 local VCs): safe because 4/2 holds a Valiant path.
	req := mgr.AllowedVCs(HopContext{
		Class: packet.Request, Kind: L, InputKind: topology.Terminal, InputVC: -1,
		PlannedAfter: topology.SeqOf(G, L, L, G, L), EscapeAfter: topology.SeqOf(G, L),
	})
	if req.Empty() || req.Hi > 3 {
		t.Errorf("request Valiant hop must stay in request VCs, got [%d,%d]", req.Lo, req.Hi)
	}
}

// TestAllowedVCsNeverExceedClassTop is a property test: for random contexts,
// the returned range stays within the class-visible VC indices and Lo <= Hi
// whenever non-empty.
func TestAllowedVCsNeverExceedClassTop(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	cfgs := []VCConfig{
		SingleClass(2, 1), SingleClass(3, 2), SingleClass(4, 2), SingleClass(8, 4),
		TwoClass(2, 1, 2, 1), TwoClass(4, 2, 2, 1), TwoClass(3, 2, 3, 2),
	}
	kinds := []topology.PortKind{topology.Local, topology.Global}
	randSeq := func() topology.PathSeq {
		var s topology.PathSeq
		n := rng.Intn(6)
		for i := 0; i < n; i++ {
			s.Push(kinds[rng.Intn(2)])
		}
		return s
	}
	f := func() bool {
		cfg := cfgs[rng.Intn(len(cfgs))]
		policy := Policy(rng.Intn(2))
		class := packet.Class(rng.Intn(2))
		if !cfg.HasReply() {
			class = packet.Request
		}
		mgr := NewManager(Scheme{Policy: policy, VCs: cfg, Selection: JSQ})
		kind := kinds[rng.Intn(2)]
		inKind := kinds[rng.Intn(2)]
		ctx := HopContext{
			Class:        class,
			Kind:         kind,
			InputKind:    inKind,
			InputVC:      rng.Intn(cfg.ClassTop(class, inKind)+1) - 1,
			RefPosition:  topology.HopCount{Local: rng.Intn(6), Global: rng.Intn(3)},
			PlannedAfter: randSeq(),
			EscapeAfter:  randSeq(),
		}
		r := mgr.AllowedVCs(ctx)
		if r.Empty() {
			return true
		}
		top := cfg.ClassTop(class, kind)
		return r.Lo >= 0 && r.Lo <= r.Hi && r.Hi < top
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

// TestVCRangeHelpers covers the small VCRange helpers.
func TestVCRangeHelpers(t *testing.T) {
	r := VCRange{Lo: 1, Hi: 3}
	if r.Empty() || !r.Contains(2) || r.Contains(0) || r.Contains(4) {
		t.Error("VCRange helpers broken")
	}
	e := VCRange{Lo: 1, Hi: 0}
	if !e.Empty() || e.Contains(0) {
		t.Error("empty VCRange helpers broken")
	}
}

// TestTerminalHop checks that consumption hops are always allowed.
func TestTerminalHop(t *testing.T) {
	mgr := NewManager(Scheme{Policy: FlexVC, VCs: SingleClass(2, 1), Selection: JSQ})
	r := mgr.AllowedVCs(HopContext{Class: packet.Request, Kind: topology.Terminal})
	if r.Empty() || !r.Safe {
		t.Error("terminal hops must always be allowed")
	}
}
