package core

import (
	"flexvc/internal/packet"
	"flexvc/internal/topology"
)

// Manager is the runtime form of a Scheme: it carries the precomputed
// canonical VC orderings the FlexVC rules need and answers the per-hop
// allowed-VC queries of the forwarding path. A Manager is immutable and safe
// for concurrent use by multiple routers.
type Manager struct {
	scheme Scheme
	orders [packet.NumClasses]orderTable
}

// NewManager precomputes the canonical orderings for a scheme.
func NewManager(s Scheme) *Manager {
	m := &Manager{scheme: s}
	for c := 0; c < packet.NumClasses; c++ {
		m.orders[c] = buildOrderTable(s.VCs, packet.Class(c))
	}
	return m
}

// Scheme returns the configuration the manager was built from.
func (m *Manager) Scheme() Scheme { return m.scheme }

// order returns the canonical ordering visible to a class.
func (m *Manager) order(class packet.Class) *orderTable { return &m.orders[class] }

// AllowedVCs computes the VC indices a packet may use at the downstream input
// port for the hop described by ctx.
//
// Baseline: exactly one VC — the hop's position in the reference path of the
// packet's route (ctx.RefPosition), offset into the class's subsequence.
//
// FlexVC: every VC from a lower bound up to the highest index from which the
// remaining route still embeds into the canonical VC ordering at strictly
// increasing ranks. Safe hops embed the planned route (so the packet's own
// path is its escape); opportunistic hops embed the minimal escape path and
// must additionally not move the packet to a rank below its current buffer.
func (m *Manager) AllowedVCs(ctx HopContext) VCRange {
	if ctx.Kind == topology.Terminal {
		return VCRange{Lo: 0, Hi: 0, Safe: true}
	}
	if m.scheme.Policy == Baseline {
		return m.scheme.baselineVC(ctx)
	}
	return m.flexVC(ctx)
}

// flexVC implements the FlexVC rule on top of the canonical ordering.
func (m *Manager) flexVC(ctx HopContext) VCRange {
	ord := m.order(ctx.Class)
	if ord.count(ctx.Kind) == 0 {
		return VCRange{Lo: 1, Hi: 0}
	}
	// curRank is the rank of the buffer the packet currently occupies
	// (-1 while it still sits in an injection queue).
	curRank := -1
	if ctx.InputKind != topology.Terminal && ctx.InputVC >= 0 && ctx.InputVC < ord.count(ctx.InputKind) {
		curRank = ord.rank(ctx.InputKind, ctx.InputVC)
	}

	// Safe: the planned route (this hop included) embeds into the ordering
	// at ranks strictly above the packet's current buffer, so the planned
	// continuation itself is a valid escape and the packet may simply wait
	// for it when blocked.
	plannedSeq := ctx.PlannedAfter.Prepend(ctx.Kind)
	if hi, ok := ord.highestFeasible(plannedSeq); ok && ord.rank(ctx.Kind, hi) > curRank {
		return VCRange{Lo: 0, Hi: hi, Safe: true}
	}

	// Opportunistic: the escape path from the next buffer must embed, and
	// the next buffer must not sit at a lower rank than the current one.
	// The router must be prepared to fall back to the escape (minimal) path
	// when such a hop is blocked.
	escapeSeq := ctx.EscapeAfter.Prepend(ctx.Kind)
	hi, ok := ord.highestFeasible(escapeSeq)
	if !ok {
		return VCRange{Lo: 1, Hi: 0}
	}
	lo := 0
	if curRank >= 0 {
		lo = ord.lowestIndexAtOrAboveRank(ctx.Kind, curRank)
	}
	if hi < lo {
		return VCRange{Lo: 1, Hi: 0}
	}
	return VCRange{Lo: lo, Hi: hi, Safe: false}
}
