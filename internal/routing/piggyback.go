package routing

import (
	"fmt"

	"flexvc/internal/packet"
	"flexvc/internal/topology"
)

// PBConfig collects the Piggyback parameters.
type PBConfig struct {
	// Sensing selects per-port or per-VC occupancy measurement.
	Sensing Sensing
	// MinCredOnly restricts occupancy measurements to credits of minimally
	// routed packets (FlexVC-minCred).
	MinCredOnly bool
	// ThresholdPhits is the offset of the UGAL-style local credit
	// comparison, in phits (the paper uses T=3 packets).
	ThresholdPhits int
	// SaturationNum/SaturationDen define the saturation rule: a global port
	// is saturated when occupancy·Den > average·Num (the paper marks ports
	// with 50% more occupancy than the average, i.e. 3/2).
	SaturationNum, SaturationDen int
	// MinSaturationPhits is a floor below which a port is never considered
	// saturated, suppressing noise at very low loads.
	MinSaturationPhits int
	// UpdateInterval is the number of cycles between publications of the
	// piggybacked saturation bits, modelling their propagation delay to the
	// other routers of the group.
	UpdateInterval int64
	// ClassVC maps each message class to the global-port VC index used by
	// per-VC sensing (the first VC of the class's subsequence).
	ClassVC [packet.NumClasses]int
}

// DefaultPBConfig returns the paper's Piggyback parameters for a given packet
// size and saturation-information propagation delay.
func DefaultPBConfig(packetSize int, updateInterval int64) PBConfig {
	return PBConfig{
		Sensing:            SensePerVC,
		ThresholdPhits:     3 * packetSize,
		SaturationNum:      3,
		SaturationDen:      2,
		MinSaturationPhits: packetSize,
		UpdateInterval:     updateInterval,
	}
}

// PBManager maintains the piggybacked saturation state of every global port
// of a Dragonfly network. Each router marks a global port as saturated when
// its occupancy exceeds the configured fraction of the router's average
// global-port occupancy; the bits become visible to the rest of the group
// after UpdateInterval cycles.
type PBManager struct {
	topo  *topology.Dragonfly
	probe Probe
	cfg   PBConfig

	numClasses int
	// visible is indexed [class][router*H + globalPortIndex].
	visible [][]bool
	lastPub int64
	// occ is reusable scratch for the per-router occupancy snapshot taken
	// in Update.
	occ []int
}

// NewPBManager builds the saturation-state manager. numClasses is 1 for
// single-class workloads and 2 for request-reply workloads.
func NewPBManager(topo *topology.Dragonfly, probe Probe, cfg PBConfig, numClasses int) *PBManager {
	if numClasses < 1 || numClasses > packet.NumClasses {
		panic(fmt.Sprintf("routing: invalid class count %d", numClasses))
	}
	n := topo.NumRouters() * topo.H
	m := &PBManager{topo: topo, probe: probe, cfg: cfg, numClasses: numClasses, lastPub: -1}
	m.visible = make([][]bool, numClasses)
	m.occ = make([]int, topo.H)
	for c := 0; c < numClasses; c++ {
		m.visible[c] = make([]bool, n)
	}
	return m
}

// senseVC returns the VC argument for the probe according to the sensing
// mode and message class.
func (m *PBManager) senseVC(class packet.Class) int {
	if m.cfg.Sensing == SensePerPort {
		return -1
	}
	return m.cfg.ClassVC[class]
}

// Update publishes the saturation bits of the current occupancies when the
// update interval has elapsed; the simulator calls it once per cycle. The
// bits are a pure function of the occupancies at the publishing cycle, so
// nothing is computed on the cycles in between.
func (m *PBManager) Update(now int64) {
	if m.cfg.UpdateInterval > 0 && m.lastPub >= 0 && now-m.lastPub < m.cfg.UpdateInterval {
		return
	}
	m.lastPub = now
	h := m.topo.H
	first := m.topo.FirstGlobalPort()
	for c := 0; c < m.numClasses; c++ {
		class := packet.Class(c)
		vc := m.senseVC(class)
		for r := 0; r < m.topo.NumRouters(); r++ {
			rid := packet.RouterID(r)
			sum := 0
			occ := m.occ
			for g := 0; g < h; g++ {
				occ[g] = m.probe.OutputOccupancy(rid, first+g, vc, m.cfg.MinCredOnly)
				sum += occ[g]
			}
			for g := 0; g < h; g++ {
				sat := occ[g] >= m.cfg.MinSaturationPhits &&
					occ[g]*m.cfg.SaturationDen*h > m.cfg.SaturationNum*sum
				m.visible[c][r*h+g] = sat
			}
		}
	}
}

// Saturated reports the visible saturation state of global port index g
// (0-based within the router's global ports) of router r, for packets of the
// given class.
func (m *PBManager) Saturated(class packet.Class, r packet.RouterID, g int) bool {
	c := int(class)
	if c >= m.numClasses {
		c = 0
	}
	return m.visible[c][int(r)*m.topo.H+g]
}

// MinimalGlobalSaturated reports whether the global link on the minimal path
// from srcGroup to dstGroup is currently marked saturated for the class.
func (m *PBManager) MinimalGlobalSaturated(class packet.Class, srcGroup, dstGroup int) bool {
	router, port, ok := m.topo.MinimalGlobalLink(srcGroup, dstGroup)
	if !ok {
		return false
	}
	return m.Saturated(class, router, port-m.topo.FirstGlobalPort())
}

// Piggyback implements the PB source-adaptive routing mechanism on a
// Dragonfly: at injection the source router chooses between the minimal path
// and a Valiant path based on the piggybacked saturation state of the minimal
// global link and a local credit comparison between the two candidate first
// hops.
type Piggyback struct {
	topo    *topology.Dragonfly
	probe   Probe
	manager *PBManager
	cfg     PBConfig
}

// NewPiggyback builds a PB routing algorithm backed by the given saturation
// manager (which must have been built with the same configuration).
func NewPiggyback(topo *topology.Dragonfly, probe Probe, manager *PBManager, cfg PBConfig) *Piggyback {
	return &Piggyback{topo: topo, probe: probe, manager: manager, cfg: cfg}
}

// Kind implements Algorithm.
func (p *Piggyback) Kind() Kind { return PB }

// Manager exposes the saturation-state manager so the simulator can drive its
// per-cycle updates.
func (p *Piggyback) Manager() *PBManager { return p.manager }

// Route implements Algorithm.
func (p *Piggyback) Route(cur packet.RouterID, hdr *packet.Header, rt *packet.RouteState, rng RandSource) Decision {
	if !rt.AdaptiveDecided && cur == hdr.SrcRouter {
		rt.AdaptiveDecided = true
		if p.shouldMisroute(cur, hdr, rng) {
			rt.Kind = packet.Nonminimal
			rt.Phase = packet.PhaseToIntermediate
			rt.Intermediate = RandomIntermediate(p.topo, rng)
		} else {
			rt.Kind = packet.Minimal
			rt.Phase = packet.PhaseToDestination
		}
	}
	return routeToward(p.topo, cur, hdr, rt)
}

// shouldMisroute applies the PB decision rule at injection.
func (p *Piggyback) shouldMisroute(cur packet.RouterID, hdr *packet.Header, rng RandSource) bool {
	srcGroup := p.topo.GroupOf(cur)
	dstGroup := p.topo.GroupOf(hdr.DstRouter)
	if srcGroup == dstGroup {
		// Intra-group traffic is always sent minimally.
		return false
	}
	if p.manager.MinimalGlobalSaturated(hdr.Class, srcGroup, dstGroup) {
		return true
	}
	// Local credit comparison between the first hop of the minimal path and
	// the first hop of a candidate Valiant path (UGAL-style, weighted by
	// path length).
	candidate := RandomIntermediate(p.topo, rng)
	minPort := p.topo.NextMinimalPort(cur, hdr.DstRouter)
	valTarget := candidate
	if valTarget == cur {
		valTarget = hdr.DstRouter
	}
	valPort := p.topo.NextMinimalPort(cur, valTarget)
	if minPort < 0 || valPort < 0 {
		return false
	}
	vc := p.manager.senseVC(hdr.Class)
	qMin := p.probe.OutputOccupancy(cur, minPort, vc, p.cfg.MinCredOnly)
	qVal := p.probe.OutputOccupancy(cur, valPort, vc, p.cfg.MinCredOnly)
	lenMin := p.topo.MinimalHops(cur, hdr.DstRouter).Total()
	lenVal := p.topo.MinimalHops(cur, candidate).Total() + p.topo.MinimalHops(candidate, hdr.DstRouter).Total()
	if lenVal == 0 {
		return false
	}
	return qMin*lenMin > qVal*lenVal+p.cfg.ThresholdPhits
}
