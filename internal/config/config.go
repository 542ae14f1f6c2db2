package config

import (
	"fmt"
	"math"
	"strings"

	"flexvc/internal/buffer"
	"flexvc/internal/core"
	"flexvc/internal/obs"
	"flexvc/internal/router"
	"flexvc/internal/routing"
	"flexvc/internal/scenario"
	"flexvc/internal/topology"
	"flexvc/internal/traffic"
)

// MaxPacketSize (phits) and MaxRadix (ports per router) are the largest
// packet and router a configuration may ask for: the simulator's event
// records carry packet sizes and port numbers as int16.
const (
	MaxPacketSize = math.MaxInt16
	MaxRadix      = math.MaxInt16
)

// TopologyKind selects the simulated network.
type TopologyKind string

const (
	// TopoDragonfly is the paper's evaluation topology.
	TopoDragonfly TopologyKind = "dragonfly"
	// TopoFlattenedButterfly is the generic diameter-2 network used for
	// additional examples.
	TopoFlattenedButterfly TopologyKind = "fbfly"
)

// TrafficKind selects the synthetic traffic pattern.
type TrafficKind string

const (
	// TrafficUniform draws a fresh uniformly random destination per packet.
	TrafficUniform TrafficKind = "un"
	// TrafficAdversarial sends every packet to a random node of the
	// following group (ADV+1).
	TrafficAdversarial TrafficKind = "adv"
	// TrafficBursty is the Markov ON/OFF bursty-uniform model.
	TrafficBursty TrafficKind = "bursty-un"
	// TrafficTranspose, TrafficBitReverse and TrafficShuffle are the classic
	// bit-permutation patterns (defined on the largest power-of-two node
	// subset; the remainder falls back to uniform).
	TrafficTranspose  TrafficKind = "transpose"
	TrafficBitReverse TrafficKind = "bit-reverse"
	TrafficShuffle    TrafficKind = "shuffle"
	// TrafficGroupHotspot concentrates HotspotFraction of the traffic on the
	// nodes of group HotspotGroup.
	TrafficGroupHotspot TrafficKind = "group-hotspot"
)

// TrafficKinds lists every traffic pattern, in a stable order, for sweeps and
// exhaustive round-trip tests.
var TrafficKinds = []TrafficKind{
	TrafficUniform, TrafficAdversarial, TrafficBursty,
	TrafficTranspose, TrafficBitReverse, TrafficShuffle, TrafficGroupHotspot,
}

// String implements fmt.Stringer (a TrafficKind is its own wire form).
func (t TrafficKind) String() string { return string(t) }

// ParseTrafficKind parses a traffic pattern name or alias into its canonical
// TrafficKind, failing fast on unknown names. Parse(String(t)) round-trips
// losslessly for every kind in TrafficKinds.
func ParseTrafficKind(s string) (TrafficKind, error) {
	switch s {
	case "un", "uniform":
		return TrafficUniform, nil
	case "adv", "adversarial":
		return TrafficAdversarial, nil
	case "bursty-un", "bursty", "bursty-uniform":
		return TrafficBursty, nil
	case "transpose":
		return TrafficTranspose, nil
	case "bit-reverse", "bitrev":
		return TrafficBitReverse, nil
	case "shuffle":
		return TrafficShuffle, nil
	case "group-hotspot", "hotspot":
		return TrafficGroupHotspot, nil
	}
	return TrafficUniform, fmt.Errorf("unknown traffic pattern %q (want un, adv, bursty-un, transpose, bit-reverse, shuffle or group-hotspot)", s)
}

// Config is the complete parameter set of one simulation.
type Config struct {
	// --- Topology ---
	Topology TopologyKind
	// Dragonfly parameters: P nodes per router, A routers per group, H
	// global links per router.
	P, A, H int
	// Flattened-butterfly parameter: K routers per dimension.
	K int

	// --- Link and router timing (cycles) ---
	LocalLatency     int
	GlobalLatency    int
	InjectionLatency int
	RouterPipeline   int
	// Speedup is the internal frequency speedup of the router crossbar
	// relative to the links (the paper uses 2; Section VI-D uses 1).
	Speedup int

	// --- Buffers (phits) ---
	LocalBufPerVC  int
	GlobalBufPerVC int
	InjBufPerVC    int
	OutputBuf      int
	// InjectionQueues is the number of injection buffers per node port.
	InjectionQueues int
	// BufferOrg selects statically partitioned buffers or DAMQs.
	BufferOrg buffer.Organization
	// DAMQPrivateFraction is the fraction of port memory reserved privately
	// per VC when BufferOrg is DAMQ (the paper settles on 0.75).
	DAMQPrivateFraction float64

	// --- VC management ---
	Scheme core.Scheme

	// --- Routing ---
	Routing          routing.Kind
	Sensing          routing.Sensing
	RoutingThreshold int // phits, UGAL/PB local-comparison offset

	// --- Traffic ---
	Traffic TrafficKind
	// Load is the offered load in phits/node/cycle.
	Load float64
	// PacketSize is the packet length in phits.
	PacketSize int
	// AvgBurstLength is the mean burst length in packets for BURSTY-UN
	// (>= 1; see doc.go for the defaults).
	AvgBurstLength float64
	// HotspotFraction is the fraction of group-hotspot traffic aimed at the
	// hot group; the rest is uniform.
	HotspotFraction float64
	// HotspotGroup is the hot group of group-hotspot traffic (a router index
	// on single-group topologies).
	HotspotGroup int
	// Reactive enables request-reply traffic: destinations answer every
	// request with a reply to the source.
	Reactive bool

	// --- Phased scenario ---
	// Scenario, when non-nil, replaces Traffic/Load with a timed phase
	// sequence and enables windowed transient telemetry. The run simulates
	// Scenario.TotalCycles() cycles measured from cycle 0; WarmupCycles and
	// MeasureCycles are ignored.
	Scenario *scenario.Scenario

	// --- Precomputed route tables ---
	// RouteTableBytes switches the precomputed route tables (see
	// topology.Precomputer): a negative value disables them, so every routing
	// query is computed on the fly; any other value builds them and is
	// otherwise ignored. The tables are linear in the network's size (per-port
	// neighbours and the Dragonfly group links), and table-backed and
	// on-the-fly routing are bit-identical.
	RouteTableBytes int

	// --- Execution (not part of the experiment identity) ---
	// Metrics is the observability registry the run reports into (nil
	// disables instrumentation entirely; see internal/obs). It is an
	// execution knob, not part of the experiment identity: metrics
	// only observe the run, they never influence simulated state, and the
	// field is excluded from the JSON form so fingerprints, checkpoint
	// identities and exports are byte-identical with metrics on or off
	// (locked by TestMetricsExportInvariant).
	Metrics *obs.Registry `json:"-"`

	// --- Simulation control ---
	WarmupCycles  int64
	MeasureCycles int64
	Seed          int64
	// DeadlockCycles is the watchdog window: if no packet is delivered for
	// this many cycles while packets are in flight, the run is declared
	// deadlocked.
	DeadlockCycles int64
	// MaxCycles caps the total simulated cycles as a safety net.
	MaxCycles int64
}

// Default returns the paper's simulation parameters (Table V) on the
// full-scale Dragonfly. It is expensive to simulate; prefer Small or Medium
// for interactive use.
func Default() Config {
	return Config{
		Topology: TopoDragonfly,
		P:        8, A: 16, H: 8,
		K:                   8,
		LocalLatency:        10,
		GlobalLatency:       100,
		InjectionLatency:    1,
		RouterPipeline:      5,
		Speedup:             2,
		LocalBufPerVC:       32,
		GlobalBufPerVC:      256,
		InjBufPerVC:         256,
		OutputBuf:           32,
		InjectionQueues:     3,
		BufferOrg:           buffer.Static,
		DAMQPrivateFraction: 0.75,
		Scheme: core.Scheme{
			Policy:    core.Baseline,
			VCs:       core.SingleClass(2, 1),
			Selection: core.JSQ,
		},
		Routing:          routing.MIN,
		Sensing:          routing.SensePerVC,
		RoutingThreshold: 24,
		Traffic:          TrafficUniform,
		Load:             0.5,
		PacketSize:       8,
		AvgBurstLength:   5,
		HotspotFraction:  0.25,
		WarmupCycles:     10000,
		MeasureCycles:    60000,
		Seed:             1,
		DeadlockCycles:   20000,
	}
}

// Paper is an alias of Default: the full-scale configuration of Table V.
func Paper() Config { return Default() }

// Small returns a scaled-down Dragonfly (h=2: 9 groups, 36 routers, 72
// nodes) with shortened link latencies, buffers and measurement windows,
// suitable for unit tests and quick sweeps. The qualitative behaviour of the
// mechanisms is preserved.
func Small() Config {
	c := Default()
	c.P, c.A, c.H = 2, 4, 2
	c.LocalLatency = 4
	c.GlobalLatency = 20
	c.LocalBufPerVC = 16
	c.GlobalBufPerVC = 64
	c.InjBufPerVC = 64
	c.OutputBuf = 16
	c.WarmupCycles = 2000
	c.MeasureCycles = 8000
	c.DeadlockCycles = 6000
	return c
}

// Medium returns an intermediate Dragonfly (h=4: 33 groups, 264 routers,
// 1,056 nodes) used by the figure-regeneration harness when more fidelity is
// wanted than Small provides.
func Medium() Config {
	c := Default()
	c.P, c.A, c.H = 4, 8, 4
	c.LocalLatency = 10
	c.GlobalLatency = 50
	c.LocalBufPerVC = 32
	c.GlobalBufPerVC = 128
	c.InjBufPerVC = 128
	c.OutputBuf = 32
	c.WarmupCycles = 5000
	c.MeasureCycles = 20000
	c.DeadlockCycles = 10000
	return c
}

// Tiny returns the smallest non-degenerate Dragonfly (h=1: 3 groups, 6
// routers, 6 nodes), useful for exhaustive invariant tests.
func Tiny() Config {
	c := Small()
	c.P, c.A, c.H = 1, 2, 1
	c.WarmupCycles = 500
	c.MeasureCycles = 2000
	c.DeadlockCycles = 3000
	return c
}

// ScaleNames lists the canonical scale names AtScale accepts, in increasing
// system size, for help text and exhaustive round-trip tests.
func ScaleNames() []string { return []string{"tiny", "small", "medium", "paper"} }

// AtScale returns the configuration for a scale name. The empty string means
// "small" (the interactive default) and "full" is accepted as an alias of
// "paper"; anything else errors, so spec files and flags fail loudly.
func AtScale(name string) (Config, error) {
	switch name {
	case "tiny":
		return Tiny(), nil
	case "", "small":
		return Small(), nil
	case "medium":
		return Medium(), nil
	case "paper", "full":
		return Paper(), nil
	}
	return Config{}, fmt.Errorf("unknown scale %q (want %s)", name, strings.Join(ScaleNames(), ", "))
}

// BuildTopology instantiates the configured topology.
func (c Config) BuildTopology() (topology.Topology, error) {
	switch c.Topology {
	case TopoDragonfly:
		return topology.NewDragonfly(c.P, c.A, c.H)
	case TopoFlattenedButterfly:
		return topology.NewFlattenedButterfly2D(c.K, c.P)
	default:
		return nil, fmt.Errorf("config: unknown topology %q", c.Topology)
	}
}

// NumClasses returns the number of message classes of the workload.
func (c Config) NumClasses() int {
	if c.Reactive {
		return 2
	}
	return 1
}

// LinkLatency returns the latency of a link of the given kind.
func (c Config) LinkLatency(k topology.PortKind) int {
	switch k {
	case topology.Global:
		return c.GlobalLatency
	case topology.Local:
		return c.LocalLatency
	default:
		return c.InjectionLatency
	}
}

// BufferCapacityPerVC returns the per-VC buffer capacity of an input port of
// the given kind.
func (c Config) BufferCapacityPerVC(k topology.PortKind) int {
	switch k {
	case topology.Global:
		return c.GlobalBufPerVC
	case topology.Local:
		return c.LocalBufPerVC
	default:
		return c.InjBufPerVC
	}
}

// PortBufferConfig returns the buffer configuration of an input port of the
// given kind, honouring the buffer organisation. The total port memory equals
// VCs x per-VC capacity in both organisations so comparisons are iso-memory,
// as in the paper.
func (c Config) PortBufferConfig(k topology.PortKind, numVCs int) buffer.Config {
	per := c.BufferCapacityPerVC(k)
	if k == topology.Terminal || c.BufferOrg == buffer.Static {
		return buffer.StaticConfig(numVCs, per)
	}
	return buffer.DAMQConfig(numVCs, numVCs*per, c.DAMQPrivateFraction)
}

// Validate checks the configuration for consistency and returns the first
// problem found.
func (c Config) Validate() error {
	if c.PacketSize <= 0 {
		return fmt.Errorf("config: packet size must be positive")
	}
	if c.PacketSize > MaxPacketSize {
		return fmt.Errorf("config: packet size %d phits exceeds the maximum %d", c.PacketSize, MaxPacketSize)
	}
	if c.Load < 0 || c.Load > 1.0001 {
		return fmt.Errorf("config: load %.3f outside [0,1]", c.Load)
	}
	if c.Speedup < 1 {
		return fmt.Errorf("config: speedup must be >= 1")
	}
	if c.LocalLatency < 0 || c.GlobalLatency < 0 || c.InjectionLatency < 0 || c.RouterPipeline < 0 {
		return fmt.Errorf("config: link latencies and the router pipeline must be non-negative")
	}
	if c.InjectionQueues < 1 {
		return fmt.Errorf("config: need at least one injection queue")
	}
	if c.WarmupCycles < 0 || c.MeasureCycles <= 0 {
		return fmt.Errorf("config: invalid warmup/measurement windows")
	}
	if c.Traffic == TrafficBursty && c.AvgBurstLength < 1 {
		return fmt.Errorf("config: bursty-un traffic needs AvgBurstLength >= 1 packet, got %g (the paper's Table V uses 5)", c.AvgBurstLength)
	}
	if c.HotspotFraction < 0 || c.HotspotFraction > 1 {
		return fmt.Errorf("config: hotspot fraction %.3f outside [0,1]", c.HotspotFraction)
	}
	if c.Traffic == TrafficGroupHotspot && c.HotspotGroup < 0 {
		return fmt.Errorf("config: hotspot group must be non-negative, got %d", c.HotspotGroup)
	}
	if c.Scenario != nil {
		if err := c.Scenario.Validate(); err != nil {
			return err
		}
		for i, p := range c.Scenario.Phases {
			if name, _ := traffic.CanonicalPattern(p.Pattern); name == traffic.NameBursty && p.AvgBurstLength == 0 && c.AvgBurstLength < 1 {
				return fmt.Errorf("config: scenario phase %d inherits AvgBurstLength %g; bursty phases need >= 1 packet", i, c.AvgBurstLength)
			}
		}
	}
	topo, err := c.BuildTopology()
	if err != nil {
		return err
	}
	if topo.Radix() > MaxRadix {
		return fmt.Errorf("config: router radix %d exceeds the maximum %d", topo.Radix(), MaxRadix)
	}
	if c.Routing == routing.PB && c.Topology != TopoDragonfly {
		return fmt.Errorf("config: Piggyback routing requires a Dragonfly topology, got %s", topo.Name())
	}
	for _, kind := range []topology.PortKind{topology.Terminal, topology.Local, topology.Global} {
		vcs := c.InjectionQueues
		if kind != topology.Terminal {
			vcs = c.Scheme.VCs.TotalOf(kind)
		}
		if vcs > router.MaxPortVCs {
			return fmt.Errorf("config: %s ports have %d VCs, more than the %d a router port holds", kind, vcs, router.MaxPortVCs)
		}
	}
	if err := core.Admit(c.Scheme, topo, c.Routing.Mode(), c.Reactive); err != nil {
		return fmt.Errorf("config: %w", err)
	}
	if c.BufferOrg == buffer.DAMQ && (c.DAMQPrivateFraction < 0 || c.DAMQPrivateFraction > 1) {
		return fmt.Errorf("config: DAMQ private fraction %.2f outside [0,1]", c.DAMQPrivateFraction)
	}
	return nil
}

// Describe returns a short human-readable summary of the configuration.
func (c Config) Describe() string {
	if c.Scenario != nil {
		return fmt.Sprintf("%s %s routing=%s sensing=%s scenario=%s reactive=%v buffers=%s speedup=%dx",
			c.Topology, c.Scheme, c.Routing, c.Sensing, c.Scenario.Describe(), c.Reactive, c.BufferOrg, c.Speedup)
	}
	return fmt.Sprintf("%s %s routing=%s sensing=%s traffic=%s load=%.2f reactive=%v buffers=%s speedup=%dx",
		c.Topology, c.Scheme, c.Routing, c.Sensing, c.Traffic, c.Load, c.Reactive, c.BufferOrg, c.Speedup)
}
