// Package sim assembles the simulated network (topology, routers, traffic
// generators, routing algorithm and VC management scheme) and drives the
// cycle-level simulation: packet injection, the event system for link
// traversal and credit return, packet consumption, statistics collection and
// deadlock watchdog.
package sim

import (
	"fmt"

	"flexvc/internal/buffer"
	"flexvc/internal/config"
	"flexvc/internal/minheap"
	"flexvc/internal/packet"
	"flexvc/internal/router"
	"flexvc/internal/routing"
	"flexvc/internal/stats"
	"flexvc/internal/topology"
	"flexvc/internal/traffic"
)

// nodeState is the per-node NIC model: an unbounded source queue for new
// requests (records in the network's pending slab, not yet packets), a queue
// for the replies the node owes (the consumption assumption: nodes always
// sink requests and buffer the replies they owe), and the pacing of the
// injection link at one phit per cycle. When both queues hold packets the
// classes alternate so neither starves the other.
type nodeState struct {
	requests   fifo[pendRef]
	replies    fifo[packet.Ref]
	nextInject int64
	// lastWasReply records the class of the last injected packet, for the
	// round-robin tie-break between the two queues.
	lastWasReply bool
	// queued marks membership in Network.pendingNodes.
	queued bool
}

// Network is one simulated network instance.
type Network struct {
	cfg  config.Config
	topo topology.Topology

	alg     routing.Algorithm
	pb      *routing.PBManager
	gen     traffic.Generator
	routers []*router.Router
	nodes   []nodeState
	// store is the SoA packet arena every packet of the replication lives in;
	// routers, buffers and generators exchange packet.Refs into it.
	store *packet.Store
	// pending holds the requests waiting at the NICs. It comes from the
	// scratch set, or is allocated by the first request of a network built
	// without one, so sim.New allocates nothing for it.
	pending *pendingSlab
	// requestIDs numbers the requests as they are injected (Header.ID).
	requestIDs uint64

	// activeRouter flags routers holding packets; Step skips the others.
	activeRouter []bool
	// downInput caches, per (router, output port), the input buffer at the
	// far end of the link (nil for terminal ports). DownstreamInput sits on
	// the congestion-probe hot path — Piggyback polls every global port of
	// every router each cycle — so the neighbor resolution is done once.
	downInput [][]*buffer.InputBuffer
	// pendingNodes lists nodes with queued NIC work, so the injection pass
	// does not arbitrate at every node every cycle. Order is irrelevant:
	// injection at a node only touches that node's own terminal port.
	pendingNodes []packet.NodeID
	// genDue schedules the traffic generators: one key per node, the next
	// cycle its source emits or its look-ahead resumes (see inject).
	genDue    minheap.Heap
	wheel     eventWheel
	collector *stats.Collector
	// metrics holds the pre-resolved observability handles (nil when
	// cfg.Metrics is nil — the fully disabled state; see metrics.go).
	metrics *simMetrics

	now       int64
	inFlight  int64
	deadlock  bool
	generated int64
	// lookaheads counts generator look-ahead calls (an exact, repeatable
	// count, published with the allocator work when a replication ends).
	lookaheads int64
	// injectTries counts tryInject calls and injectNoVC those that found no
	// injection VC with room for the packet. Plain counts for tests, in no
	// export.
	injectTries, injectNoVC int64
}

// New builds a network from a configuration. The configuration is validated
// first.
func New(cfg config.Config) (*Network, error) { return newNetwork(cfg, nil) }

// newNetwork builds a network, optionally drawing its packet store, PRNG
// streams, NIC queues, wheel slots and routers from a recycled scratch set
// (see scratch.go). RunReplications' workers pass their own set; New passes
// nil and allocates fresh.
func newNetwork(cfg config.Config, sc *scratch) (*Network, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	topo, err := cfg.BuildTopology()
	if err != nil {
		return nil, err
	}
	// Precompute the per-port route tables (cfg.RouteTableBytes < 0 disables
	// them). They are linear in the network's size; the pair queries
	// (minimal port, hops, path kinds) are answered in closed form.
	if pc, ok := topo.(topology.Precomputer); ok {
		pc.PrecomputeTables(cfg.RouteTableBytes)
	}
	n := &Network{cfg: cfg, topo: topo}
	if sc != nil {
		n.store, n.pending = sc.store, &sc.pending
	} else {
		n.store = packet.NewStore()
	}

	// Traffic: a single open-loop pattern, or — when the configuration
	// carries a scenario — a phased Switchable generator that swaps pattern
	// and load at the scenario's cycle boundaries.
	tp := traffic.Params{
		Topo:            topo,
		Load:            cfg.Load,
		PacketSize:      cfg.PacketSize,
		Seed:            cfg.Seed,
		AvgBurstLength:  cfg.AvgBurstLength,
		HotspotFraction: cfg.HotspotFraction,
		HotspotGroup:    cfg.HotspotGroup,
		Store:           n.store,
	}
	if sc != nil {
		tp.Sources = &sc.sources
	}
	var gen traffic.Generator
	if cfg.Scenario != nil {
		gen, err = traffic.NewSwitchable(tp, cfg.Scenario.TrafficPhases())
		if err == nil && cfg.Reactive {
			gen = traffic.NewReactive(gen, tp)
		}
	} else {
		gen, err = traffic.New(string(cfg.Traffic), tp, cfg.Reactive)
	}
	if err != nil {
		return nil, err
	}
	n.gen = gen

	// Routing.
	if err := n.buildRouting(); err != nil {
		return nil, err
	}

	// Routers.
	params := router.Params{
		Store:            n.store,
		Speedup:          cfg.Speedup,
		Pipeline:         cfg.RouterPipeline,
		OutputBufPhits:   cfg.OutputBuf,
		InjectionQueues:  cfg.InjectionQueues,
		NumClasses:       cfg.NumClasses(),
		LocalLatency:     cfg.LocalLatency,
		GlobalLatency:    cfg.GlobalLatency,
		InjectionLatency: cfg.InjectionLatency,
		BufferConfig: func(kind topology.PortKind, numVCs int) buffer.Config {
			return cfg.PortBufferConfig(kind, numVCs)
		},
	}
	n.routers = make([]*router.Router, topo.NumRouters())
	var spare []*router.Router
	if sc != nil {
		spare = sc.routers
	}
	for r := range n.routers {
		var rt *router.Router
		if r < len(spare) {
			rt = spare[r]
		} else {
			rt = new(router.Router)
		}
		if err := rt.Rebuild(packet.RouterID(r), topo, cfg.Scheme, n.alg, params, cfg.Seed); err != nil {
			return nil, err
		}
		n.routers[r] = rt
	}
	if sc != nil && len(n.routers) > len(spare) {
		sc.routers = append(spare, n.routers[len(spare):]...)
	}

	// Every input buffer exists now: wire each router's downstream row, which
	// its SetEnv resolves.
	n.downInput = make([][]*buffer.InputBuffer, topo.NumRouters())
	for r := range n.downInput {
		row := make([]*buffer.InputBuffer, topo.Radix())
		for p := range row {
			if topo.PortKind(packet.RouterID(r), p) == topology.Terminal {
				continue
			}
			nbr, nport := topo.Neighbor(packet.RouterID(r), p)
			row[p] = n.routers[nbr].Input(nport)
		}
		n.downInput[r] = row
		n.routers[r].SetEnv(n)
	}

	n.metrics = newSimMetrics(cfg.Metrics)

	if topo.NumNodes() > 1<<genNodeBits {
		return nil, fmt.Errorf("sim: %d nodes, more than the %d the generator schedule numbers", topo.NumNodes(), 1<<genNodeBits)
	}
	if sc != nil && len(sc.nodes) == topo.NumNodes() {
		n.nodes = sc.nodes
	} else {
		n.nodes = make([]nodeState, topo.NumNodes())
	}
	n.genDue = make(minheap.Heap, 0, topo.NumNodes())
	n.armGenerators(0)
	n.activeRouter = make([]bool, topo.NumRouters())
	n.pendingNodes = make([]packet.NodeID, 0, topo.NumNodes())
	// The longest delay the routers schedule: a packet's transfer or
	// serialisation (at most its size) plus the slowest link, injection and
	// ejection included.
	maxDelay := int64(max(cfg.LocalLatency, cfg.GlobalLatency, cfg.InjectionLatency) + cfg.PacketSize)
	var slots [][]event
	if sc != nil {
		slots = sc.slots
	}
	n.wheel.init(maxDelay, slots)
	if sc != nil {
		sc.nodes, sc.slots = n.nodes, n.wheel.slots
	}

	measureStart := cfg.WarmupCycles
	measureEnd := cfg.WarmupCycles + cfg.MeasureCycles
	if cfg.Scenario != nil {
		// Transient runs measure from cycle 0: the non-steady state around
		// phase switches is the signal, not something to warm past.
		measureStart, measureEnd = 0, cfg.Scenario.TotalCycles()
	}
	n.collector = stats.NewCollector(topo.NumNodes(), measureStart, measureEnd)
	if cfg.Scenario != nil {
		if err := n.collector.EnableTimeSeries(cfg.Scenario.Window, measureEnd, cfg.Scenario.Marks()); err != nil {
			return nil, err
		}
	}
	return n, nil
}

// buildRouting instantiates the routing algorithm (and the PB saturation
// manager when needed).
func (n *Network) buildRouting() error {
	cfg := n.cfg
	switch cfg.Routing {
	case routing.MIN:
		n.alg = routing.NewMinimal(n.topo)
	case routing.VAL:
		n.alg = routing.NewValiant(n.topo)
	case routing.PAR:
		parCfg := routing.PARConfig{
			ThresholdPhits: cfg.RoutingThreshold,
			Sensing:        cfg.Sensing,
			MinCredOnly:    cfg.Scheme.MinCred,
		}
		for c := 0; c < packet.NumClasses; c++ {
			parCfg.ClassVC[c] = cfg.Scheme.VCs.ClassOffset(packet.Class(c), topology.Global)
		}
		n.alg = routing.NewProgressive(n.topo, n, parCfg)
	case routing.PB:
		df := n.topo.(*topology.Dragonfly) // config.Validate admits PB on a Dragonfly only
		pbCfg := routing.DefaultPBConfig(cfg.PacketSize, int64(cfg.LocalLatency))
		pbCfg.Sensing = cfg.Sensing
		pbCfg.MinCredOnly = cfg.Scheme.MinCred
		pbCfg.ThresholdPhits = cfg.RoutingThreshold
		for c := 0; c < packet.NumClasses; c++ {
			pbCfg.ClassVC[c] = cfg.Scheme.VCs.ClassOffset(packet.Class(c), topology.Global)
		}
		n.pb = routing.NewPBManager(df, n, pbCfg, cfg.NumClasses())
		n.alg = routing.NewPiggyback(df, n, n.pb, pbCfg)
	default:
		return fmt.Errorf("sim: unknown routing algorithm %v", cfg.Routing)
	}
	return nil
}

// Topology returns the simulated topology.
func (n *Network) Topology() topology.Topology { return n.topo }

// Config returns the simulation configuration.
func (n *Network) Config() config.Config { return n.cfg }

// Now returns the current cycle.
func (n *Network) Now() int64 { return n.now }

// Router returns one router, for tests and probes.
func (n *Network) Router(id packet.RouterID) *router.Router { return n.routers[id] }

// InFlight returns the number of packets injected but not yet delivered.
func (n *Network) InFlight() int64 { return n.inFlight }

// Deadlocked reports whether the watchdog detected a deadlock.
func (n *Network) Deadlocked() bool { return n.deadlock }

// Collector exposes the statistics collector.
func (n *Network) Collector() *stats.Collector { return n.collector }

// Store exposes the packet arena, for tests and probes.
func (n *Network) Store() *packet.Store { return n.store }
