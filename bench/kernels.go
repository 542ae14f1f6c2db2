package main

import (
	"math/rand"
	"time"

	"flexvc/internal/buffer"
	"flexvc/internal/config"
	"flexvc/internal/core"
	"flexvc/internal/packet"
	"flexvc/internal/router"
	"flexvc/internal/routing"
	"flexvc/internal/stats"
	"flexvc/internal/topology"
	"flexvc/internal/traffic"
)

// Micro-kernels time single layers from outside, through public constructors
// only, at the workload's scale and VC scheme — the same kernel reads
// differently on the radix-15 medium network and the radix-31 paper network.
// Each reports the median of kernelBatches batches.

const kernelBatches = 5

// kernelBatchTime sizes one batch; a kernel costs about 0.3 s in all. Tests
// shorten it.
var kernelBatchTime = 60 * time.Millisecond

// timeKernel sizes a batch to kernelBatchTime, runs kernelBatches of them and
// returns the median nanoseconds per operation. batch(n) performs n
// operations and returns the time they took (so it may stop the clock around
// its own refills).
func timeKernel(batch func(n int) time.Duration) float64 {
	n := 256
	d := batch(n)
	for d < kernelBatchTime/8 && n < 1<<28 {
		n *= 4
		d = batch(n)
	}
	n = max(1, int(float64(n)*float64(kernelBatchTime)/float64(max(d, 1))))
	samples := make([]float64, kernelBatches)
	for i := range samples {
		samples[i] = float64(batch(n).Nanoseconds()) / float64(n)
	}
	return median(samples)
}

// timeLoop adapts a plain n-operation loop to timeKernel.
func timeLoop(loop func(n int)) func(n int) time.Duration {
	return func(n int) time.Duration {
		start := time.Now()
		loop(n)
		return time.Since(start)
	}
}

// timeOnce returns the median seconds of kernelBatches calls of a one-shot
// operation (a build, a summary).
func timeOnce(op func()) float64 {
	samples := make([]float64, kernelBatches)
	for i := range samples {
		start := time.Now()
		op()
		samples[i] = time.Since(start).Seconds()
	}
	return median(samples)
}

// kernelSink keeps results alive so the compiler cannot drop a kernel's body.
var kernelSink int

// kernelEnv is a router environment with unlimited downstream capacity:
// credits return at once and a packet that leaves the router is freed, so
// the router under test never blocks on flow control and the store stays
// small.
type kernelEnv struct {
	store      *packet.Store
	downstream []*buffer.InputBuffer // by output port, nil for terminal ports
}

func (e *kernelEnv) DownstreamInput(_ packet.RouterID, port int) *buffer.InputBuffer {
	return e.downstream[port]
}

func (e *kernelEnv) ScheduleArrival(_ int64, _ packet.RouterID, _, _ int, ref packet.Ref, _ packet.RouteKind) {
	e.store.Free(ref)
}

func (e *kernelEnv) ScheduleCredit(_ int64, buf *buffer.InputBuffer, vc, size int, kind packet.RouteKind) {
	buf.ReleaseCredit(vc, size, kind)
}

func (e *kernelEnv) ScheduleDelivery(_ int64, ref packet.Ref) { e.store.Free(ref) }

// drain returns every credit the router consumed downstream.
func (e *kernelEnv) drain() {
	for _, d := range e.downstream {
		if d == nil {
			continue
		}
		for vc := 0; vc < d.NumVCs(); vc++ {
			if c := d.CommittedOf(vc); c > 0 {
				d.ReleaseCredit(vc, c, packet.Minimal)
			}
		}
	}
}

// routerParams mirrors how the simulator derives router parameters from a
// configuration.
func routerParams(cfg config.Config, store *packet.Store) router.Params {
	return router.Params{
		Store:            store,
		Speedup:          cfg.Speedup,
		Pipeline:         cfg.RouterPipeline,
		OutputBufPhits:   cfg.OutputBuf,
		InjectionQueues:  cfg.InjectionQueues,
		NumClasses:       cfg.NumClasses(),
		LocalLatency:     cfg.LocalLatency,
		GlobalLatency:    cfg.GlobalLatency,
		InjectionLatency: cfg.InjectionLatency,
		BufferConfig:     cfg.PortBufferConfig,
	}
}

// runKernels fills the micro-kernel metrics for a configuration.
func runKernels(cfg config.Config, m metricSet) error {
	m["topology.build_s"] = timeOnce(func() {
		t, _ := cfg.BuildTopology()
		kernelSink += t.NumRouters()
	})
	topo, err := cfg.BuildTopology()
	if err != nil {
		return err
	}
	// Precomputing also leaves topo with the route tables the simulator would
	// give it, so a query below costs what it costs in a run.
	if pc, ok := topo.(topology.Precomputer); ok {
		m["topology.precompute_s"] = timeOnce(func() { pc.PrecomputeTables(cfg.RouteTableBytes) })
	}
	routers := topo.NumRouters()

	// Router pairs in a fixed pseudo-random order, shared by the query kernels.
	rng := rand.New(rand.NewSource(1))
	pairs := make([][2]packet.RouterID, 4096)
	for i := range pairs {
		pairs[i] = [2]packet.RouterID{packet.RouterID(rng.Intn(routers)), packet.RouterID(rng.Intn(routers))}
	}
	m["topology.minimal_port_ns"] = timeKernel(timeLoop(func(n int) {
		for i := 0; i < n; i++ {
			p := pairs[i&4095]
			kernelSink += topo.NextMinimalPort(p[0], p[1])
		}
	}))

	store := packet.NewStore()
	alg := routing.NewMinimal(topo)
	probe := store.Alloc(1, 0, 1, cfg.PacketSize, packet.Request, 0)
	m["routing.min_route_ns"] = timeKernel(timeLoop(func(n int) {
		hdr, rt := store.Hdr(probe), store.Route(probe)
		for i := 0; i < n; i++ {
			p := pairs[i&4095]
			hdr.DstRouter = p[1]
			hdr.Dst = topo.NodeAt(p[1], 0)
			kernelSink += alg.Route(p[0], hdr, rt, rng).OutPort
		}
	}))

	mgr := core.NewManager(cfg.Scheme)
	L, G := topology.Local, topology.Global
	hops := []core.HopContext{
		{Class: packet.Request, Kind: L, InputKind: topology.Terminal, InputVC: -1,
			PlannedAfter: topology.SeqOf(G, L), EscapeAfter: topology.SeqOf(G, L)},
		{Class: packet.Request, Kind: G, InputKind: L, InputVC: 0, RefPosition: topology.HopCount{Local: 1},
			PlannedAfter: topology.SeqOf(L), EscapeAfter: topology.SeqOf(L)},
		{Class: packet.Request, Kind: L, InputKind: G, InputVC: 0, RefPosition: topology.HopCount{Local: 1, Global: 1}},
		{Class: packet.Request, Kind: G, InputKind: topology.Terminal, InputVC: -1,
			PlannedAfter: topology.SeqOf(L), EscapeAfter: topology.SeqOf(L)},
	}
	m["core.allowed_vcs_ns"] = timeKernel(timeLoop(func(n int) {
		for i := 0; i < n; i++ {
			kernelSink += mgr.AllowedVCs(hops[i&3]).Hi
		}
	}))

	m["packet.alloc_free_ns"] = timeKernel(timeLoop(func(n int) {
		var ring [64]packet.Ref
		for i := range ring {
			ring[i] = store.Alloc(uint64(i), 0, 1, cfg.PacketSize, packet.Request, 0)
		}
		for i := 0; i < n; i++ {
			j := i & 63
			store.Free(ring[j])
			ref := store.Alloc(uint64(i), 0, 1, cfg.PacketSize, packet.Request, int64(i))
			store.Hdr(ref).DstRouter = 1
			store.Times(ref).Inject = int64(i)
			store.Route(ref).Hops++
			ring[j] = ref
		}
		for _, ref := range ring {
			store.Free(ref)
		}
	}))

	localVCs := cfg.Scheme.VCs.TotalOf(L)
	bufferCycle := func(buf *buffer.InputBuffer) float64 {
		vcs := buf.NumVCs()
		return timeKernel(timeLoop(func(n int) {
			for i := 0; i < n; i++ {
				vc := i % vcs
				buf.Reserve(vc, cfg.PacketSize, packet.Minimal)
				buf.Enqueue(vc, probe, 0, packet.Minimal)
				if buf.Head(vc, 0) != packet.NilRef {
					buf.Dequeue(vc)
				}
				buf.ReleaseCredit(vc, cfg.PacketSize, packet.Minimal)
			}
		}))
	}
	m["buffer.static_cycle_ns"] = bufferCycle(buffer.NewInputBuffer(buffer.StaticConfig(localVCs, cfg.LocalBufPerVC)))
	m["buffer.damq_cycle_ns"] = bufferCycle(buffer.NewInputBuffer(buffer.DAMQConfig(localVCs, localVCs*cfg.LocalBufPerVC, cfg.DAMQPrivateFraction)))

	gen, err := traffic.New(string(cfg.Traffic), traffic.Params{
		Topo: topo, Load: cfg.Load, PacketSize: cfg.PacketSize, Seed: cfg.Seed,
		AvgBurstLength: cfg.AvgBurstLength, HotspotFraction: cfg.HotspotFraction, HotspotGroup: cfg.HotspotGroup,
		Store: store,
	}, false)
	if err != nil {
		return err
	}
	nodes := topo.NumNodes()
	now, node := int64(0), 0
	m["traffic.generate_ns_per_node_cycle"] = timeKernel(timeLoop(func(n int) {
		for i := 0; i < n; i++ {
			if ref := gen.Generate(now, packet.NodeID(node)); ref != packet.NilRef {
				store.Free(ref)
			}
			if node++; node == nodes {
				node, now = 0, now+1
			}
		}
	}))

	col := stats.NewCollector(nodes, 0, 1<<62)
	store.Times(probe).Recv = 200
	m["stats.delivered_ns"] = timeKernel(timeLoop(func(n int) {
		for i := 0; i < n; i++ {
			col.Delivered(store, probe, int64(i))
		}
	}))

	return routerKernels(cfg, topo, m)
}

// routerKernels times Router.Step on router 0 of the workload's network,
// idle and with every injection queue kept full of packets to destinations
// spread over the whole network.
func routerKernels(cfg config.Config, topo topology.Topology, m metricSet) error {
	store := packet.NewStore()
	rt, err := router.New(0, topo, cfg.Scheme, routing.NewMinimal(topo), routerParams(cfg, store), cfg.Seed)
	if err != nil {
		return err
	}
	env := &kernelEnv{store: store, downstream: make([]*buffer.InputBuffer, topo.Radix())}
	for p := range env.downstream {
		if kind := topo.PortKind(0, p); kind != topology.Terminal {
			env.downstream[p] = buffer.NewInputBuffer(buffer.StaticConfig(cfg.Scheme.VCs.TotalOf(kind), 1<<20))
		}
	}
	rt.SetEnv(env)

	now := int64(0)
	m["router.step_idle_ns"] = timeKernel(timeLoop(func(n int) {
		for i := 0; i < n; i++ {
			rt.Step(now)
			now++
		}
	}))

	var id uint64
	dst := 0
	refill := func() {
		env.drain()
		for t := 0; t < topo.NodesPerRouter(); t++ {
			src := topo.NodeAt(0, t)
			port := topo.TerminalPort(0, src)
			inj := rt.Input(port)
			for vc := 0; vc < inj.NumVCs(); vc++ {
				for inj.FreeFor(vc) >= cfg.PacketSize && inj.QueueLen(vc) < 4 {
					dst = dst%(topo.NumRouters()-1) + 1 // every router but 0, in turn
					id++
					ref := store.Alloc(id, src, topo.NodeAt(packet.RouterID(dst), 0), cfg.PacketSize, packet.Request, now)
					hdr := store.Hdr(ref)
					hdr.SrcRouter, hdr.DstRouter = 0, packet.RouterID(dst)
					inj.Reserve(vc, cfg.PacketSize, packet.Minimal)
					rt.EnqueueArrival(port, vc, ref, now, packet.Minimal)
				}
			}
		}
	}
	m["router.step_busy_ns"] = timeKernel(func(n int) time.Duration {
		var busy time.Duration
		for steps := 0; steps < n; {
			refill()
			start := time.Now()
			for rt.Busy() && steps < n {
				rt.Step(now)
				now++
				steps++
			}
			busy += time.Since(start)
		}
		return busy
	})
	return nil
}
