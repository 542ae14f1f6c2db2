package sim

import (
	"testing"

	"flexvc/internal/config"
	"flexvc/internal/core"
	"flexvc/internal/routing"
)

// warmNetwork builds a Small network at the given load and advances it past
// the initial transient so benchmarks observe steady-state behaviour.
func warmNetwork(b *testing.B, load float64) *Network {
	b.Helper()
	cfg := config.Small()
	cfg.Load = load
	n, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	n.RunCycles(500)
	return n
}

// BenchmarkNetworkStepModerate measures one full simulator cycle (events,
// injection, router steps) at moderate load on the Small Dragonfly.
func BenchmarkNetworkStepModerate(b *testing.B) {
	n := warmNetwork(b, 0.5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Step()
	}
}

// BenchmarkNetworkStepSaturated measures one full simulator cycle at full
// offered load, the regime the saturation-throughput experiments live in.
func BenchmarkNetworkStepSaturated(b *testing.B) {
	n := warmNetwork(b, 1.0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Step()
	}
}

// BenchmarkNetworkStepIdle measures one simulator cycle with zero offered
// load and an empty network: the fixed per-cycle overhead of scanning nodes
// and routers that have nothing to do.
func BenchmarkNetworkStepIdle(b *testing.B) {
	n := warmNetwork(b, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Step()
	}
}

// BenchmarkInject isolates the NIC model: per-cycle traffic generation plus
// the injection attempts at every node, without the router and event layers.
func BenchmarkInject(b *testing.B) {
	n := warmNetwork(b, 1.0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.inject()
		n.now++
	}
}

// BenchmarkInjectLowLoad is the NIC model at the load where the generators
// dominate it: UN at 0.02 on the Medium network (1 056 nodes, one packet per
// node every 400 cycles). It times the generator schedule alone — per cycle, a
// glance at the heap and the few nodes that are due — and discards each
// request as if it had been injected, pulling the node's next one, so the
// routers stay empty however long it runs.
func BenchmarkInjectLowLoad(b *testing.B) {
	cfg := config.Medium()
	cfg.Load = 0.02
	n, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.generate()
		for _, node := range n.pendingNodes {
			ns := &n.nodes[node]
			ns.hasReq, ns.queued = false, false
			if next, ok := n.lookAhead(node, ns.reqGen+1); ok {
				n.genDue.Push(next)
			}
		}
		n.pendingNodes = n.pendingNodes[:0]
		n.now++
	}
	b.ReportMetric(float64(n.lookaheads)/float64(b.N), "lookaheads/cycle")
	b.ReportMetric(float64(n.generated)/float64(b.N), "emissions/cycle")
}

// pbSatConfig is the replication the repository benchmark gates as
// medium-pb-sat-1core (bench/workloads/medium-pb-sat.campaign.json: PB,
// per-port sensing, FlexVC-minCred 4/2+2/1, reactive ADV at 0.35, 400+1200
// cycles).
func pbSatConfig() config.Config {
	cfg := config.Medium()
	cfg.Traffic = config.TrafficAdversarial
	cfg.Routing = routing.PB
	cfg.Sensing = routing.SensePerPort
	cfg.Reactive = true
	cfg.Scheme = core.Scheme{Policy: core.FlexVC, VCs: core.TwoClass(4, 2, 2, 1), Selection: core.JSQ, MinCred: true}
	cfg.Load = 0.35
	cfg.WarmupCycles, cfg.MeasureCycles = 400, 1200
	return cfg
}

// BenchmarkNetworkNew builds the medium-pb-sat-1core network from nothing,
// the sim.New that the benchmark's setup_s times, so set-up can be profiled
// under `go test`.
func BenchmarkNetworkNew(b *testing.B) {
	cfg := pbSatConfig()
	b.ReportAllocs()
	for b.Loop() {
		if _, err := New(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNetworkNewSmall builds one Figure 5(c) point at the small scale
// (FlexVC 8/4, ADV traffic under VAL routing): the sim.New that the
// sweep-fig5-small-allcores benchmark pays once per replication.
func BenchmarkNetworkNewSmall(b *testing.B) {
	cfg := config.Small()
	cfg.Traffic = config.TrafficAdversarial
	cfg.Routing = routing.VAL
	cfg.Scheme = core.Scheme{Policy: core.FlexVC, VCs: core.SingleClass(8, 4), Selection: core.JSQ}
	cfg.Load = 0.3
	b.ReportAllocs()
	for b.Loop() {
		if _, err := New(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReplicationPBSat runs the medium-pb-sat-1core replication
// (pbSatConfig) under `go test`, so it can be profiled with -cpuprofile. It
// reports the allocator's work counters per replication beside the time; they
// are simulated-domain counts and repeat exactly.
func BenchmarkReplicationPBSat(b *testing.B) {
	cfg := pbSatConfig()
	var n *Network
	for i := 0; i < b.N; i++ {
		var err error
		if n, err = New(cfg); err != nil {
			b.Fatal(err)
		}
		n.RunCycles(cfg.WarmupCycles + cfg.MeasureCycles)
	}
	w, grants := n.allocatorWork()
	b.ReportMetric(float64(w.Evals), "evals/op")
	b.ReportMetric(float64(w.Sleeps), "sleeps/op")
	b.ReportMetric(float64(w.Wakeups), "wakeups/op")
	b.ReportMetric(float64(w.WakeFailed), "wake-failed/op")
	b.ReportMetric(float64(grants), "grants/op")
	b.ReportMetric(float64(w.TimerWakeups), "timer-wakeups/op")
	b.ReportMetric(float64(w.XmitVisits), "xmit-visits/op")
	b.ReportMetric(float64(w.Sends), "sends/op")
	b.ReportMetric(float64(n.lookaheads), "lookaheads/op")
	b.ReportMetric(float64(n.generated), "emissions/op")
}

// BenchmarkReplicationBacklogSmall runs one full small replication far past
// saturation (backlogConfig: UN/MIN, Baseline 2/1 at offered load 1.0), where
// most of the offered requests are still unread at their sources. Beside B/op
// it reports the packet store's live slots at the end and its peak; only the
// packets in the network hold store slots.
func BenchmarkReplicationBacklogSmall(b *testing.B) {
	cfg := backlogConfig(false)
	var n *Network
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var err error
		if n, err = New(cfg); err != nil {
			b.Fatal(err)
		}
		n.Run()
	}
	b.ReportMetric(float64(n.store.InUse()), "store-slots/op")
	b.ReportMetric(float64(n.store.Slots()), "peak-live-slots/op")
}
