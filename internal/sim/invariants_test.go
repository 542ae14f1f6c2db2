package sim

import (
	"testing"

	"flexvc/internal/buffer"
	"flexvc/internal/config"
	"flexvc/internal/core"
	"flexvc/internal/routing"
	"flexvc/internal/stats"
)

// TestDeadlockFreedomStress drives every VC-management / routing combination
// the paper evaluates at full offered load on a small system and checks that
// the deadlock watchdog never fires and that packets keep flowing. This is
// the simulation counterpart of Theorems 1 and 2.
func TestDeadlockFreedomStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test is slow")
	}
	type tc struct {
		name string
		mut  func(*config.Config)
	}
	cases := []tc{
		{"baseline MIN 2/1 UN", func(c *config.Config) {}},
		{"flexvc MIN 2/1 UN", func(c *config.Config) { c.Scheme.Policy = core.FlexVC }},
		{"flexvc MIN 8/4 UN", func(c *config.Config) {
			c.Scheme = core.Scheme{Policy: core.FlexVC, VCs: core.SingleClass(8, 4), Selection: core.JSQ}
		}},
		{"baseline VAL 4/2 ADV", func(c *config.Config) {
			c.Traffic = config.TrafficAdversarial
			c.Routing = routing.VAL
			c.Scheme = core.Scheme{Policy: core.Baseline, VCs: core.SingleClass(4, 2), Selection: core.JSQ}
		}},
		{"flexvc VAL 3/2 ADV (opportunistic)", func(c *config.Config) {
			c.Traffic = config.TrafficAdversarial
			c.Routing = routing.VAL
			c.Scheme = core.Scheme{Policy: core.FlexVC, VCs: core.SingleClass(3, 2), Selection: core.JSQ}
		}},
		{"flexvc PAR 5/2 UN", func(c *config.Config) {
			c.Routing = routing.PAR
			c.Scheme = core.Scheme{Policy: core.FlexVC, VCs: core.SingleClass(5, 2), Selection: core.JSQ}
		}},
		{"baseline PB 8/4 reactive ADV", func(c *config.Config) {
			c.Traffic = config.TrafficAdversarial
			c.Routing = routing.PB
			c.Reactive = true
			c.Scheme = core.Scheme{Policy: core.Baseline, VCs: core.TwoClass(4, 2, 4, 2), Selection: core.JSQ}
		}},
		{"flexvc-minCred PB 6/3 reactive ADV", func(c *config.Config) {
			c.Traffic = config.TrafficAdversarial
			c.Routing = routing.PB
			c.Reactive = true
			c.Sensing = routing.SensePerPort
			c.Scheme = core.Scheme{Policy: core.FlexVC, VCs: core.TwoClass(4, 2, 2, 1), Selection: core.JSQ, MinCred: true}
		}},
		{"flexvc reactive UN 5/3 (3/2+2/1)", func(c *config.Config) {
			c.Reactive = true
			c.Scheme = core.Scheme{Policy: core.FlexVC, VCs: core.TwoClass(3, 2, 2, 1), Selection: core.JSQ}
		}},
		{"damq75 MIN 2/1 BURSTY", func(c *config.Config) {
			c.Traffic = config.TrafficBursty
			c.BufferOrg = buffer.DAMQ
		}},
		{"flexvc lowest-vc MIN 4/2 UN", func(c *config.Config) {
			c.Scheme = core.Scheme{Policy: core.FlexVC, VCs: core.SingleClass(4, 2), Selection: core.LowestVC}
		}},
		{"flexvc random-vc MIN 4/2 UN", func(c *config.Config) {
			c.Scheme = core.Scheme{Policy: core.FlexVC, VCs: core.SingleClass(4, 2), Selection: core.RandomVC}
		}},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			cfg := config.Small()
			cfg.Load = 1.0
			cfg.WarmupCycles = 1000
			cfg.MeasureCycles = 4000
			c.mut(&cfg)
			res := runAudited(t, cfg)
			if res.Deadlock {
				t.Fatalf("deadlock detected: %+v", res)
			}
			if res.DeliveredPackets == 0 {
				t.Fatal("no packets delivered at full load")
			}
			t.Logf("%v", res)
		})
	}
}

// runAudited is Network.Run with every router's allocator state audited
// against its buffers every 64 cycles (router.AuditActivity: activity lists,
// head tracking, and that no sleeping head could be granted).
func runAudited(t *testing.T, cfg config.Config) stats.Result {
	t.Helper()
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for total := cfg.WarmupCycles + cfg.MeasureCycles; n.now < total; {
		n.Step()
		if n.now%64 == 0 {
			for _, r := range n.routers {
				if err := r.AuditActivity(); err != nil {
					t.Fatalf("cycle %d: %v", n.now, err)
				}
			}
		}
		if n.watchdog() {
			break
		}
	}
	return n.collector.Summarize(cfg.Load, n.now, n.deadlock)
}

// TestDeterminism checks that two runs with the same seed produce identical
// results, and that a different seed produces (at least slightly) different
// results.
func TestDeterminism(t *testing.T) {
	cfg := config.Small()
	cfg.Load = 0.5
	cfg.WarmupCycles = 500
	cfg.MeasureCycles = 1500
	cfg.Scheme = core.Scheme{Policy: core.FlexVC, VCs: core.SingleClass(4, 2), Selection: core.RandomVC}

	a, err := RunOne(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunOne(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.AcceptedLoad != b.AcceptedLoad || a.AvgLatency != b.AvgLatency || a.DeliveredPackets != b.DeliveredPackets {
		t.Fatalf("same seed produced different results:\n%+v\n%+v", a, b)
	}
	cfg.Seed = 99
	c, err := RunOne(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if c.DeliveredPackets == a.DeliveredPackets && c.AvgLatency == a.AvgLatency {
		t.Log("note: different seed produced identical statistics (possible but unlikely)")
	}
}

// TestConservation checks packet conservation: everything injected is either
// delivered or still resident in the network when the run stops.
func TestConservation(t *testing.T) {
	cfg := config.Small()
	cfg.Load = 0.6
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n.RunCycles(3000)
	resident := int64(n.ResidentPackets())
	inFlight := n.InFlight()
	// In-flight packets are resident in router buffers, in flight on a link
	// or inside the event wheel; resident is a lower bound and can never
	// exceed the in-flight count.
	if resident > inFlight {
		t.Fatalf("resident packets (%d) exceed in-flight count (%d)", resident, inFlight)
	}
	// Every generated packet is delivered, in flight or waiting at its NIC,
	// and only the packets in flight hold store slots.
	queued := pendingAtSources(n)
	if gen, del := n.Collector().TotalGenerated(), n.Collector().TotalDelivered(); del+inFlight+queued != gen {
		t.Fatalf("generated=%d, but delivered=%d + in flight=%d + queued at the NICs=%d", gen, del, inFlight, queued)
	}
	if used := int64(n.store.InUse()); used != inFlight {
		t.Fatalf("%d store slots in use for %d packets in flight", used, inFlight)
	}
	if inFlight < 0 {
		t.Fatal("negative in-flight count")
	}
}

// pendingAtSources counts packets generated but not yet injected.
func pendingAtSources(n *Network) int64 {
	var total int64
	for i := range n.nodes {
		total += int64(n.nodes[i].requests.len() + n.nodes[i].replies.len())
	}
	return total
}

// TestDrainAfterLoadStops checks that the network drains completely once
// sources stop: no packet is ever lost or stuck under moderate load.
func TestDrainAfterLoadStops(t *testing.T) {
	cfg := config.Small()
	cfg.Load = 0.4
	drainAfterLoad(t, cfg, 2000, 4000)
}

// TestDrainOpportunisticValiant checks the escape of a Valiant detour that
// passes through its destination router: under FlexVC 3/2, which admits VAL
// only opportunistically, a head there whose planned hop is forbidden or full
// must escape by ejecting, so the network drains once sources stop. Without
// that escape such heads wait forever, and so does everything behind them.
func TestDrainOpportunisticValiant(t *testing.T) {
	for _, load := range []float64{0.2, 0.4} {
		cfg := config.Small()
		cfg.Routing = routing.VAL
		cfg.Scheme = core.Scheme{Policy: core.FlexVC, VCs: core.SingleClass(3, 2), Selection: core.JSQ}
		cfg.Load = load
		drainAfterLoad(t, cfg, 3000, 6000)
	}
}

// TestDrainReactive checks that request-reply traffic drains once the
// request sources stop: every reply owed for a request still in flight is
// generated, injected and delivered, at moderate load and at saturation.
func TestDrainReactive(t *testing.T) {
	for _, rt := range []routing.Kind{routing.MIN, routing.VAL} {
		for _, load := range []float64{0.4, 1.0} {
			cfg := config.Small()
			cfg.Reactive = true
			cfg.Routing = rt
			cfg.Scheme = core.Scheme{Policy: core.FlexVC, VCs: core.TwoClass(4, 2, 2, 1), Selection: core.JSQ}
			cfg.Load = load
			drainAfterLoad(t, cfg, 2000, 6000)
		}
	}
}

// drainAfterLoad runs cfg for loadCycles, silences the sources and runs
// silentCycles more, after which nothing may be in flight, resident in a
// router, pending in the event wheel or owed as a reply, and neither the
// packet store nor the NICs' pending slab may hold a record.
func drainAfterLoad(t *testing.T, cfg config.Config, loadCycles, silentCycles int64) {
	t.Helper()
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n.RunCycles(loadCycles)
	n.silenceSources()
	n.RunCycles(silentCycles)
	if n.InFlight() != 0 {
		t.Fatalf("load %.1f: %d packets still in flight after drain", cfg.Load, n.InFlight())
	}
	if n.ResidentPackets() != 0 {
		t.Fatalf("load %.1f: %d packets still resident after drain", cfg.Load, n.ResidentPackets())
	}
	if n.wheel.pending() != 0 {
		t.Fatalf("load %.1f: %d events still pending after drain", cfg.Load, n.wheel.pending())
	}
	if q := pendingAtSources(n); q != 0 {
		t.Fatalf("load %.1f: %d packets still queued at the NICs after drain", cfg.Load, q)
	}
	if used, pend := n.store.InUse(), n.pending.inUse(); used != 0 || pend != 0 {
		t.Fatalf("load %.1f: %d store slots and %d pending records still held after drain", cfg.Load, used, pend)
	}
}

// TestFlattenedButterflySimulation checks that the generic diameter-2
// topology runs end to end with FlexVC.
func TestFlattenedButterflySimulation(t *testing.T) {
	cfg := config.Small()
	cfg.Topology = config.TopoFlattenedButterfly
	cfg.K = 4
	cfg.Load = 0.4
	cfg.Scheme = core.Scheme{Policy: core.FlexVC, VCs: core.SingleClass(4, 0), Selection: core.JSQ}
	cfg.Routing = routing.VAL
	res, err := RunOne(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Deadlock || res.DeliveredPackets == 0 {
		t.Fatalf("flattened butterfly run failed: %+v", res)
	}
	if res.AcceptedLoad < 0.3 {
		t.Errorf("accepted %.3f too low for offered 0.4 on a flattened butterfly", res.AcceptedLoad)
	}
}

// TestSpeedupImprovesThroughput checks the Section VI-D premise: removing the
// router speedup lowers the baseline saturation throughput.
func TestSpeedupImprovesThroughput(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	base := config.Small()
	base.Load = 1.0
	base.WarmupCycles = 1000
	base.MeasureCycles = 3000

	with := base
	with.Speedup = 2
	without := base
	without.Speedup = 1
	rWith, err := RunOne(with)
	if err != nil {
		t.Fatal(err)
	}
	rWithout, err := RunOne(without)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("speedup 2x: %.3f, speedup 1x: %.3f", rWith.AcceptedLoad, rWithout.AcceptedLoad)
	if rWithout.AcceptedLoad > rWith.AcceptedLoad*1.02 {
		t.Errorf("removing the router speedup should not increase throughput (%.3f vs %.3f)",
			rWithout.AcceptedLoad, rWith.AcceptedLoad)
	}
}

// TestDAMQZeroPrivateCollapses reproduces the premise of Figure 10: with no
// private reservation a DAMQ either deadlocks or collapses at saturation,
// while 75% private reservation keeps working.
func TestDAMQZeroPrivateCollapses(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	base := config.Small()
	base.Load = 1.0
	base.WarmupCycles = 1000
	base.MeasureCycles = 4000
	base.BufferOrg = buffer.DAMQ

	zero := base
	zero.DAMQPrivateFraction = 0
	seventyFive := base
	seventyFive.DAMQPrivateFraction = 0.75

	rZero, err := RunOne(zero)
	if err != nil {
		t.Fatal(err)
	}
	rSeventyFive, err := RunOne(seventyFive)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("0%% private: %v", rZero)
	t.Logf("75%% private: %v", rSeventyFive)
	if rSeventyFive.Deadlock {
		t.Fatal("75% private DAMQ must not deadlock")
	}
	if !rZero.Deadlock && rZero.AcceptedLoad > 0.6*rSeventyFive.AcceptedLoad {
		t.Errorf("0%% private DAMQ should deadlock or collapse (got %.3f vs %.3f)",
			rZero.AcceptedLoad, rSeventyFive.AcceptedLoad)
	}
}
