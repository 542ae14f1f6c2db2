// Benchmarks: one per table and figure of the paper's evaluation, plus the
// ablations called out in DESIGN.md. Each benchmark runs a reduced version of
// the corresponding experiment (scaled-down Dragonfly, shortened measurement
// window) and reports the headline metric (accepted load in phits/node/cycle,
// or average latency) via b.ReportMetric, so `go test -bench=. -benchmem`
// regenerates the shape of every result. cmd/figures produces the full
// reports.
package flexvc_test

import (
	"testing"

	"flexvc/internal/buffer"
	"flexvc/internal/config"
	"flexvc/internal/core"
	"flexvc/internal/packet"
	"flexvc/internal/routing"
	"flexvc/internal/sim"
	"flexvc/internal/sweep"
	"flexvc/internal/topology"
)

// benchConfig is the shared scaled-down configuration used by the simulation
// benchmarks: the Small preset with a shortened measurement window so a
// single iteration stays around a hundred milliseconds.
func benchConfig() config.Config {
	cfg := config.Small()
	cfg.WarmupCycles = 800
	cfg.MeasureCycles = 2000
	cfg.DeadlockCycles = 4000
	return cfg
}

// runSim runs one simulation per benchmark iteration and reports throughput
// and latency.
func runSim(b *testing.B, cfg config.Config) {
	b.Helper()
	var last interface {
		String() string
	}
	var accepted, latency float64
	for i := 0; i < b.N; i++ {
		c := cfg
		c.Seed = int64(i + 1)
		res, err := sim.RunOne(c)
		if err != nil {
			b.Fatal(err)
		}
		if res.Deadlock {
			b.Fatalf("deadlock: %v", res)
		}
		accepted = res.AcceptedLoad
		latency = res.AvgLatency
		last = res
	}
	_ = last
	b.ReportMetric(accepted, "accepted-load")
	b.ReportMetric(latency, "avg-latency-cycles")
}

// --- Tables I-IV ------------------------------------------------------------

// BenchmarkTables regenerates the four analytic tables (no simulation).
func BenchmarkTables(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, t := range []core.Table{core.TableI(), core.TableII(), core.TableIII(), core.TableIV()} {
			if len(t.Render()) == 0 {
				b.Fatal("empty table")
			}
		}
	}
}

// --- Figure 5: oblivious routing --------------------------------------------

func fig5Config(policy core.Policy, vcs core.VCConfig, org buffer.Organization,
	traffic config.TrafficKind, alg routing.Kind, load float64) config.Config {
	cfg := benchConfig()
	cfg.Traffic = traffic
	cfg.Routing = alg
	cfg.Load = load
	cfg.BufferOrg = org
	cfg.Scheme = core.Scheme{Policy: policy, VCs: vcs, Selection: core.JSQ}
	return cfg
}

func BenchmarkFig5UniformMINBaseline(b *testing.B) {
	runSim(b, fig5Config(core.Baseline, core.SingleClass(2, 1), buffer.Static, config.TrafficUniform, routing.MIN, 1.0))
}

func BenchmarkFig5UniformMINDAMQ(b *testing.B) {
	runSim(b, fig5Config(core.Baseline, core.SingleClass(2, 1), buffer.DAMQ, config.TrafficUniform, routing.MIN, 1.0))
}

func BenchmarkFig5UniformMINFlexVC21(b *testing.B) {
	runSim(b, fig5Config(core.FlexVC, core.SingleClass(2, 1), buffer.Static, config.TrafficUniform, routing.MIN, 1.0))
}

func BenchmarkFig5UniformMINFlexVC42(b *testing.B) {
	runSim(b, fig5Config(core.FlexVC, core.SingleClass(4, 2), buffer.Static, config.TrafficUniform, routing.MIN, 1.0))
}

func BenchmarkFig5UniformMINFlexVC84(b *testing.B) {
	runSim(b, fig5Config(core.FlexVC, core.SingleClass(8, 4), buffer.Static, config.TrafficUniform, routing.MIN, 1.0))
}

func BenchmarkFig5BurstyMINBaseline(b *testing.B) {
	runSim(b, fig5Config(core.Baseline, core.SingleClass(2, 1), buffer.Static, config.TrafficBursty, routing.MIN, 1.0))
}

func BenchmarkFig5BurstyMINFlexVC84(b *testing.B) {
	runSim(b, fig5Config(core.FlexVC, core.SingleClass(8, 4), buffer.Static, config.TrafficBursty, routing.MIN, 1.0))
}

func BenchmarkFig5AdversarialVALBaseline(b *testing.B) {
	runSim(b, fig5Config(core.Baseline, core.SingleClass(4, 2), buffer.Static, config.TrafficAdversarial, routing.VAL, 0.5))
}

func BenchmarkFig5AdversarialVALFlexVC84(b *testing.B) {
	runSim(b, fig5Config(core.FlexVC, core.SingleClass(8, 4), buffer.Static, config.TrafficAdversarial, routing.VAL, 0.5))
}

// --- Figure 6 / Figure 11: throughput vs buffer size, with and without
// router speedup (the speedup ablation of Section VI-D) ----------------------

func bufferSweepConfig(speedup, localPerPort, globalPerPort int, policy core.Policy, vcs core.VCConfig) config.Config {
	cfg := benchConfig()
	cfg.Load = 1.0
	cfg.Speedup = speedup
	cfg.Scheme = core.Scheme{Policy: policy, VCs: vcs, Selection: core.JSQ}
	lv, gv := vcs.Total().Local, vcs.Total().Global
	cfg.LocalBufPerVC = max(localPerPort/lv, cfg.PacketSize)
	cfg.GlobalBufPerVC = max(globalPerPort/gv, cfg.PacketSize)
	return cfg
}

func BenchmarkFig6SmallBuffersBaseline(b *testing.B) {
	runSim(b, bufferSweepConfig(2, 32, 128, core.Baseline, core.SingleClass(2, 1)))
}

func BenchmarkFig6SmallBuffersFlexVC84(b *testing.B) {
	runSim(b, bufferSweepConfig(2, 32, 128, core.FlexVC, core.SingleClass(8, 4)))
}

func BenchmarkFig6LargeBuffersBaseline(b *testing.B) {
	runSim(b, bufferSweepConfig(2, 128, 512, core.Baseline, core.SingleClass(2, 1)))
}

func BenchmarkFig6LargeBuffersFlexVC84(b *testing.B) {
	runSim(b, bufferSweepConfig(2, 128, 512, core.FlexVC, core.SingleClass(8, 4)))
}

func BenchmarkFig11NoSpeedupBaseline(b *testing.B) {
	runSim(b, bufferSweepConfig(1, 32, 128, core.Baseline, core.SingleClass(2, 1)))
}

func BenchmarkFig11NoSpeedupFlexVC84(b *testing.B) {
	runSim(b, bufferSweepConfig(1, 32, 128, core.FlexVC, core.SingleClass(8, 4)))
}

// --- Figure 7: request-reply traffic ----------------------------------------

func fig7Config(policy core.Policy, vcs core.VCConfig) config.Config {
	cfg := benchConfig()
	cfg.Reactive = true
	cfg.Load = 0.9
	cfg.Scheme = core.Scheme{Policy: policy, VCs: vcs, Selection: core.JSQ}
	return cfg
}

func BenchmarkFig7RequestReplyBaseline(b *testing.B) {
	runSim(b, fig7Config(core.Baseline, core.TwoClass(2, 1, 2, 1)))
}

func BenchmarkFig7RequestReplyFlexVC2121(b *testing.B) {
	runSim(b, fig7Config(core.FlexVC, core.TwoClass(2, 1, 2, 1)))
}

func BenchmarkFig7RequestReplyFlexVC4321(b *testing.B) {
	runSim(b, fig7Config(core.FlexVC, core.TwoClass(4, 3, 2, 1)))
}

// --- Figure 8: Piggyback adaptive routing (and the minCred ablation) --------

func fig8Config(policy core.Policy, vcs core.VCConfig, sensing routing.Sensing, minCred bool,
	traffic config.TrafficKind) config.Config {
	cfg := benchConfig()
	cfg.Reactive = true
	cfg.Traffic = traffic
	cfg.Routing = routing.PB
	cfg.Sensing = sensing
	cfg.Load = 0.35
	if traffic == config.TrafficUniform {
		cfg.Load = 0.9
	}
	cfg.Scheme = core.Scheme{Policy: policy, VCs: vcs, Selection: core.JSQ, MinCred: minCred}
	return cfg
}

func BenchmarkFig8AdversarialPBBaselinePerVC(b *testing.B) {
	runSim(b, fig8Config(core.Baseline, core.TwoClass(4, 2, 4, 2), routing.SensePerVC, false, config.TrafficAdversarial))
}

func BenchmarkFig8AdversarialPBFlexVCPerVC(b *testing.B) {
	runSim(b, fig8Config(core.FlexVC, core.TwoClass(4, 2, 2, 1), routing.SensePerVC, false, config.TrafficAdversarial))
}

func BenchmarkFig8AdversarialPBFlexVCMinCredPerPort(b *testing.B) {
	runSim(b, fig8Config(core.FlexVC, core.TwoClass(4, 2, 2, 1), routing.SensePerPort, true, config.TrafficAdversarial))
}

func BenchmarkFig8UniformPBFlexVCMinCredPerPort(b *testing.B) {
	runSim(b, fig8Config(core.FlexVC, core.TwoClass(4, 2, 2, 1), routing.SensePerPort, true, config.TrafficUniform))
}

// --- Figure 9: VC selection function ablation -------------------------------

func fig9Config(sel core.SelectionFn) config.Config {
	cfg := benchConfig()
	cfg.Reactive = true
	cfg.Load = 1.0
	cfg.Scheme = core.Scheme{Policy: core.FlexVC, VCs: core.TwoClass(4, 3, 2, 1), Selection: sel}
	return cfg
}

func BenchmarkFig9SelectionJSQ(b *testing.B)     { runSim(b, fig9Config(core.JSQ)) }
func BenchmarkFig9SelectionHighest(b *testing.B) { runSim(b, fig9Config(core.HighestVC)) }
func BenchmarkFig9SelectionLowest(b *testing.B)  { runSim(b, fig9Config(core.LowestVC)) }
func BenchmarkFig9SelectionRandom(b *testing.B)  { runSim(b, fig9Config(core.RandomVC)) }

// --- Figure 10: DAMQ private-reservation ablation ---------------------------

func fig10Config(privateFraction float64) config.Config {
	cfg := benchConfig()
	cfg.Load = 1.0
	cfg.BufferOrg = buffer.DAMQ
	cfg.DAMQPrivateFraction = privateFraction
	// A zero-private DAMQ is expected to deadlock; keep the watchdog tight
	// so the benchmark terminates quickly and report whatever was measured.
	cfg.DeadlockCycles = 1500
	return cfg
}

func runSimAllowDeadlock(b *testing.B, cfg config.Config) {
	b.Helper()
	var accepted float64
	deadlocks := 0
	for i := 0; i < b.N; i++ {
		c := cfg
		c.Seed = int64(i + 1)
		res, err := sim.RunOne(c)
		if err != nil {
			b.Fatal(err)
		}
		accepted = res.AcceptedLoad
		if res.Deadlock {
			deadlocks++
		}
	}
	b.ReportMetric(accepted, "accepted-load")
	b.ReportMetric(float64(deadlocks)/float64(b.N), "deadlock-fraction")
}

func BenchmarkFig10DAMQ0Private(b *testing.B)   { runSimAllowDeadlock(b, fig10Config(0)) }
func BenchmarkFig10DAMQ25Private(b *testing.B)  { runSimAllowDeadlock(b, fig10Config(0.25)) }
func BenchmarkFig10DAMQ75Private(b *testing.B)  { runSimAllowDeadlock(b, fig10Config(0.75)) }
func BenchmarkFig10DAMQ100Private(b *testing.B) { runSimAllowDeadlock(b, fig10Config(1.0)) }

// --- Harness micro-benchmarks ------------------------------------------------

// BenchmarkSimulatorCyclesPerSecond measures the raw simulation speed of the
// small Dragonfly at moderate load (cycles simulated per wall-clock second).
func BenchmarkSimulatorCyclesPerSecond(b *testing.B) {
	cfg := config.Small()
	cfg.Load = 0.5
	n, err := sim.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Step()
	}
	b.ReportMetric(float64(n.Topology().NumRouters()), "routers")
}

// BenchmarkAllowedVCs measures the per-hop cost of the FlexVC decision, the
// function on the router critical path.
func BenchmarkAllowedVCs(b *testing.B) {
	mgr := core.NewManager(core.Scheme{Policy: core.FlexVC, VCs: core.TwoClass(4, 2, 2, 1), Selection: core.JSQ})
	ctx := core.HopContext{
		Class:        packet.Request,
		Kind:         topology.Local,
		InputKind:    topology.Global,
		InputVC:      0,
		PlannedAfter: topology.SeqOf(topology.Global, topology.Local),
		EscapeAfter:  topology.SeqOf(topology.Global, topology.Local),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := mgr.AllowedVCs(ctx)
		if r.Empty() {
			b.Fatal("unexpected empty range")
		}
	}
}

// --- End-to-end sweep benchmarks ---------------------------------------------
//
// These exercise the whole harness stack (sweep scheduler -> RunAveraged ->
// simulator) and are the headline numbers tracked in BENCHMARKS.md.

// quickSweepBase is the configuration behind the end-to-end sweep benchmarks:
// the Small Dragonfly with a shortened window, three variants and three loads
// with several replications each, so both the point scheduler and the
// replication engine are exercised.
func quickSweepBase() (config.Config, []sweep.Variant, []float64, int) {
	cfg := config.Small()
	cfg.WarmupCycles = 400
	cfg.MeasureCycles = 1600
	cfg.DeadlockCycles = 4000
	variants := []sweep.Variant{
		{Label: "baseline 2/1", Apply: func(c *config.Config) {
			c.Scheme = core.Scheme{Policy: core.Baseline, VCs: core.SingleClass(2, 1), Selection: core.JSQ}
		}},
		{Label: "flexvc 4/2", Apply: func(c *config.Config) {
			c.Scheme = core.Scheme{Policy: core.FlexVC, VCs: core.SingleClass(4, 2), Selection: core.JSQ}
		}},
		{Label: "flexvc 8/4", Apply: func(c *config.Config) {
			c.Scheme = core.Scheme{Policy: core.FlexVC, VCs: core.SingleClass(8, 4), Selection: core.JSQ}
		}},
	}
	loads := []float64{0.2, 0.6, 1.0}
	seeds := 3
	return cfg, variants, loads, seeds
}

// BenchmarkSweepQuickE2E runs a complete small load sweep per iteration:
// 3 variants x 3 loads x 3 replications = 27 simulations. This is the
// benchmark the >=2x wall-clock target of the parallel engine is measured on.
func BenchmarkSweepQuickE2E(b *testing.B) {
	base, variants, loads, seeds := quickSweepBase()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		series, err := sweep.LoadSweep(base, variants, loads, seeds)
		if err != nil {
			b.Fatal(err)
		}
		for _, s := range series {
			if s.MaxAccepted() == 0 {
				b.Fatalf("series %q moved no traffic", s.Label)
			}
		}
	}
}

// BenchmarkSmokeSweep is the CI smoke benchmark (go test -bench=Smoke
// -benchtime=1x): one tiny sweep end to end, cheap enough for every push.
func BenchmarkSmokeSweep(b *testing.B) {
	base := config.Tiny()
	base.WarmupCycles = 200
	base.MeasureCycles = 800
	variants := []sweep.Variant{
		{Label: "baseline", Apply: func(c *config.Config) {}},
		{Label: "flexvc", Apply: func(c *config.Config) { c.Scheme.Policy = core.FlexVC }},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		series, err := sweep.LoadSweep(base, variants, []float64{0.3, 0.7}, 2)
		if err != nil {
			b.Fatal(err)
		}
		if len(series) != 2 {
			b.Fatalf("want 2 series, got %d", len(series))
		}
	}
}
