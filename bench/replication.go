package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"flexvc/internal/config"
	"flexvc/internal/obs"
	"flexvc/internal/sim"
	"flexvc/internal/stats"
)

// traceChunk is the cycle count of one sim.RunCycles span in the traced run.
const traceChunk = 250

// repSample is the host cost of one timed repetition.
type repSample struct {
	wall, cpu, allocMiB float64
}

// repSamples collects the timed repetitions of one run. wall[r][i] and
// cpu[r][i] are the cost of slice i of repetition r: a replication is timed
// in fixed slices of simulated cycles (a sweep pass is one slice), which do
// the same work in every repetition.
type repSamples struct {
	wall, cpu [][]float64
	allocMiB  []float64
}

func (r *repSamples) add(wall, cpu []float64, allocMiB float64) {
	r.wall, r.cpu, r.allocMiB = append(r.wall, wall), append(r.cpu, cpu), append(r.allocMiB, allocMiB)
}

// totals returns the whole-repetition sums of per-slice costs.
func totals(reps [][]float64) []float64 {
	out := make([]float64, len(reps))
	for i, r := range reps {
		out[i] = sum(r)
	}
	return out
}

// fits reports whether one more repetition of the median length fits the
// run's time budget.
func (r *repSamples) fits(o runOpts) bool { return o.left() >= median(totals(r.wall)) }

// setEndToEnd reports a run's end-to-end metrics: the quiet-host estimates of
// a repetition's wall and CPU time and of the set-up time (stat.go), what the
// first timed repetition allocated and the process's peak RSS. The first,
// because a sweep's first pass is what a user's fresh process allocates: it
// fills the program's scratch pool, later passes reuse it and allocate a
// quarter less, and how many passes fit a run depends on the host. Identical
// replications allocate the same in every repetition.
func (res *runResult) setEndToEnd(reps repSamples, setup []float64, calib *calibrator) {
	res.Metrics["wall_s"] = quietSum(reps.wall)
	res.Metrics["cpu_s"] = quietSum(reps.cpu)
	res.Metrics["alloc_mb"] = reps.allocMiB[0]
	res.Metrics["setup_s"] = quantile(setup, quietQuantile)
	res.Metrics["peak_rss_mb"] = peakRSSMiB()
	res.Samples = map[string][]float64{"wall_s": totals(reps.wall), "cpu_s": totals(reps.cpu), "alloc_mb": reps.allocMiB, "setup_s": setup, "host.calib_ns": calib.samples}
}

// timedRep runs op between readings of the wall clock, the process CPU time
// and the allocation counter. The readings sit outside the wall interval.
func timedRep(op func() error) (repSample, error) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	alloc0, cpu0 := ms.TotalAlloc, cpuSeconds()
	start := time.Now()
	err := op()
	wall := time.Since(start).Seconds()
	cpu := cpuSeconds() - cpu0
	runtime.ReadMemStats(&ms)
	return repSample{wall: wall, cpu: cpu, allocMiB: float64(ms.TotalAlloc-alloc0) / (1 << 20)}, err
}

// setupEstimate collects samples of the set-up time: of once, the work a
// repetition does before its first simulated cycle. The samples are taken a
// few at a time between the timed repetitions, so that they see as much of
// the host's changing speed as those do; one sim.New alone ranges over +-20%.
type setupEstimate struct {
	once    func() error
	samples []float64 // seconds
}

// take adds n samples, each from a collected heap, as a fresh process's is.
func (s *setupEstimate) take(n int) error {
	for i := 0; i < n; i++ {
		runtime.GC()
		start := time.Now()
		if err := s.once(); err != nil {
			return err
		}
		s.samples = append(s.samples, time.Since(start).Seconds())
	}
	return nil
}

// replicationSetup is what one repetition does before its first simulated
// cycle: read the spec, generate the configuration, build the network.
func replicationSetup(w workload, seed int64) (config.Config, error) {
	spec, err := w.read(w.Spec)
	if err != nil {
		return config.Config{}, err
	}
	cfg, err := replicationConfig(w, spec, seed)
	if err != nil {
		return config.Config{}, err
	}
	n, err := sim.New(cfg)
	if err != nil {
		return config.Config{}, err
	}
	kernelSink += int(n.Now())
	return cfg, nil
}

// checkReplication decides whether one replication counts as a failed
// operation; it returns the reason, or "" for a good one. ref is the JSON of
// the first result of the same configuration and seed: the simulator is
// deterministic, so any difference is a wrong answer.
func checkReplication(r stats.Result, err error, cfg config.Config, ref []byte) string {
	switch {
	case err != nil:
		return err.Error()
	case r.Deadlock:
		return "deadlock flagged"
	case r.SimulatedCycles != cfg.WarmupCycles+cfg.MeasureCycles:
		return fmt.Sprintf("simulated %d cycles, want %d", r.SimulatedCycles, cfg.WarmupCycles+cfg.MeasureCycles)
	case r.DeliveredPackets <= 0:
		return "no packet delivered in the measurement window"
	}
	if ref != nil {
		if got, _ := json.Marshal(r); !bytes.Equal(got, ref) {
			return "result differs from the first repetition of the same configuration and seed"
		}
	}
	return ""
}

// repSlices is the number of slices a replication's simulated cycles are
// timed in: about 14 ms each on the gated workloads, short against the
// disturbances of a shared host and long against a clock reading.
const repSlices = 160

// slicedRep is one replication timed slice by slice.
type slicedRep struct {
	result stats.Result
	// wall and cpu hold the seconds of every slice — the build, each run of
	// simulated cycles, the summary. Slices abut: their sum is the repetition.
	wall, cpu []float64
	allocMiB  float64
	// overDelivered: the network delivered more packets than it generated.
	overDelivered bool
}

// slicedReplication does what sim.RunReplication does — build the network,
// simulate warm-up plus measurement, summarize — through sim.New, RunCycles
// and Summarize, reading the clocks between them. (RunReplication recycles
// the previous replication's packet store and telemetry arena; sim.New
// allocates them, so alloc_mb is a fresh replication's.)
func slicedReplication(cfg config.Config) (slicedRep, error) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	alloc0 := ms.TotalAlloc
	total := cfg.WarmupCycles + cfg.MeasureCycles
	step := max((total+repSlices-1)/repSlices, 1)
	var rep slicedRep
	t0, c0 := time.Now(), cpuSeconds()
	mark := func() {
		t1, c1 := time.Now(), cpuSeconds()
		rep.wall, rep.cpu = append(rep.wall, t1.Sub(t0).Seconds()), append(rep.cpu, c1-c0)
		t0, c0 = t1, c1
	}
	n, err := sim.New(cfg)
	if err != nil {
		return rep, err
	}
	mark()
	for done := int64(0); done < total; done += step {
		n.RunCycles(min(step, total-done))
		mark()
	}
	rep.result = n.Collector().Summarize(cfg.Load, n.Now(), n.Deadlocked())
	mark()
	runtime.ReadMemStats(&ms)
	rep.allocMiB = float64(ms.TotalAlloc-alloc0) / (1 << 20)
	rep.overDelivered = n.Collector().TotalDelivered() > n.Collector().TotalGenerated()
	return rep, nil
}

// runReplication measures a replication workload end to end, tracing off:
// the set-up estimate, one untimed warm-up sim.RunReplication whose result is
// the reference, then identical sliced repetitions until the time budget is
// used.
func runReplication(w workload, o runOpts, res *runResult) error {
	setup := &setupEstimate{once: func() error { _, err := replicationSetup(w, o.Seed); return err }}
	if err := setup.take(setupSamplesFirst); err != nil {
		return err
	}
	cfg, err := replicationSetup(w, o.Seed)
	if err != nil {
		return err
	}

	calib := newCalibrator()
	r, _, err := sim.RunReplication(cfg, 0)
	res.op(checkReplication(r, err, cfg, nil))
	ref, _ := json.Marshal(r)

	var reps repSamples
	for len(reps.wall) < minTimedReps || reps.fits(o) {
		calib.spin()
		if err := setup.take(setupSamplesPerRep); err != nil {
			return err
		}
		// Every repetition starts from a collected heap, so that collection
		// cycles fall on the same slices in each and count in the estimate.
		runtime.GC()
		rep, err := slicedReplication(cfg)
		reason := checkReplication(rep.result, err, cfg, ref)
		if reason == "" && rep.overDelivered {
			reason = "delivered more packets than were generated"
		}
		res.op(reason)
		if err != nil {
			return err
		}
		reps.add(rep.wall, rep.cpu, rep.allocMiB)
	}
	res.setEndToEnd(reps, setup.samples, calib)
	return nil
}

// obsSnapshot is the part of the program's metrics snapshot (its
// -metrics-out JSON) the harness reads.
type obsSnapshot struct {
	Counters map[string]int64   `json:"counters"`
	Gauges   map[string]int64   `json:"gauges"`
	Values   map[string]float64 `json:"values"`
}

func snapshotOf(reg *obs.Registry) (obsSnapshot, error) {
	var buf bytes.Buffer
	var s obsSnapshot
	if err := reg.WriteJSON(&buf); err != nil {
		return s, err
	}
	return s, json.Unmarshal(buf.Bytes(), &s)
}

// simLayerMetrics derives the sim layer's per-cycle numbers from the
// program's own phase counters. A series the program no longer exports is
// listed as absent and reads 0; that is not a failure.
func simLayerMetrics(s obsSnapshot, m metricSet, absent *[]string) {
	cycles := float64(s.Counters["flexvc_sim_cycles_total"])
	for _, phase := range []string{"events", "inject", "pb_update", "step", "flush"} {
		series := fmt.Sprintf(`flexvc_sim_phase_wall_ns_total{phase="%s"}`, phase)
		v, ok := s.Counters[series]
		if !ok || cycles == 0 {
			*absent = append(*absent, series)
			continue
		}
		m["sim.phase."+phase+"_ns_per_cycle"] = float64(v) / cycles
	}
	if v, ok := s.Gauges["flexvc_sim_event_wheel_depth_hwm"]; ok {
		m["sim.event_wheel_depth_hwm"] = float64(v)
	} else {
		*absent = append(*absent, "flexvc_sim_event_wheel_depth_hwm")
	}
	shards := 0
	for {
		if _, ok := s.Counters[fmt.Sprintf(`flexvc_sim_shard_busy_ns_total{shard="%d"}`, shards)]; !ok {
			break
		}
		shards++
	}
	// No per-shard series means the serial loop ran: one shard, balanced.
	m["sim.shard.count"] = float64(max(shards, 1))
	m["sim.shard.imbalance"] = 1
	if v, ok := s.Values["flexvc_sim_shard_imbalance_ratio"]; ok && v > 0 {
		m["sim.shard.imbalance"] = v
	}
}

// runtimeCounters are the runtime's cumulative cost counters.
type runtimeCounters struct {
	gcCycles, mallocs, gcCPU float64
}

func readRuntimeCounters() runtimeCounters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return runtimeCounters{gcCycles: float64(ms.NumGC), mallocs: float64(ms.Mallocs), gcCPU: gcCPUSeconds()}
}

// plusSince adds to a what the counters gained since the reading `from`.
func (a runtimeCounters) plusSince(from runtimeCounters) runtimeCounters {
	now := readRuntimeCounters()
	return runtimeCounters{
		gcCycles: a.gcCycles + now.gcCycles - from.gcCycles,
		mallocs:  a.mallocs + now.mallocs - from.mallocs,
		gcCPU:    a.gcCPU + now.gcCPU - from.gcCPU,
	}
}

// runtimeMetrics fills runtime.* from the cost of `reps` repetitions.
func runtimeMetrics(cost runtimeCounters, reps int, m metricSet) {
	n := float64(max(reps, 1))
	m["runtime.gc_cycles"] = cost.gcCycles / n
	m["runtime.alloc_objects"] = cost.mallocs / n
	m["runtime.gc_cpu_s"] = cost.gcCPU / n
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m["runtime.heap_peak_mb"] = float64(ms.HeapSys) / (1 << 20)
}

// modelMetrics reports the simulated outcome. These are simulated time, not
// host time: a pure speed-up must leave every one of them bit-identical.
func modelMetrics(r stats.Result, m metricSet) {
	m["model.accepted_load"] = r.AcceptedLoad
	m["model.avg_latency_cycles"] = r.AvgLatency
	m["model.p99_latency_cycles"] = r.P99
	m["model.delivered_packets"] = float64(r.DeliveredPackets)
	m["model.minimal_fraction"] = r.MinimalFraction
}

// runReplicationTraced takes the per-layer numbers of a replication
// workload: spans around every call into the sim layer (sim.New, RunCycles
// in chunks, the summary), the program's phase counters through cfg.Metrics,
// an untraced repetition beside them for the tracing overhead, and the
// micro-kernels at the workload's scale.
func runReplicationTraced(w workload, o runOpts, res *runResult) error {
	rec := res.rec
	m := res.Metrics
	cfg, err := replicationSetup(w, o.Seed)
	if err != nil {
		return err
	}
	total := cfg.WarmupCycles + cfg.MeasureCycles
	calib := newCalibrator()

	// The untraced warm-up gives the reference result.
	r, _, err := sim.RunReplication(cfg, 0)
	res.op(checkReplication(r, err, cfg, nil))
	ref, _ := json.Marshal(r)
	modelMetrics(r, m)
	// untraced times sim.RunReplication as the end-to-end run does: what
	// traced repetitions, and the one-core pass, are compared against.
	untraced := func() (float64, error) {
		calib.spin()
		s, err := timedRep(func() error { rr, _, err := sim.RunReplication(cfg, 0); r = rr; return err })
		res.op(checkReplication(r, err, cfg, ref))
		return s.wall, err
	}

	reg := obs.NewRegistry()
	traced := cfg
	traced.Metrics = reg
	var walls, cpus, plain, delivered []float64
	var cost runtimeCounters
	for rep := 1; rep <= tracedReps; rep++ {
		// Untraced and traced repetitions alternate, so a drift of the
		// host does not read as tracing overhead.
		wall, err := untraced()
		if err != nil {
			return err
		}
		plain = append(plain, wall)
		rec.setRep(rep)
		calib.spin()
		before := readRuntimeCounters()
		var n *sim.Network
		s, err := timedRep(func() error {
			root := rec.begin("replication")
			defer rec.end(root)
			id := rec.begin("sim.New")
			var err error
			n, err = sim.New(traced)
			rec.end(id)
			if err != nil {
				return err
			}
			for done := int64(0); done < total; done += traceChunk {
				id := rec.begin("sim.RunCycles")
				n.RunCycles(min(traceChunk, total-done))
				rec.end(id)
			}
			id = rec.begin("stats.Summarize")
			r = n.Collector().Summarize(cfg.Load, n.Now(), n.Deadlocked())
			rec.end(id)
			return nil
		})
		reason := checkReplication(r, err, cfg, ref)
		if reason == "" && n.Collector().TotalDelivered() > n.Collector().TotalGenerated() {
			reason = "delivered more packets than were generated"
		}
		res.op(reason)
		if err != nil {
			return err
		}
		cost = cost.plusSince(before)
		walls, cpus = append(walls, s.wall), append(cpus, s.cpu)
		delivered = append(delivered, float64(n.Collector().TotalDelivered()))
	}
	runtimeMetrics(cost, tracedReps, m)

	totals := rec.totals()
	runSum := float64(totals["sim.RunCycles"].Total)
	reps := float64(tracedReps)
	routers := float64(1)
	if topo, err := cfg.BuildTopology(); err == nil {
		routers = float64(topo.NumRouters())
	}
	m["sim.ns_per_cycle"] = runSum / (reps * float64(total))
	m["sim.ns_per_router_cycle"] = m["sim.ns_per_cycle"] / routers
	if d := mean(delivered); d > 0 {
		m["sim.ns_per_delivered_packet"] = runSum / reps / d
	}
	m["sim.cpu_per_wall"] = median(cpus) / median(walls)
	m["stats.summarize_s"] = float64(totals["stats.Summarize"].Self) / reps / 1e9
	m["trace.overhead_pct"] = 100 * (median(walls)/median(plain) - 1)

	snap, err := snapshotOf(reg)
	if err != nil {
		return err
	}
	simLayerMetrics(snap, m, &res.Absent)

	// Shard speed-up: the same replication on one core, untraced, against
	// the untraced all-core repetition above.
	m["sim.shard.speedup"] = 1
	if procs := runtime.GOMAXPROCS(0); procs > 1 {
		setProcs(1)
		one, err := untraced()
		setProcs(procs)
		if err != nil {
			return err
		}
		m["sim.shard.speedup"] = one / median(plain)
	}

	m["sim.new_s"] = timeOnce(func() {
		n, _ := sim.New(cfg)
		kernelSink += int(n.Now())
	})
	results := make([]stats.Result, 8)
	for i := range results {
		results[i] = r
	}
	m["stats.aggregate_s"] = timeOnce(func() { kernelSink += int(stats.Aggregate(results).DeliveredPackets) })
	if err := runKernels(cfg, m); err != nil {
		return err
	}
	if err := resultsKernels(o, w.Name, r, m); err != nil {
		return err
	}
	if err := campaignKernel(w, m); err != nil {
		return err
	}
	m["host.calib_ns"] = median(calib.samples)
	m["host.calib_cv"] = cv(calib.samples)
	res.Samples = map[string][]float64{"traced.wall_s": walls, "untraced.wall_s": plain, "host.calib_ns": calib.samples}
	return nil
}
