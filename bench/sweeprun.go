package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"time"

	"flexvc/internal/campaign"
	"flexvc/internal/obs"
	"flexvc/internal/results"
	"flexvc/internal/sim"
	"flexvc/internal/stats"
	"flexvc/internal/sweep"
)

// sweepPass is the outcome of one pass of a spec through the program's
// figure pipeline.
type sweepPass struct {
	export  []byte        // bytes of the exported results file
	file    *results.File // the export, loaded back
	report  string        // rendered markdown
	done    int           // replications settled
	skipped int           // of them restored from the store
	simWall time.Duration // summed per-replication wall the store recorded
}

// runSweepPass does what `figures run -campaign` + `figures render` do:
// parse the spec, open the results store, run the campaign through the
// checkpointed sweep runner, export, load the export back and render it. A
// pass over a populated directory restores every replication instead of
// simulating it.
func runSweepPass(rec *recorder, input []byte, dir string, reg *obs.Registry) (*sweepPass, error) {
	id := rec.begin("campaign.Parse")
	c, err := campaign.Parse(input)
	rec.end(id)
	if err != nil {
		return nil, err
	}
	id = rec.begin("results.Open")
	store, err := results.Open(dir)
	rec.end(id)
	if err != nil {
		return nil, err
	}
	if reg != nil {
		store.SetMetrics(reg)
	}
	p := &sweepPass{}
	id = rec.begin("campaign.Run")
	_, err = campaign.Run(c, sweep.Options{
		Results: store,
		Metrics: reg,
		Progress: func(ev sweep.Progress) {
			p.done, p.skipped = ev.Done, ev.Skipped
		},
	})
	rec.end(id)
	if err != nil {
		return nil, err
	}
	id = rec.begin("results.WriteExport")
	path, err := store.WriteExport(c.Name, c.ReportTitle())
	rec.end(id)
	if err != nil {
		return nil, err
	}
	if p.export, err = os.ReadFile(path); err != nil {
		return nil, err
	}
	id = rec.begin("results.LoadFile")
	p.file, err = results.LoadFile(path)
	rec.end(id)
	if err != nil {
		return nil, err
	}
	id = rec.begin("sweep.RenderResultsMarkdown")
	p.report, err = sweep.RenderResultsMarkdown(p.file)
	rec.end(id)
	if err != nil {
		return nil, err
	}
	p.simWall = store.WallTotal()
	return p, nil
}

// checkSweepPass counts the failed operations of a fresh pass followed by a
// restore pass over the same directory. want is the number of replications
// the spec describes; ref, when non-nil, is an earlier pass's export of the
// same input.
func checkSweepPass(res *runResult, fresh, restored *sweepPass, want int, ref []byte) {
	bad := 0
	for _, r := range fresh.file.Records {
		switch {
		case r.Result.Deadlock:
			res.fail(fmt.Sprintf("%s / %s @ %.4f seed %d: deadlock flagged", r.Section, r.Variant, r.Load, r.Seed))
			bad++
		case r.Result.DeliveredPackets <= 0:
			res.fail(fmt.Sprintf("%s / %s @ %.4f seed %d: no packet delivered", r.Section, r.Variant, r.Load, r.Seed))
			bad++
		}
	}
	whole := func(ok bool, reason string) {
		if !ok {
			res.fail(reason)
			bad = max(bad, 1)
		}
	}
	whole(fresh.done == want && fresh.skipped == 0 && len(fresh.file.Records) == want,
		fmt.Sprintf("fresh pass settled %d replications (%d restored, %d exported), want %d simulated", fresh.done, fresh.skipped, len(fresh.file.Records), want))
	whole(restored.done == want && restored.skipped == want,
		fmt.Sprintf("restore pass settled %d replications, %d restored, want all %d restored", restored.done, restored.skipped, want))
	whole(bytes.Equal(fresh.export, restored.export), "export of the restore pass is not byte-identical to the fresh pass's")
	whole(ref == nil || bytes.Equal(fresh.export, ref), "export differs from an earlier pass over the same input")
	whole(strings.Contains(fresh.report, "|"), "rendered report holds no table")
	res.Attempted += want
	res.Failed += bad
}

// sweepSetup is the processor's share of what a sweep pass does before its
// first simulated cycle: parse and compile the spec and build one network per
// distinct configuration. Opening the store is left out: on an empty
// directory it is one fsync'd manifest write, 5 ms or 200 ms as the host's
// disk pleases, which made set-up time of unchanged code differ by 30% and
// 114% between two runs. The traced run reports it as results.open_s.
func sweepSetup(input []byte) error {
	c, err := campaign.Parse(input)
	if err != nil {
		return err
	}
	cfgs, err := pointConfigs(c)
	if err != nil {
		return err
	}
	for _, cfg := range cfgs {
		n, err := sim.New(cfg)
		if err != nil {
			return err
		}
		kernelSink += int(n.Now())
	}
	return nil
}

// scratchDirs hands out fresh directories under the run's scratch root.
type scratchDirs struct {
	root string
	n    int
}

func (s *scratchDirs) next() string {
	s.n++
	return filepath.Join(s.root, fmt.Sprintf("d%03d", s.n))
}

// runSweep measures the sweep workload end to end, tracing off. One pass over
// a fresh directory is one repetition (and one slice: concurrent replications
// finish in no fixed order). Every replication in it builds its own network,
// so there is no warm-up pass; passes repeat while another fits the budget.
func runSweep(w workload, o runOpts, res *runResult) error {
	spec, err := w.read(w.Spec)
	if err != nil {
		return err
	}
	input, err := sweepInput(spec, o.Seed)
	if err != nil {
		return err
	}
	cfgs, seeds, err := specPoints(input)
	if err != nil {
		return err
	}
	want := len(cfgs) * seeds
	dirs := &scratchDirs{root: o.ScratchDir}
	setup := &setupEstimate{once: func() error { return sweepSetup(input) }}
	if err := setup.take(setupSamplesFirst); err != nil {
		return err
	}

	calib := newCalibrator()
	var reps repSamples
	var ref []byte
	for len(reps.wall) < 1 || reps.fits(o) {
		calib.spin()
		if err := setup.take(setupSamplesPerRep); err != nil {
			return err
		}
		dir := dirs.next()
		var fresh *sweepPass
		s, err := timedRep(func() error {
			var err error
			fresh, err = runSweepPass(nil, input, dir, nil)
			return err
		})
		if err != nil {
			return err
		}
		restored, err := runSweepPass(nil, input, dir, nil)
		if err != nil {
			return err
		}
		checkSweepPass(res, fresh, restored, want, ref)
		ref = fresh.export
		reps.add([]float64{s.wall}, []float64{s.cpu}, s.allocMiB)
	}
	res.setEndToEnd(reps, setup.samples, calib)
	return nil
}

// runSweepTraced takes the per-layer numbers of the sweep workload: an
// untraced pass for the overhead reference, then the traced pass with spans
// around every pipeline stage and the program's registry attached, then a
// restore pass over the traced pass's directory.
func runSweepTraced(w workload, o runOpts, res *runResult) error {
	rec := res.rec
	m := res.Metrics
	spec, err := w.read(w.Spec)
	if err != nil {
		return err
	}
	input, err := sweepInput(spec, o.Seed)
	if err != nil {
		return err
	}
	cfgs, seeds, err := specPoints(input)
	if err != nil {
		return err
	}
	want := len(cfgs) * seeds
	dirs := &scratchDirs{root: o.ScratchDir}
	calib := newCalibrator()

	calib.spin()
	plain, err := timedRep(func() error { _, err := runSweepPass(nil, input, dirs.next(), nil); return err })
	if err != nil {
		return err
	}

	reg := obs.NewRegistry()
	dir := dirs.next()
	calib.spin()
	rec.setRep(1)
	before := readRuntimeCounters()
	var fresh *sweepPass
	traced, err := timedRep(func() error {
		root := rec.begin("sweep-pass")
		defer rec.end(root)
		var err error
		fresh, err = runSweepPass(rec, input, dir, reg)
		return err
	})
	if err != nil {
		return err
	}
	runtimeMetrics(runtimeCounters{}.plusSince(before), 1, m)
	rec.setRep(2)
	root := rec.begin("restore-pass")
	restored, err := runSweepPass(rec, input, dir, nil)
	rec.end(root)
	if err != nil {
		return err
	}
	checkSweepPass(res, fresh, restored, want, nil)

	secs := func(name string, rep int) float64 {
		for _, s := range rec.spans {
			if s.Name == name && s.Rep == rep {
				return float64(s.End-s.Start) / 1e9
			}
		}
		return 0
	}
	sweepWall := secs("campaign.Run", 1)
	m["campaign.compile_s"] = secs("campaign.Parse", 1)
	m["sweep.reps_per_s"] = float64(want) / sweepWall
	m["sweep.parallelism"] = fresh.simWall.Seconds() / sweepWall
	m["sweep.restore_pass_s"] = secs("restore-pass", 2)
	m["sweep.render_s"] = secs("sweep.RenderResultsMarkdown", 1)
	m["results.export_s"] = secs("results.WriteExport", 1)
	m["results.open_s"] = secs("results.Open", 2) // the populated directory
	m["trace.overhead_pct"] = 100 * (traced.wall/plain.wall - 1)
	m["sim.cpu_per_wall"] = traced.cpu / traced.wall
	m["sim.shard.speedup"] = 1

	snap, err := snapshotOf(reg)
	if err != nil {
		return err
	}
	simLayerMetrics(snap, m, &res.Absent)
	if cycles := float64(snap.Counters["flexvc_sim_cycles_total"]); cycles > 0 {
		m["sim.ns_per_cycle"] = float64(fresh.simWall.Nanoseconds()) / cycles
		if topo, err := cfgs[0].BuildTopology(); err == nil {
			m["sim.ns_per_router_cycle"] = m["sim.ns_per_cycle"] / float64(topo.NumRouters())
		}
	}

	// Simulated outcome over the whole figure.
	per := make([]stats.Result, len(fresh.file.Records))
	var delivered int64
	for i, r := range fresh.file.Records {
		per[i] = r.Result
		delivered += r.Result.DeliveredPackets
	}
	if delivered > 0 {
		m["sim.ns_per_delivered_packet"] = float64(fresh.simWall.Nanoseconds()) / float64(delivered)
	}
	var agg stats.Result
	m["stats.aggregate_s"] = timeOnce(func() { agg = stats.Aggregate(per) })
	modelMetrics(agg, m)
	gains := saturationGains(fresh.file)
	m["model.sat_throughput_baseline"] = gains.baseline
	if w.PaperRef != "" {
		gap, err := paperGap(w, gains)
		if err != nil {
			return err
		}
		m["model.paper_gap_pp"] = gap
	}

	// The kernels run on the spec's first point: its scale and scheme.
	kcfg := cfgs[0]
	kcfg.Seed = o.Seed
	m["sim.new_s"] = timeOnce(func() {
		n, _ := sim.New(kcfg)
		kernelSink += int(n.Now())
	})
	if n, err := sim.New(kcfg); err == nil {
		n.RunCycles(kcfg.WarmupCycles + kcfg.MeasureCycles)
		m["stats.summarize_s"] = timeOnce(func() {
			kernelSink += int(n.Collector().Summarize(kcfg.Load, n.Now(), n.Deadlocked()).DeliveredPackets)
		})
	}
	if err := runKernels(kcfg, m); err != nil {
		return err
	}
	if err := putKernel(dirs.next(), fresh.file.Records, m); err != nil {
		return err
	}
	m["host.calib_ns"] = median(calib.samples)
	m["host.calib_cv"] = cv(calib.samples)
	res.Samples = map[string][]float64{"traced.wall_s": {traced.wall}, "untraced.wall_s": {plain.wall}, "host.calib_ns": calib.samples}
	return nil
}

// putKernel times the store's write side on a fresh directory: one Put per
// record (each a durable checkpoint: temp file, fsync, rename, directory
// fsync), then the manifest flush; and reports the mean record size.
func putKernel(dir string, recs []results.Record, m metricSet) error {
	store, err := results.Open(dir)
	if err != nil {
		return err
	}
	puts := make([]float64, len(recs))
	for i, r := range recs {
		start := time.Now()
		if err := store.Put(r, time.Millisecond); err != nil {
			return err
		}
		puts[i] = float64(time.Since(start).Nanoseconds()) / 1e3
	}
	start := time.Now()
	if err := store.Flush(); err != nil {
		return err
	}
	m["results.flush_s"] = time.Since(start).Seconds()
	m["results.put_p50_us"] = quantile(puts, 0.5)
	m["results.put_p90_us"] = quantile(puts, 0.9)
	var bytesTotal int
	for _, r := range recs {
		b, _ := json.Marshal(r)
		bytesTotal += len(b)
	}
	if len(recs) > 0 {
		m["results.record_kb"] = float64(bytesTotal) / float64(len(recs)) / 1024
	}
	return nil
}

// resultsKernels gives a replication workload its results.* numbers: the
// workload's own result stored 32 times under distinct keys, then the
// populated directory reopened and exported.
func resultsKernels(o runOpts, name string, r stats.Result, m metricSet) error {
	recs := make([]results.Record, 32)
	for i := range recs {
		recs[i] = results.Record{
			Schema: results.SchemaVersion, Experiment: "bench", Section: name, Variant: "v",
			Scale: "bench", Load: r.OfferedLoad, Seed: i, Fingerprint: "bench", Result: r,
		}
	}
	dir := filepath.Join(o.ScratchDir, "results-kernel")
	if err := putKernel(dir, recs, m); err != nil {
		return err
	}
	var store *results.Store
	m["results.open_s"] = timeOnce(func() { store, _ = results.Open(dir) })
	if store == nil {
		return fmt.Errorf("results.Open(%s) failed on a directory just written", dir)
	}
	var err error
	m["results.export_s"] = timeOnce(func() { _, err = store.WriteExport("bench", name) })
	return err
}

// campaignKernel times parse + compile of the workload's own spec.
func campaignKernel(w workload, m metricSet) error {
	spec, err := w.read(w.Spec)
	if err != nil {
		return err
	}
	m["campaign.compile_s"] = timeOnce(func() { _, err = campaign.Parse(spec) })
	return err
}

// satGains is a figure's saturation-throughput summary: per section and
// variant label, the relative gain of the variant's best accepted load over
// the section's first variant; baseline is the first section's first
// variant's best accepted load.
type satGains struct {
	baseline float64
	gain     map[[2]string]float64 // (section title, variant label)
}

func saturationGains(f *results.File) satGains {
	type point struct{ sec, variant, pt int }
	sum, cnt := map[point]float64{}, map[point]float64{}
	title, label := map[int]string{}, map[[2]int]string{}
	for _, r := range f.Records {
		p := point{r.SectionIndex, r.VariantIndex, r.PointIndex}
		sum[p] += r.Result.AcceptedLoad
		cnt[p]++
		title[r.SectionIndex] = r.Section
		label[[2]int{r.SectionIndex, r.VariantIndex}] = r.Variant
	}
	best := map[[2]int]float64{}
	for p, s := range sum {
		k := [2]int{p.sec, p.variant}
		best[k] = math.Max(best[k], s/cnt[p])
	}
	g := satGains{baseline: best[[2]int{0, 0}], gain: map[[2]string]float64{}}
	for k, v := range best {
		if base := best[[2]int{k[0], 0}]; base > 0 {
			g.gain[[2]string{title[k[0]], label[k]}] = v/base - 1
		}
	}
	return g
}

// paperGap is the fidelity metric: the mean absolute difference, in
// percentage points, between measured and paper-digitised relative
// saturation-throughput gain over the variants the reference table covers.
// A reference row matches a section whose title contains its marker and the
// variant with exactly its label.
func paperGap(w workload, g satGains) (float64, error) {
	refFile := w.PaperRef
	b, err := w.read(refFile)
	if err != nil {
		return 0, err
	}
	var ref struct {
		Reference []struct {
			Section string  `json:"section"`
			Variant string  `json:"variant"`
			Gain    float64 `json:"gain"`
		} `json:"reference"`
	}
	if err := json.Unmarshal(b, &ref); err != nil {
		return 0, fmt.Errorf("%s: %w", refFile, err)
	}
	var sum float64
	for _, row := range ref.Reference {
		found := false
		for k, v := range g.gain {
			if strings.Contains(k[0], row.Section) && k[1] == row.Variant {
				sum += math.Abs(v-row.Gain) * 100
				found = true
				break
			}
		}
		if !found {
			return 0, fmt.Errorf("%s: no measured variant matches %s %s", refFile, row.Section, row.Variant)
		}
	}
	if len(ref.Reference) == 0 {
		return 0, fmt.Errorf("%s: empty reference table", refFile)
	}
	return sum / float64(len(ref.Reference)), nil
}
