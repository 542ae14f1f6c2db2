package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"
)

// tinyWorkloads loads testdata/: one-section specs at tiny scale, so a whole
// run of each mode takes milliseconds.
func tinyWorkloads(t *testing.T) []workload {
	t.Helper()
	ws, err := loadWorkloads(os.DirFS("testdata"))
	if err != nil {
		t.Fatal(err)
	}
	return ws
}

// tinyRun runs one tiny workload with a zero time budget (the repetition
// floors apply) and short kernel batches, restoring process-wide state.
func tinyRun(t *testing.T, w workload, trace bool) (*runResult, string) {
	t.Helper()
	procs, batch := runtime.GOMAXPROCS(0), kernelBatchTime
	kernelBatchTime = 200 * time.Microsecond
	t.Cleanup(func() {
		setProcs(procs)
		kernelBatchTime = batch
	})
	dir := t.TempDir()
	res, err := runWorkload(w, runOpts{Seed: 3, Trace: trace, OutDir: dir, ScratchDir: filepath.Join(dir, "scratch")})
	if err != nil {
		t.Fatalf("%s: %v", w.Name, err)
	}
	if res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("%s: %d of %d operations failed: %v", w.Name, res.Failed, res.Attempted, res.Failures)
	}
	if _, err := os.Stat(filepath.Join(dir, "scratch")); !os.IsNotExist(err) {
		t.Errorf("%s: scratch directory left behind", w.Name)
	}
	return res, dir
}

func TestEveryEndToEndMetricOnEveryWorkload(t *testing.T) {
	for _, w := range tinyWorkloads(t) {
		res, _ := tinyRun(t, w, false)
		line := res.driverLine(endToEnd)
		if !line.Correct || len(line.Metrics) != len(endToEnd) {
			t.Errorf("%s: correct=%v, %d metrics, want %d", w.Name, line.Correct, len(line.Metrics), len(endToEnd))
		}
		for _, d := range endToEnd {
			v, ok := line.Metrics[d.Name]
			if !ok || v.Value <= 0 || v.Unit != d.Unit {
				t.Errorf("%s: %s = %+v (present %v), want a positive value in %s", w.Name, d.Name, v, ok, d.Unit)
			}
		}
		if want := minTimedReps; w.Kind == kindReplication && len(res.Samples["wall_s"]) != want {
			t.Errorf("%s: %d timed repetitions with no budget, want the floor %d", w.Name, len(res.Samples["wall_s"]), want)
		}
	}
}

func TestTracedRunEmitsEveryLayerMetric(t *testing.T) {
	// What must be non-zero depends on the kind of workload: sweep.* and the
	// paper gap exist only where a sweep ran.
	sweepOnly := map[string]bool{
		"sweep.reps_per_s": true, "sweep.parallelism": true, "sweep.restore_pass_s": true, "sweep.render_s": true,
		"model.sat_throughput_baseline": true, "model.paper_gap_pp": true,
	}
	mayBeZero := map[string]bool{
		"sim.phase.flush_ns_per_cycle":     true, // the serial loop has no flush phase
		"trace.overhead_pct":               true, // a difference of two noisy times
		"host.calib_cv":                    true,
		"runtime.gc_cycles":                true,
		"runtime.gc_cpu_s":                 true,
		"topology.build_s":                 true, // below the clock's resolution at tiny scale
		"sim.phase.pb_update_ns_per_cycle": true,
	}
	for _, w := range tinyWorkloads(t) {
		res, dir := tinyRun(t, w, true)
		line := res.driverLine(perLayer)
		if len(line.Metrics) != len(perLayer) {
			t.Errorf("%s: %d metrics, want %d", w.Name, len(line.Metrics), len(perLayer))
		}
		for _, d := range perLayer {
			v := line.Metrics[d.Name].Value
			switch {
			case mayBeZero[d.Name]:
			case sweepOnly[d.Name] && w.Kind != kindSweep:
				if v != 0 {
					t.Errorf("%s: %s = %v, want 0 (not applicable)", w.Name, d.Name, v)
				}
			case v <= 0:
				t.Errorf("%s: %s = %v, want a positive value", w.Name, d.Name, v)
			}
		}
		for name := range res.Metrics {
			found := false
			for _, d := range perLayer {
				found = found || d.Name == name
			}
			if !found {
				t.Errorf("%s: run set %q, which no table defines", w.Name, name)
			}
		}
		if len(res.Absent) != 0 && w.Kind == kindReplication && !strings.Contains(strings.Join(res.Absent, " "), "flush") {
			t.Errorf("%s: program series absent: %v", w.Name, res.Absent)
		}

		// The span file parses, names the layer calls, and nests.
		f, err := os.Open(filepath.Join(dir, w.Name+".trace.ndjson"))
		if err != nil {
			t.Fatal(err)
		}
		names := map[string]int{}
		lines := 0
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			var s span
			if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
				t.Fatalf("%s: span line %q: %v", w.Name, sc.Text(), err)
			}
			if s.End < s.Start || s.Parent >= lines {
				t.Errorf("%s: malformed span %+v", w.Name, s)
			}
			names[s.Name]++
			lines++
		}
		f.Close()
		if float64(lines) != res.Metrics["trace.spans"] {
			t.Errorf("%s: span file holds %d spans, trace.spans says %v", w.Name, lines, res.Metrics["trace.spans"])
		}
		want := []string{"sim.New", "sim.RunCycles", "stats.Summarize"}
		if w.Kind == kindSweep {
			want = []string{"campaign.Parse", "results.Open", "campaign.Run", "results.WriteExport", "results.LoadFile", "sweep.RenderResultsMarkdown"}
		}
		for _, n := range want {
			if names[n] == 0 {
				t.Errorf("%s: no %q span recorded (have %v)", w.Name, n, names)
			}
		}
	}
}

// The simulated outcome depends on the seed and on nothing else.
func TestModelMetricsRepeatExactly(t *testing.T) {
	for _, w := range tinyWorkloads(t) {
		a, _ := tinyRun(t, w, true)
		b, _ := tinyRun(t, w, true)
		for _, d := range perLayer {
			if strings.HasPrefix(d.Name, "model.") && a.Metrics[d.Name] != b.Metrics[d.Name] {
				t.Errorf("%s: %s = %v then %v", w.Name, d.Name, a.Metrics[d.Name], b.Metrics[d.Name])
			}
		}
	}
}

func TestSweepInputDependsOnSeedOnly(t *testing.T) {
	spec, err := os.ReadFile("workloads/fig5-bench.campaign.json")
	if err != nil {
		t.Fatal(err)
	}
	a1, err := sweepInput(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	a2, _ := sweepInput(spec, 1)
	b, _ := sweepInput(spec, 2)
	if string(a1) != string(a2) {
		t.Error("the same seed gave different inputs")
	}
	if string(a1) == string(b) {
		t.Error("different seeds gave the same input")
	}
	cfgs, seeds, err := specPoints(a1)
	if err != nil || len(cfgs)*seeds != 98 {
		t.Errorf("sweep size = %d points x %d seeds, %v; want 98 replications", len(cfgs), seeds, err)
	}
}

func TestProcsFromWorkloadName(t *testing.T) {
	if n, err := procsFor("x-1core"); err != nil || n != 1 {
		t.Errorf("1core -> %d, %v", n, err)
	}
	if n, err := procsFor("x-allcores"); err != nil || n != min(runtime.NumCPU(), 4) {
		t.Errorf("allcores -> %d, %v", n, err)
	}
	if _, err := procsFor("x"); err == nil {
		t.Error("a name without a core suffix was accepted")
	}
}
