package sweep

import (
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"flexvc/internal/buffer"
	"flexvc/internal/config"
	"flexvc/internal/core"
	"flexvc/internal/results"
	"flexvc/internal/sim"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files with current output")

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file %s (run go test ./internal/sweep -update to create it): %v", path, err)
	}
	if got != string(want) {
		t.Errorf("output differs from %s (run go test ./internal/sweep -update after verifying the change):\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}

// TestGoldenQuickSweep locks down a complete simulated load sweep at the
// smallest scale: a Figure-5-style panel (baseline vs FlexVC under uniform
// traffic with MIN routing) on the Tiny Dragonfly with two replications per
// point, run through the section runner into a results store, exported, and
// rendered as the markdown report `figures render` writes. The parallel engine
// is deterministic, so the report is stable run to run; it changes only when
// the simulator's behaviour or the renderer changes, which is exactly what
// this test is meant to surface.
func TestGoldenQuickSweep(t *testing.T) {
	store, err := results.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := goldenSweepSeries(store); err != nil {
		t.Fatal(err)
	}
	path, err := store.WriteExport("quick-sweep", "tiny UN/MIN sweep (2 seeds)")
	if err != nil {
		t.Fatal(err)
	}
	f, err := results.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	md, err := RenderResultsMarkdown(f)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "quick_sweep.md.golden", md)
}

// TestQuickSweepDeterministic runs the same sweep on one worker and on four
// and requires identical results: every replication owns its network and
// points aggregate in replication order, so the worker count never leaks into
// results. With -race this doubles as the data race check on the workers.
func TestQuickSweepDeterministic(t *testing.T) {
	defer sim.SetWorkerBudget(sim.WorkerBudget())
	var runs [2][]Series
	for i, workers := range []int{1, 4} {
		sim.SetWorkerBudget(workers)
		var err error
		if runs[i], err = goldenSweepSeries(nil); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(runs[0], runs[1]) {
		t.Fatal("the same sweep on one worker and on four disagrees")
	}
}

// goldenSweepSeries runs the golden sweep, checkpointing into store when it
// is non-nil.
func goldenSweepSeries(store *results.Store) ([]Series, error) {
	base := config.Tiny()
	base.WarmupCycles = 200
	base.MeasureCycles = 1000
	variants := []Variant{
		schemeVariant("baseline 2/1", core.Baseline, core.SingleClass(2, 1)),
		schemeVariant("flexvc 2/1", core.FlexVC, core.SingleClass(2, 1)),
	}
	runner := Options{Scale: "tiny", Seeds: 2, Results: store}.NewRunner("quick-sweep")
	return runner.RunSection("tiny UN/MIN sweep", base, variants, []float64{0.2, 0.5, 0.8})
}

// schemeVariant runs a VC-management policy over statically partitioned
// buffers with JSQ selection.
func schemeVariant(label string, policy core.Policy, vcs core.VCConfig) Variant {
	return Variant{Label: label, Apply: func(c *config.Config) {
		c.BufferOrg = buffer.Static
		c.Scheme = core.Scheme{Policy: policy, VCs: vcs, Selection: core.JSQ}
	}}
}
