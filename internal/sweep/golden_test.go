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
// point. The parallel engine is deterministic, so the rendered table is
// stable run to run; it changes only when the simulator's behaviour changes,
// which is exactly what this test is meant to surface.
func TestGoldenQuickSweep(t *testing.T) {
	series, err := goldenSweepSeries()
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "quick_sweep.golden", RenderSeries("tiny UN/MIN sweep (2 seeds)", series))
}

// TestQuickSweepDeterministic runs the same sweep twice through the parallel
// scheduler and requires identical results — the sweep-level counterpart of
// sim.TestRunAveragedMatchesSequential. With -race this doubles as the data
// race check on the shared worker budget.
func TestQuickSweepDeterministic(t *testing.T) {
	a, err := goldenSweepSeries()
	if err != nil {
		t.Fatal(err)
	}
	b, err := goldenSweepSeries()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two runs of the same sweep through the parallel scheduler disagree")
	}
}

func goldenSweepSeries() ([]Series, error) {
	base := config.Tiny()
	base.WarmupCycles = 200
	base.MeasureCycles = 1000
	variants := []Variant{
		schemeVariant("baseline 2/1", core.Baseline, core.SingleClass(2, 1)),
		schemeVariant("flexvc 2/1", core.FlexVC, core.SingleClass(2, 1)),
	}
	return LoadSweep(base, variants, []float64{0.2, 0.5, 0.8}, 2)
}

// schemeVariant runs a VC-management policy over statically partitioned
// buffers with JSQ selection.
func schemeVariant(label string, policy core.Policy, vcs core.VCConfig) Variant {
	return Variant{Label: label, Apply: func(c *config.Config) {
		c.BufferOrg = buffer.Static
		c.Scheme = core.Scheme{Policy: policy, VCs: vcs, Selection: core.JSQ}
	}}
}
