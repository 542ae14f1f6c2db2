package sweep

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"flexvc/internal/config"
	"flexvc/internal/core"
	"flexvc/internal/obs"
	"flexvc/internal/results"
	"flexvc/internal/sim"
	"flexvc/internal/stats"
)

// checkpointTestSweep runs the reference checkpointed sweep of this test
// file into dir: 3 variants x 5 loads x 2 seeds on the tiny Dragonfly. Both
// the in-process tests and the SIGKILL helper process run exactly this, so
// their stores are comparable byte for byte.
func checkpointTestSweep(dir string, progress func(Progress)) ([]Series, *results.Store, error) {
	store, err := results.Open(dir)
	if err != nil {
		return nil, nil, err
	}
	base, variants := checkpointTestSection()
	runner := Options{Scale: "tiny", Seeds: 2, Results: store, Progress: progress}.NewRunner("ckpt-test")
	series, err := runner.RunSection("tiny UN/MIN panel", base, variants, ckptTestLoads)
	return series, store, err
}

// checkpointTestSection is the base configuration and the variants of the
// reference sweep.
func checkpointTestSection() (config.Config, []Variant) {
	base := config.Tiny()
	base.WarmupCycles = 300
	base.MeasureCycles = 3000
	return base, []Variant{
		schemeVariant("baseline 2/1", core.Baseline, core.SingleClass(2, 1)),
		schemeVariant("flexvc 2/1", core.FlexVC, core.SingleClass(2, 1)),
		schemeVariant("flexvc 4/2", core.FlexVC, core.SingleClass(4, 2)),
	}
}

var ckptTestLoads = []float64{0.2, 0.4, 0.6, 0.8, 1.0}

const ckptTestReplications = 3 * 5 * 2

// exportBytes writes the test experiment's export file and returns its bytes.
func exportBytes(t *testing.T, store *results.Store) []byte {
	t.Helper()
	path, err := store.WriteExport("ckpt-test", "checkpoint test sweep")
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestCheckpointedMatchesPlainSweep requires a section run into a results
// store to produce exactly the series the same section produces without one,
// and every point to equal the aggregate of its replications run serially:
// checkpointing is an observer, never a behaviour change.
func TestCheckpointedMatchesPlainSweep(t *testing.T) {
	ckSeries, _, err := checkpointTestSweep(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	base, variants := checkpointTestSection()
	plain, err := Options{Scale: "tiny", Seeds: 2}.NewRunner("ckpt-test").RunSection("tiny UN/MIN panel", base, variants, ckptTestLoads)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ckSeries, plain) {
		t.Fatal("checkpointed sweep result differs from the store-less sweep")
	}
	for si, v := range variants {
		for _, p := range plain[si].Points {
			cfg := base
			v.Apply(&cfg)
			cfg.Load = p.Load
			var reps []stats.Result
			for s := 0; s < 2; s++ {
				r, _, err := sim.RunReplication(cfg, s)
				if err != nil {
					t.Fatal(err)
				}
				reps = append(reps, r)
			}
			if !reflect.DeepEqual(p.Result, stats.Aggregate(reps)) {
				t.Errorf("%s @ load %.1f: sweep point differs from its serial replications' aggregate", v.Label, p.Load)
			}
		}
	}
}

// TestFailedCheckpointStopsSweep removes the store's records directory so
// every checkpoint fails, then runs a 12-replication section on one worker: the
// sweep must return the failed Put's error without simulating the rest of the
// section.
func TestFailedCheckpointStopsSweep(t *testing.T) {
	defer sim.SetWorkerBudget(sim.WorkerBudget())
	sim.SetWorkerBudget(1)
	dir := t.TempDir()
	store, err := results.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(filepath.Join(dir, "records")); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	base, variants := checkpointTestSection()
	base.WarmupCycles, base.MeasureCycles = 100, 300
	base.Metrics = reg
	runner := Options{Scale: "tiny", Seeds: 2, Results: store, Metrics: reg}.NewRunner("ckpt-test")
	_, err = runner.RunSection("tiny UN/MIN panel", base, variants, ckptTestLoads[:2])
	if err == nil || !strings.Contains(err.Error(), "records") {
		t.Fatalf("sweep with an unwritable store returned %v, want the failed Put's error", err)
	}
	if n := reg.Snapshot().Counters[sim.MetricReplications]; n > int64(sim.WorkerBudget()) {
		t.Errorf("%d replications simulated, want at most %d: the sweep went on after a checkpoint failed", n, sim.WorkerBudget())
	}
}

// TestCheckpointResumeSkipsCompletedWork runs a partial sweep (a prefix of
// the load points), then the full sweep against the same directory, and
// requires (a) every already-done replication to be restored rather than
// re-simulated and (b) the final export to be bit-identical to an
// uninterrupted run's.
func TestCheckpointResumeSkipsCompletedWork(t *testing.T) {
	// Uninterrupted reference run.
	_, refStore, err := checkpointTestSweep(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	ref := exportBytes(t, refStore)

	// Partial run: first two loads only.
	dir := t.TempDir()
	store, err := results.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	base, variants := checkpointTestSection()
	runner := Options{Scale: "tiny", Seeds: 2, Results: store}.NewRunner("ckpt-test")
	if _, err := runner.RunSection("tiny UN/MIN panel", base, variants, ckptTestLoads[:2]); err != nil {
		t.Fatal(err)
	}
	partial := store.Len()
	if partial != 3*2*2 {
		t.Fatalf("partial run recorded %d replications, want %d", partial, 3*2*2)
	}

	// Resume with the full sweep against the same directory.
	var last Progress
	series, store2, err := checkpointTestSweep(dir, func(p Progress) { last = p })
	if err != nil {
		t.Fatal(err)
	}
	if last.Skipped != partial {
		t.Errorf("resume skipped %d replications, want %d", last.Skipped, partial)
	}
	if last.Done != ckptTestReplications || last.Total != ckptTestReplications {
		t.Errorf("resume accounting wrong: %+v", last)
	}
	if got := exportBytes(t, store2); !bytes.Equal(got, ref) {
		t.Fatal("resumed export is not bit-identical to the uninterrupted run")
	}
	// And the rebuilt series must match too.
	full, _, err := checkpointTestSweep(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(series, full) {
		t.Fatal("resumed series differ from an uninterrupted run's")
	}
}

// TestCheckpointSweepHelperProcess is not a test: it is the body of the
// child process TestCheckpointSIGKILLResume kills. It runs the reference
// sweep into the directory named by FLEXVC_SWEEP_HELPER_DIR.
func TestCheckpointSweepHelperProcess(t *testing.T) {
	dir := os.Getenv("FLEXVC_SWEEP_HELPER_DIR")
	if dir == "" {
		t.Skip("helper process for TestCheckpointSIGKILLResume")
	}
	if _, _, err := checkpointTestSweep(dir, nil); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointSIGKILLResume proves the acceptance criterion end to end: a
// sweep process killed with SIGKILL mid-run leaves a directory from which a
// restarted sweep skips the completed replications and exports results JSON
// bit-identical to an uninterrupted run's.
func TestCheckpointSIGKILLResume(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a child process")
	}
	dir := t.TempDir()
	recDir := filepath.Join(dir, "records")

	cmd := exec.Command(os.Args[0], "-test.run", "^TestCheckpointSweepHelperProcess$", "-test.v")
	cmd.Env = append(os.Environ(), "FLEXVC_SWEEP_HELPER_DIR="+dir)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &out
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	// Kill the child the moment at least two replications are on disk —
	// mid-run, with most of the sweep still to do.
	countRecords := func() int {
		entries, err := os.ReadDir(recDir)
		if err != nil {
			return 0
		}
		n := 0
		for _, e := range entries {
			if strings.HasSuffix(e.Name(), ".json") {
				n++
			}
		}
		return n
	}
	deadline := time.Now().Add(60 * time.Second)
	for countRecords() < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("no checkpoints appeared before the deadline; helper output:\n%s", out.String())
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := cmd.Process.Kill(); err != nil { // SIGKILL on unix
		t.Fatal(err)
	}
	_ = cmd.Wait()
	killedAt := countRecords()
	t.Logf("killed helper with %d/%d replications recorded", killedAt, ckptTestReplications)
	if killedAt == ckptTestReplications {
		t.Log("helper finished before the kill landed; resume still exercised below")
	}

	// Restart against the same directory.
	var last Progress
	_, store, err := checkpointTestSweep(dir, func(p Progress) { last = p })
	if err != nil {
		t.Fatal(err)
	}
	if last.Skipped == 0 {
		t.Error("restarted sweep re-simulated everything; expected completed replications to be skipped")
	}
	if last.Done != ckptTestReplications {
		t.Errorf("restarted sweep completed %d replications, want %d", last.Done, ckptTestReplications)
	}

	// The resumed export must equal an uninterrupted run's, byte for byte.
	_, refStore, err := checkpointTestSweep(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(exportBytes(t, store), exportBytes(t, refStore)) {
		t.Fatal("post-SIGKILL resumed export is not bit-identical to an uninterrupted run")
	}
}

// TestReportFromResults rebuilds the sections of the exported results file,
// requires their series to equal the live run's exactly, and checks the
// markdown report rendered from the export.
func TestReportFromResults(t *testing.T) {
	series, store, err := checkpointTestSweep(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	path, err := store.WriteExport("ckpt-test", "checkpoint test sweep")
	if err != nil {
		t.Fatal(err)
	}
	f, err := results.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sections, err := rebuildSections(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(sections) != 1 {
		t.Fatalf("rebuilt %d sections, want 1", len(sections))
	}
	if !reflect.DeepEqual(sections[0].series, series) {
		t.Errorf("rebuilt series differ from the live run's:\n--- got ---\n%+v\n--- want ---\n%+v", sections[0].series, series)
	}
	md, err := RenderResultsMarkdown(f)
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"### tiny UN/MIN panel", "| offered |", "max accepted", "baseline 2/1"} {
		if !strings.Contains(md, frag) {
			t.Errorf("markdown rendering missing %q:\n%s", frag, md)
		}
	}
	if strings.Contains(md, "INCOMPLETE") {
		t.Error("complete results rendered as incomplete")
	}
}

// TestReportFromResultsFlagsMissingSeeds requires both interior and trailing
// seed gaps to surface as INCOMPLETE markers in the markdown report instead of
// silently rendering aggregates over fewer replications.
func TestReportFromResultsFlagsMissingSeeds(t *testing.T) {
	_, store, err := checkpointTestSweep(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	path, err := store.WriteExport("ckpt-test", "checkpoint test sweep")
	if err != nil {
		t.Fatal(err)
	}
	f, err := results.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	drop := func(pred func(r results.Record) bool) *results.File {
		out := *f
		out.Records = nil
		for _, r := range f.Records {
			if !pred(r) {
				out.Records = append(out.Records, r)
			}
		}
		return &out
	}
	// Trailing gap: the first point of the first variant loses seed 1.
	trailing := drop(func(r results.Record) bool {
		return r.VariantIndex == 0 && r.PointIndex == 0 && r.Seed == 1
	})
	md, err := RenderResultsMarkdown(trailing)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(md, "INCOMPLETE") {
		t.Error("trailing seed gap not flagged")
	}
	// Interior gap: the same point loses seed 0 instead. Only the absent
	// seed may be flagged — present seeds must not cascade into false notes.
	interior := drop(func(r results.Record) bool {
		return r.VariantIndex == 0 && r.PointIndex == 0 && r.Seed == 0
	})
	md, err = RenderResultsMarkdown(interior)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(md, "missing seed 0") {
		t.Error("interior seed gap not flagged")
	}
	if strings.Contains(md, "missing seed 1") {
		t.Error("present seed falsely flagged as missing")
	}
}
