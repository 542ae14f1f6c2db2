package main

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"flexvc/internal/campaign"
	"flexvc/internal/results"
	"flexvc/internal/sweep"
	"flexvc/internal/verify"
)

// recordSmoke runs the embedded smoke campaign (quick, ~0.2s) into a fresh
// results directory and returns the directory and export path — the cheapest
// way to get a real renderable export for CLI tests.
func recordSmoke(t *testing.T, dir string) string {
	t.Helper()
	store, err := results.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	store.SetRevision("testrev")
	spec, err := campaign.Builtin("smoke")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := campaign.Run(spec, sweep.Options{Quick: true, Results: store}); err != nil {
		t.Fatal(err)
	}
	path, err := store.WriteExport(spec.Name, spec.ReportTitle())
	if err != nil {
		t.Fatal(err)
	}
	return path
}

// recordedTree builds a manifest-described experiments tree around a smoke
// recording, digests pinned — the fixture the `figures check` CLI tests
// corrupt.
func recordedTree(t *testing.T) (manifestPath, exportPath, reportPath string) {
	t.Helper()
	dir := t.TempDir()
	rec := filepath.Join(dir, "smoke-rec")
	if err := os.MkdirAll(rec, 0o755); err != nil {
		t.Fatal(err)
	}
	src := recordSmoke(t, filepath.Join(dir, "recording"))
	export, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	exportPath = filepath.Join(rec, "smoke.results.json")
	if err := os.WriteFile(exportPath, export, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := results.LoadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	text, err := sweep.RenderResultsMarkdown(f)
	if err != nil {
		t.Fatal(err)
	}
	reportPath = filepath.Join(rec, "report.md")
	if err := os.WriteFile(reportPath, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	m := &verify.Manifest{
		Schema: verify.ManifestSchema,
		Entries: []verify.Entry{{
			ID: "smoke", Kind: "campaign", Campaign: "smoke", Quick: true,
			Export:      verify.FileRef{Path: "smoke-rec/smoke.results.json"},
			Report:      verify.FileRef{Path: "smoke-rec/report.md"},
			ApproxWallS: 1,
		}},
	}
	m.SetDir(dir)
	if err := m.UpdateDigests(); err != nil {
		t.Fatal(err)
	}
	manifestPath = filepath.Join(dir, "manifest.json")
	if err := m.Write(manifestPath); err != nil {
		t.Fatal(err)
	}
	return manifestPath, exportPath, reportPath
}

// TestExpandIDs locks the render id list: the user's order, no duplicates,
// no empty flag, and names passed through unchecked (a missing export is the
// error, not the id).
func TestExpandIDs(t *testing.T) {
	dir := t.TempDir()
	if _, err := expandIDs("", dir); err == nil {
		t.Error("empty -exp accepted")
	}
	if _, err := expandIDs("fig5,fig7,fig5", dir); err == nil || !strings.Contains(err.Error(), "twice") {
		t.Errorf("duplicate id accepted (err=%v)", err)
	}
	got, err := expandIDs("fig7,table3,custom", dir)
	if err != nil || strings.Join(got, ",") != "fig7,table3,custom" {
		t.Errorf("expandIDs should keep the user's order: %v, %v", got, err)
	}
}

// TestExpandRenderIDsAll locks discovery semantics: "all" is every export in
// the results directory, sorted (deterministic), and nothing else.
func TestExpandRenderIDsAll(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"zcustom.results.json", "acustom.results.json", "fig5.results.json", "notes.md"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("{}"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	ids, err := expandIDs("all", dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(ids, ","); got != "acustom,fig5,zcustom" {
		t.Errorf("discovered %s, want acustom,fig5,zcustom", got)
	}
	// A second pass must agree exactly — discovery is deterministic.
	again, err := expandIDs("all", dir)
	if err != nil || strings.Join(ids, ",") != strings.Join(again, ",") {
		t.Errorf("discovery not stable: %v vs %v (err %v)", ids, again, err)
	}
	if ids, err := expandIDs("all", t.TempDir()); err != nil || len(ids) != 0 {
		t.Errorf("empty directory discovered %v (err %v)", ids, err)
	}
}

// TestRenderAllSkipsUnreadableExports: with -exp all, a torn write and a
// foreign-schema file in the results directory must not sink the render of the
// valid export.
func TestRenderAllSkipsUnreadableExports(t *testing.T) {
	dir := t.TempDir()
	recordSmoke(t, dir)
	if err := os.WriteFile(filepath.Join(dir, "torn.results.json"), []byte(`{"schema":2,"experi`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "foreign.results.json"), []byte(`{"schema":99}`), 0o644); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "reports")
	if err := run([]string{"render", "-exp", "all", "-results", dir, "-out", out}); err != nil {
		t.Fatalf("render -exp all: %v", err)
	}
	if _, err := os.Stat(filepath.Join(out, "smoke.md")); err != nil {
		t.Fatalf("valid export not rendered: %v", err)
	}
	for _, bad := range []string{"torn.md", "foreign.md"} {
		if _, err := os.Stat(filepath.Join(out, bad)); err == nil {
			t.Errorf("unreadable export %s produced a report", bad)
		}
	}
	// Single-id render of the torn file must surface the error instead.
	if err := run([]string{"render", "-exp", "torn", "-results", dir}); err == nil {
		t.Error("single-id render of a torn export should fail loudly")
	}
}

// TestRenderAllSingleExportWritesDirectory: -exp all means directory output
// even when the results directory holds exactly one export.
func TestRenderAllSingleExportWritesDirectory(t *testing.T) {
	dir := t.TempDir()
	recordSmoke(t, dir)
	out := filepath.Join(dir, "reports") + string(filepath.Separator)
	if err := run([]string{"render", "-exp", "all", "-results", dir, "-out", out}); err != nil {
		t.Fatalf("render -exp all with one export: %v", err)
	}
	if _, err := os.Stat(filepath.Join(out, "smoke.md")); err != nil {
		t.Fatalf("single export not rendered into the -out directory: %v", err)
	}
}

// TestRunRejectsBadOverridesBeforeOpeningResults: a negative -seeds or
// -workers, or an unknown -scale, is an error naming the flag, and it is
// raised before the results directory is created.
func TestRunRejectsBadOverridesBeforeOpeningResults(t *testing.T) {
	for _, tc := range []struct{ flag, value string }{
		{"-seeds", "-3"},
		{"-workers", "-2"},
		{"-scale", "bogus"},
	} {
		dir := filepath.Join(t.TempDir(), "results")
		err := run([]string{"run", "-campaign", "smoke", "-quick", tc.flag, tc.value, "-results", dir})
		if err == nil || !strings.Contains(err.Error(), tc.flag) {
			t.Errorf("run %s %s: error %v, want one naming %s", tc.flag, tc.value, err, tc.flag)
		}
		if _, statErr := os.Stat(dir); !os.IsNotExist(statErr) {
			t.Errorf("run %s %s touched the results directory (stat: %v)", tc.flag, tc.value, statErr)
		}
	}
}

// TestCheckCLIPassesOnFaithfulTree is the CLI positive path for `figures
// check all`.
func TestCheckCLIPassesOnFaithfulTree(t *testing.T) {
	manifest, _, _ := recordedTree(t)
	if err := run([]string{"check", "-manifest", manifest, "all"}); err != nil {
		t.Fatalf("figures check all on a faithful tree: %v", err)
	}
}

// TestCheckCLICatchesCorruptExport is the acceptance-mandated negative path:
// one flipped byte in a committed export makes `figures check` return a
// non-nil error (exit 1 in main) naming the entry.
func TestCheckCLICatchesCorruptExport(t *testing.T) {
	manifest, export, _ := recordedTree(t)
	b, err := os.ReadFile(export)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0x01
	if err := os.WriteFile(export, b, 0o644); err != nil {
		t.Fatal(err)
	}
	err = run([]string{"check", "-manifest", manifest, "all"})
	if err == nil {
		t.Fatal("corrupted export passed `figures check`")
	}
	if !strings.Contains(err.Error(), "FAILED") || !strings.Contains(err.Error(), "smoke") {
		t.Fatalf("error %q should count failures and name the entry", err)
	}
}

// TestCheckCLICatchesStaleReport: a report edited and re-pinned (digests
// intact) still fails the re-run comparison.
func TestCheckCLICatchesStaleReport(t *testing.T) {
	manifest, _, report := recordedTree(t)
	b, err := os.ReadFile(report)
	if err != nil {
		t.Fatal(err)
	}
	stale := strings.Replace(string(b), "|", "!", 1)
	if stale == string(b) {
		t.Fatal("report has no table to stale")
	}
	if err := os.WriteFile(report, []byte(stale), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"check", "-manifest", manifest, "-update"}); err != nil {
		t.Fatal(err)
	}
	err = run([]string{"check", "-manifest", manifest, "all"})
	if err == nil || !strings.Contains(err.Error(), "smoke") {
		t.Fatalf("stale report passed `figures check` (err=%v)", err)
	}
}

// TestCheckCLICorruptFreshSelfTest: the -corrupt-fresh self-test must fail a
// faithful tree (proving the comparator bites) and reject unknown targets.
func TestCheckCLICorruptFreshSelfTest(t *testing.T) {
	manifest, _, _ := recordedTree(t)
	if err := run([]string{"check", "-manifest", manifest, "-corrupt-fresh", "export", "all"}); err == nil {
		t.Error("-corrupt-fresh export did not fail a faithful tree")
	}
	err := run([]string{"check", "-manifest", manifest, "-corrupt-fresh", "bogus", "all"})
	if err == nil || !strings.Contains(err.Error(), "corrupt-fresh") {
		t.Errorf("-corrupt-fresh bogus accepted (err=%v)", err)
	}
}

// TestCheckCLIUnknownEntry: asking for an id the manifest does not record is a
// harness error listing what exists.
func TestCheckCLIUnknownEntry(t *testing.T) {
	manifest, _, _ := recordedTree(t)
	err := run([]string{"check", "-manifest", manifest, "nope"})
	if err == nil || !strings.Contains(err.Error(), "smoke") {
		t.Fatalf("unknown entry error should list available ids (err=%v)", err)
	}
}

// TestNoSubcommandIsAnError: there is no one-shot mode behind the
// sub-commands — a bare invocation, or the flag form the removed legacy mode
// accepted, prints usage and fails.
func TestNoSubcommandIsAnError(t *testing.T) {
	for _, args := range [][]string{nil, {"-exp", "fig5", "-quick"}, {"-list"}} {
		if err := run(args); err == nil {
			t.Errorf("figures %v succeeded; want a usage error", args)
		}
	}
	if err := run([]string{"help"}); err != nil {
		t.Errorf("figures help: %v", err)
	}
}

// TestRenderAnalyticTable: the analytic tables have no recording to load, so
// `render` computes and writes them directly.
func TestRenderAnalyticTable(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "table3.txt")
	if err := run([]string{"render", "-exp", "table3", "-results", dir, "-out", out}); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if want := analyticText("table3"); string(b) != want {
		t.Errorf("rendered table3 differs from the computed report:\n%s", b)
	}
}

// TestTableExperiments: every analytic table computes a non-empty report
// naming the routing classes it classifies.
func TestTableExperiments(t *testing.T) {
	for id := range analyticTables {
		text := analyticText(id)
		if !strings.Contains(text, "MIN") || !strings.Contains(text, "VAL") {
			t.Errorf("%s report looks empty:\n%s", id, text)
		}
	}
}

// TestGoldenTable4 locks down the rendered report of Table IV, the analytic
// table combining FlexVC with protocol-deadlock avoidance in a Dragonfly.
func TestGoldenTable4(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "table4.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if got := analyticText("table4"); got != string(want) {
		t.Errorf("table4 differs from testdata/table4.golden:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestListCoversEveryPaperArtefact: `figures list` serves every table and
// figure of the paper's evaluation — Tables I-IV computed, Figures 5-11 and
// the transient experiment as embedded campaign specs — and `run` takes no
// other kind of experiment.
func TestListCoversEveryPaperArtefact(t *testing.T) {
	for _, id := range []string{"table1", "table2", "table3", "table4"} {
		if _, ok := analyticTables[id]; !ok {
			t.Errorf("missing analytic table %q", id)
		}
	}
	if len(analyticTables) != 4 {
		t.Errorf("%d analytic tables, want 4", len(analyticTables))
	}
	specs := campaign.BuiltinNames()
	for _, id := range []string{"fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "transient"} {
		if !slices.Contains(specs, id) {
			t.Errorf("missing embedded spec %q (have %v)", id, specs)
		}
	}
	if err := listCmd(); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for _, args := range [][]string{
		{"run", "-results", dir},
		{"run", "-exp", "fig5", "-results", dir},
		{"run", "-campaign", "table3", "-results", dir},
	} {
		if err := run(args); err == nil {
			t.Errorf("figures %v succeeded; only a campaign spec runs", args)
		}
	}
}
