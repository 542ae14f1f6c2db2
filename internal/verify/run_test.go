package verify

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"flexvc/internal/campaign"
	"flexvc/internal/results"
	"flexvc/internal/sweep"
)

// recordSmokeTree records the embedded smoke campaign (quick mode, ~0.2s)
// into a fresh "experiments tree": <dir>/smoke-rec/{smoke.results.json,
// report.md} plus <dir>/manifest.json with pinned digests. It is the faithful
// baseline every corruption test perturbs.
func recordSmokeTree(t *testing.T) (dir string, m *Manifest) {
	t.Helper()
	dir = t.TempDir()
	rec := filepath.Join(dir, "smoke-rec")
	if err := os.MkdirAll(rec, 0o755); err != nil {
		t.Fatal(err)
	}
	store, err := results.Open(filepath.Join(dir, "scratch-recording"))
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
	exportPath, err := store.WriteExport(spec.Name, spec.ReportTitle())
	if err != nil {
		t.Fatal(err)
	}
	export, err := os.ReadFile(exportPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(rec, "smoke.results.json"), export, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := results.LoadFile(exportPath)
	if err != nil {
		t.Fatal(err)
	}
	text, err := sweep.RenderResultsMarkdown(f)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(rec, "report.md"), []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}

	m = &Manifest{
		Schema: ManifestSchema,
		Entries: []Entry{{
			ID: "smoke", Kind: "campaign", Campaign: "smoke", Quick: true,
			Export:      FileRef{Path: "smoke-rec/smoke.results.json"},
			Report:      FileRef{Path: "smoke-rec/report.md"},
			ApproxWallS: 1,
		}},
	}
	m.SetDir(dir)
	if err := m.UpdateDigests(); err != nil {
		t.Fatal(err)
	}
	if err := m.Write(filepath.Join(dir, "manifest.json")); err != nil {
		t.Fatal(err)
	}
	// Loading it back exercises the file path tests rely on.
	m, err = LoadManifest(filepath.Join(dir, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	return dir, m
}

func checkOne(t *testing.T, m *Manifest, opts Options) Result {
	t.Helper()
	rs, err := Check(m, []string{"all"}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 1 {
		t.Fatalf("%d results, want 1", len(rs))
	}
	return rs[0]
}

// TestCheckPassesOnFaithfulRecording is the positive path: a just-recorded
// experiment verifies PASS, with the re-run actually simulating.
func TestCheckPassesOnFaithfulRecording(t *testing.T) {
	_, m := recordSmokeTree(t)
	r := checkOne(t, m, Options{})
	if r.Status != Pass {
		t.Fatalf("faithful recording: %s", r.Summary())
	}
	if r.Replications != 2 {
		t.Errorf("re-run simulated %d replications, want 2", r.Replications)
	}
	if r.Wall <= 0 {
		t.Error("result carries no wall time")
	}
}

// TestCheckCatchesExportByteCorruption flips one byte of the committed export
// and requires a FAIL naming the artefact — the integrity layer, no re-run
// needed.
func TestCheckCatchesExportByteCorruption(t *testing.T) {
	dir, m := recordSmokeTree(t)
	path := filepath.Join(dir, "smoke-rec", "smoke.results.json")
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/3] ^= 0x01
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	r := checkOne(t, m, Options{})
	if r.Status != Fail {
		t.Fatalf("corrupted export not caught: %s", r.Summary())
	}
	if len(r.Mismatches) != 1 || r.Mismatches[0].Artifact != "smoke-rec/smoke.results.json" ||
		!strings.Contains(r.Mismatches[0].Reason, "sha256") {
		t.Fatalf("wrong diagnostic: %s", r.Summary())
	}
	if r.Replications != 0 {
		t.Error("integrity failure should have skipped the re-run")
	}
}

// TestCheckCatchesStaleReport covers the drift scenario: the committed report
// was edited (or the renderer/simulator changed) and its digest deliberately
// re-pinned, so integrity passes — the re-run byte comparison must still FAIL
// with first-diverging-line context.
func TestCheckCatchesStaleReport(t *testing.T) {
	dir, m := recordSmokeTree(t)
	path := filepath.Join(dir, "smoke-rec", "report.md")
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	stale := strings.Replace(string(b), "|", "!", 1)
	if stale == string(b) {
		t.Fatal("report has no table to stale")
	}
	if err := os.WriteFile(path, []byte(stale), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := m.UpdateDigests(); err != nil { // digests match the stale bytes
		t.Fatal(err)
	}
	r := checkOne(t, m, Options{})
	if r.Status != Fail {
		t.Fatalf("stale report not caught: %s", r.Summary())
	}
	if len(r.Mismatches) != 1 {
		t.Fatalf("want exactly the report mismatch, got: %s", r.Summary())
	}
	mm := r.Mismatches[0]
	if mm.Artifact != "smoke-rec/report.md" || mm.Line == 0 || mm.Want == mm.Got {
		t.Fatalf("mismatch lacks line context: %+v", mm)
	}
}

// TestCheckNegativePathSelfTest proves the comparator is not vacuous: with
// CorruptFresh set, a faithful recording MUST fail on the named artefact.
func TestCheckNegativePathSelfTest(t *testing.T) {
	_, m := recordSmokeTree(t)
	for _, target := range []string{"export", "report"} {
		r := checkOne(t, m, Options{CorruptFresh: target})
		if r.Status != Fail {
			t.Errorf("CorruptFresh %s: comparator did not catch the corruption: %s", target, r.Summary())
		}
	}
	// And without the corruption the same tree still passes (the self-test
	// flag is the only difference).
	if r := checkOne(t, m, Options{}); r.Status != Pass {
		t.Errorf("tree no longer passes after self-tests: %s", r.Summary())
	}
}

// TestCheckMaxWallSkipsButStillChecksDigests: an entry above the -max-wall
// budget SKIPs its re-run, but corrupted artefacts still FAIL.
func TestCheckMaxWallSkipsButStillChecksDigests(t *testing.T) {
	dir, m := recordSmokeTree(t)
	r := checkOne(t, m, Options{MaxWall: time.Millisecond}) // entry claims ≈1s
	if r.Status != Skip || !strings.Contains(r.Detail, "skipped") {
		t.Fatalf("expensive entry not skipped: %s", r.Summary())
	}
	if r.Replications != 0 {
		t.Error("skip still simulated")
	}
	path := filepath.Join(dir, "smoke-rec", "report.md")
	if err := os.WriteFile(path, []byte("corrupted\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if r := checkOne(t, m, Options{MaxWall: time.Millisecond}); r.Status != Fail {
		t.Fatalf("digest corruption hidden behind SKIP: %s", r.Summary())
	}
}

// TestCheckMaxWallWorkersAware: the skip estimate divides the recorded
// (serial) wall by the worker count, so a budget that an entry blows serially
// no longer skips it when the parallel re-run would fit.
func TestCheckMaxWallWorkersAware(t *testing.T) {
	_, m := recordSmokeTree(t)
	budget := 600 * time.Millisecond // entry claims ≈1s serial
	if r := checkOne(t, m, Options{MaxWall: budget, Workers: 1}); r.Status != Skip {
		t.Fatalf("serial estimate should skip the 1s entry on a %s budget: %s", budget, r.Summary())
	}
	r := checkOne(t, m, Options{MaxWall: budget, Workers: 4})
	if r.Status != Pass {
		t.Fatalf("4-worker estimate (~0.25s) should re-run within the %s budget: %s", budget, r.Summary())
	}
	if r.Replications == 0 {
		t.Error("workers-aware pass did not actually re-simulate")
	}
}

// TestCheckMissingArtifactFails: a deleted recording is a FAIL with a
// readable reason, not a harness error.
func TestCheckMissingArtifactFails(t *testing.T) {
	dir, m := recordSmokeTree(t)
	if err := os.Remove(filepath.Join(dir, "smoke-rec", "report.md")); err != nil {
		t.Fatal(err)
	}
	r := checkOne(t, m, Options{})
	if r.Status != Fail || !strings.Contains(r.Summary(), "unreadable") {
		t.Fatalf("missing report: %s", r.Summary())
	}
}

// TestCheckUnpinnedDigestFails: an empty sha256 is an explicit FAIL telling
// the operator to run -update, never a silent pass.
func TestCheckUnpinnedDigestFails(t *testing.T) {
	_, m := recordSmokeTree(t)
	m.Entries[0].Export.SHA256 = ""
	r := checkOne(t, m, Options{})
	if r.Status != Fail || !strings.Contains(r.Summary(), "-update") {
		t.Fatalf("unpinned digest: %s", r.Summary())
	}
}

// TestCheckWorkDirKeepsScratchResults: with WorkDir set the re-run's results
// directory survives under <WorkDir>/<id> (what nightly CI uploads on
// failure).
func TestCheckWorkDirKeepsScratchResults(t *testing.T) {
	dir, m := recordSmokeTree(t)
	work := filepath.Join(dir, "check-work")
	r := checkOne(t, m, Options{WorkDir: work})
	if r.Status != Pass {
		t.Fatalf("%s", r.Summary())
	}
	if _, err := os.Stat(filepath.Join(work, "smoke", "smoke.results.json")); err != nil {
		t.Fatalf("scratch export not kept under WorkDir: %v", err)
	}
}

// TestCheckRerunErrorFails: an entry whose campaign spec cannot be resolved
// fails that entry (with the resolver's message) instead of aborting the
// whole check.
func TestCheckRerunErrorFails(t *testing.T) {
	_, m := recordSmokeTree(t)
	m.Entries[0].Campaign = "no-such-spec"
	r := checkOne(t, m, Options{})
	if r.Status != Fail || !strings.Contains(r.Summary(), "re-run failed") {
		t.Fatalf("unresolvable campaign: %s", r.Summary())
	}
}

// TestManifestEntriesMatchRecordedKeys compiles every entry of the committed
// experiments manifest at its pinned scale and seeds, without simulating, and
// requires the key and fingerprint set to equal the committed export's
// records. It runs in milliseconds, so it guards the entries whose re-run is
// too slow for PR-time checks (fig5-small, transient-medium). Changing one
// setting of a recorded spec must fail it.
func TestManifestEntriesMatchRecordedKeys(t *testing.T) {
	m, err := LoadManifest("../../experiments/manifest.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range m.Entries {
		t.Run(e.ID, func(t *testing.T) {
			spec, err := m.resolveCampaign(e)
			if err != nil {
				t.Fatal(err)
			}
			f, err := results.LoadFile(m.path(e.Export))
			if err != nil {
				t.Fatal(err)
			}
			var res Result
			if checkKeys(e, spec, f, &res); len(res.Mismatches) > 0 {
				t.Fatal(res.Mismatches[0])
			}

			// The negative path: one changed setting moves the fingerprints
			// of every replication it touches.
			threshold := 99
			if spec.Base == nil {
				spec.Base = &campaign.Settings{}
			}
			spec.Base.RoutingThreshold = &threshold
			res = Result{}
			if checkKeys(e, spec, f, &res); len(res.Mismatches) == 0 || !strings.Contains(res.Mismatches[0].Reason, "fingerprint") {
				t.Fatalf("a changed setting still matches the recorded keys: %+v", res.Mismatches)
			}
		})
	}
}

// TestCheckCatchesChangedSpec: a spec edit that moves the key space fails the
// entry without a re-run, even when -max-wall would have skipped it.
func TestCheckCatchesChangedSpec(t *testing.T) {
	dir, m := recordSmokeTree(t)
	spec, err := campaign.Builtin("smoke")
	if err != nil {
		t.Fatal(err)
	}
	spec.Sections[0].Title = "renamed"
	b, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "smoke-rec", "campaign.json"), b, 0o644); err != nil {
		t.Fatal(err)
	}
	m.Entries[0].Campaign = "smoke-rec/campaign.json"
	r := checkOne(t, m, Options{MaxWall: time.Millisecond})
	if r.Status != Fail || r.Replications != 0 || !strings.Contains(r.Summary(), `"renamed"`) {
		t.Fatalf("changed spec: %s", r.Summary())
	}
}
