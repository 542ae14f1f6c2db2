package results

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"flexvc/internal/config"
	"flexvc/internal/stats"
)

// mkRecord builds a record with a small but non-trivial result (including a
// populated histogram) so round-trips exercise the full schema.
func mkRecord(section string, si, vi, pi, seed int, load float64) Record {
	var h stats.Histogram
	for v := int64(0); v < 500; v += 7 {
		h.Record(v)
	}
	cfg := config.Tiny()
	cfg.Load = load
	return Record{
		Schema:       SchemaVersion,
		Experiment:   "fig5",
		Section:      section,
		SectionIndex: si,
		Variant:      fmt.Sprintf("FlexVC 4/2 v%d", vi),
		VariantIndex: vi,
		PointIndex:   pi,
		Scale:        "tiny",
		Load:         load,
		Seed:         seed,
		SimSeed:      1 + int64(seed)*7919,
		Fingerprint:  Fingerprint(cfg),
		Result: stats.Result{
			OfferedLoad:      load,
			AcceptedLoad:     load * 0.93,
			AvgLatency:       123.456,
			P99:              512.5,
			DeliveredPackets: 71,
			Hist:             &h,
		},
	}
}

func TestRecordRoundTrip(t *testing.T) {
	rec := mkRecord("(a) UN", 0, 1, 2, 3, 0.7)
	b, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	var back Record
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rec, back) {
		t.Fatalf("record does not round-trip:\n got %+v\nwant %+v", back, rec)
	}
}

func TestFingerprintDistinguishesConfigs(t *testing.T) {
	a, b := config.Tiny(), config.Tiny()
	if Fingerprint(a) != Fingerprint(b) {
		t.Fatal("equal configs produced different fingerprints")
	}
	b.Load = a.Load + 0.1
	if Fingerprint(a) == Fingerprint(b) {
		t.Fatal("different configs collided")
	}
}

func TestStorePutGetResume(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	rec := mkRecord("(a) UN", 0, 0, 0, 0, 0.5)
	if _, ok := s.Get(rec.Key(), rec.Fingerprint); ok {
		t.Fatal("empty store claims to hold a record")
	}
	if err := s.Put(rec, 1500*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(rec.Key(), rec.Fingerprint)
	if !ok || !reflect.DeepEqual(got, rec) {
		t.Fatal("stored record not returned intact")
	}
	// A changed fingerprint (same key, different config) must miss.
	if _, ok := s.Get(rec.Key(), "deadbeefdeadbeef"); ok {
		t.Fatal("stale record returned despite fingerprint mismatch")
	}

	// Reopen: the directory is the source of truth. The record itself must
	// survive even without a Flush (the manifest is only advisory)…
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, ok = s2.Get(rec.Key(), rec.Fingerprint)
	if !ok || !reflect.DeepEqual(got, rec) {
		t.Fatal("record lost across reopen")
	}
	// …while the wall-time annotation survives once the manifest is flushed.
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	s3, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if s3.WallTotal() != 1500*time.Millisecond {
		t.Fatalf("wall time lost across flush+reopen: %v", s3.WallTotal())
	}
}

func TestStoreSurvivesTornFilesAndMissingManifest(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	rec := mkRecord("(a) UN", 0, 0, 0, 0, 0.5)
	if err := s.Put(rec, time.Second); err != nil {
		t.Fatal(err)
	}
	// Simulate a SIGKILL mid-write: a torn temp file and a truncated record.
	recDir := filepath.Join(dir, recordsSubdir)
	if err := os.WriteFile(filepath.Join(recDir, ".tmp-partial-xyz"), []byte(`{"schema":1,"exper`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(recDir, "fig5-ffffffffffffffff.json"), []byte(`{"schema":1,`), 0o644); err != nil {
		t.Fatal(err)
	}
	// And a deleted manifest.
	if err := os.Remove(filepath.Join(dir, manifestName)); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Len() != 1 {
		t.Fatalf("store indexed %d records, want 1 (torn files must be ignored)", s2.Len())
	}
	if _, ok := s2.Get(rec.Key(), rec.Fingerprint); !ok {
		t.Fatal("intact record lost during crash recovery")
	}
	if _, err := os.Stat(filepath.Join(dir, manifestName)); err != nil {
		t.Fatal("manifest not regenerated on open")
	}
}

func TestExportDeterministicAndOrderIndependent(t *testing.T) {
	recs := []Record{
		mkRecord("(b) ADV", 1, 0, 0, 0, 0.2),
		mkRecord("(a) UN", 0, 1, 0, 0, 0.5),
		mkRecord("(a) UN", 0, 0, 1, 1, 0.8),
		mkRecord("(a) UN", 0, 0, 1, 0, 0.8),
		mkRecord("(a) UN", 0, 0, 0, 0, 0.5),
	}
	export := func(order []int) []byte {
		t.Helper()
		s, err := Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		for _, i := range order {
			if err := s.Put(recs[i], time.Duration(i)*time.Second); err != nil {
				t.Fatal(err)
			}
		}
		path, err := s.WriteExport("fig5", "Figure 5")
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a := export([]int{0, 1, 2, 3, 4})
	b := export([]int{4, 3, 2, 1, 0})
	if !bytes.Equal(a, b) {
		t.Fatal("export bytes depend on insertion order")
	}
	f, err := LoadFile(filepath.Join(t.TempDir(), "missing.json"))
	if err == nil {
		t.Fatalf("loading a missing file succeeded: %+v", f)
	}
}

func TestLoadFileValidates(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "x.results.json")
	if err := os.WriteFile(path, []byte(`{"schema":99,"experiment":"fig5","records":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFile(path); err == nil {
		t.Fatal("wrong-schema export accepted")
	}
	torn := filepath.Join(t.TempDir(), "torn.results.json")
	if err := os.WriteFile(torn, []byte(`{"schema":2,"records":[`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFile(torn); err == nil {
		t.Fatal("torn export accepted")
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(mkRecord("(a) UN", 0, 0, 0, 0, 0.5), time.Second); err != nil {
		t.Fatal(err)
	}
	p, err := s.WriteExport("fig5", "Figure 5")
	if err != nil {
		t.Fatal(err)
	}
	f, err := LoadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	if f.Experiment != "fig5" || len(f.Records) != 1 || f.Seeds != 1 || f.Scale != "tiny" {
		t.Fatalf("export header wrong: %+v", f)
	}
}

// TestExportRestrictsToActiveKeys: once a process has produced or restored
// any replication of an experiment, its exports must contain exactly those
// replications — records left over from an earlier run with different
// parameters (here: more seeds) stay out of the results file.
func TestExportRestrictsToActiveKeys(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for seed := 0; seed < 3; seed++ {
		if err := s.Put(mkRecord("(a) UN", 0, 0, 0, seed, 0.5), time.Second); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}

	// A later 1-seed run against the same directory restores only seed 0.
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	rec := mkRecord("(a) UN", 0, 0, 0, 0, 0.5)
	if _, ok := s2.Get(rec.Key(), rec.Fingerprint); !ok {
		t.Fatal("seed 0 not restorable")
	}
	f := s2.Export("fig5", "t")
	if len(f.Records) != 1 || f.Seeds != 1 {
		t.Fatalf("export leaked stale records: %d records, seeds=%d (want 1, 1)", len(f.Records), f.Seeds)
	}

	// A store that has not simulated anything exports the full directory.
	s3, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if f := s3.Export("fig5", "t"); len(f.Records) != 3 {
		t.Fatalf("passive export should include everything: %d records", len(f.Records))
	}
}

func TestRecordValidate(t *testing.T) {
	good := mkRecord("(a) UN", 0, 0, 0, 0, 0.5)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []func(*Record){
		func(r *Record) { r.Schema = 99 },
		func(r *Record) { r.Experiment = "" },
		func(r *Record) { r.Variant = "" },
		func(r *Record) { r.Fingerprint = "" },
		func(r *Record) { r.Seed = -1 },
		func(r *Record) { r.SectionIndex = -1 },
		func(r *Record) { r.PointIndex = -1 },
	}
	for i, mutate := range bad {
		r := good
		mutate(&r)
		if err := r.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestStoreRevisionAndDir(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if s.Dir() != dir {
		t.Fatalf("Dir() = %q, want %q", s.Dir(), dir)
	}
	s.SetRevision("abc1234")
	if err := s.Put(mkRecord("(a) UN", 0, 0, 0, 0, 0.5), time.Second); err != nil {
		t.Fatal(err)
	}
	// The revision survives a reopen (it is carried by the manifest) and is
	// stamped into exports.
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	p, err := s2.WriteExport("fig5", "Figure 5")
	if err != nil {
		t.Fatal(err)
	}
	f, err := LoadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	if f.Revision != "abc1234" {
		t.Fatalf("revision lost: %+v", f)
	}
}

func TestSanitize(t *testing.T) {
	for in, want := range map[string]string{
		"fig5":             "fig5",
		"Fig 5 (a) UN/MIN": "fig-5--a--un-min",
		"--weird--":        "weird",
	} {
		if got := sanitize(in); got != want {
			t.Errorf("sanitize(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestPutRejectsInvalidRecord(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	rec := mkRecord("(a) UN", 0, 0, 0, 0, 0.5)
	rec.Experiment = ""
	if err := s.Put(rec, time.Second); err == nil {
		t.Fatal("invalid record stored")
	}
}

func TestWriteSinglePoint(t *testing.T) {
	cfg := config.Tiny()
	cfg.Load = 0.4
	path := filepath.Join(t.TempDir(), "point.json")
	runs := []stats.Result{{AcceptedLoad: 0.39}, {AcceptedLoad: 0.41}}
	if err := WriteSinglePoint(path, cfg, "tiny", stats.Aggregate(runs), runs); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var sp SinglePoint
	if err := json.Unmarshal(b, &sp); err != nil {
		t.Fatal(err)
	}
	if sp.Schema != SchemaVersion || sp.Seeds != 2 || sp.Fingerprint != Fingerprint(cfg) {
		t.Fatalf("single-point file wrong: %+v", sp)
	}
}

// TestPutRecordWorldReadable asserts the satellite bugfix: records land with
// umask-respecting 0644 permissions, so checkpoints written by one user's
// worker are readable by every process sharing the results directory. (The
// old os.CreateTemp path hard-coded 0600.)
func TestPutRecordWorldReadable(t *testing.T) {
	dir := t.TempDir()
	store, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	rec := mkRecord("(a) UN", 0, 0, 0, 0, 0.5)
	if err := store.Put(rec, time.Second); err != nil {
		t.Fatal(err)
	}
	// The process umask also applies to a plain 0644 create; compare against
	// that reference so the test is exact under any umask.
	refPath := filepath.Join(dir, "umask-ref")
	ref, err := os.OpenFile(refPath, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	ref.Close()
	refInfo, err := os.Stat(refPath)
	if err != nil {
		t.Fatal(err)
	}
	want := refInfo.Mode().Perm()

	recPath := filepath.Join(dir, recordsSubdir, recordFileName(rec.Key()))
	info, err := os.Stat(recPath)
	if err != nil {
		t.Fatal(err)
	}
	if got := info.Mode().Perm(); got != want {
		t.Errorf("record mode %v, want %v", got, want)
	}
	if want&0o044 == 0 {
		t.Skipf("umask strips group/other read bits (mode %v); cannot assert shared readability", want)
	}
	if info.Mode().Perm()&0o044 == 0 {
		t.Errorf("record mode %v not group/other readable", info.Mode().Perm())
	}
	// Manifest and exports follow the same path and must match too.
	if err := store.Flush(); err != nil {
		t.Fatal(err)
	}
	manInfo, err := os.Stat(filepath.Join(dir, manifestName))
	if err != nil {
		t.Fatal(err)
	}
	if got := manInfo.Mode().Perm(); got != want {
		t.Errorf("manifest mode %v, want %v", got, want)
	}
}
