package main

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"flexvc/internal/campaign"
	"flexvc/internal/obs"
	"flexvc/internal/results"
	"flexvc/internal/sweep"
)

// runCaptured runs the command with args and returns what it printed to
// stdout.
func runCaptured(t *testing.T, args ...string) (string, error) {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	stdout := os.Stdout
	os.Stdout = f
	runErr := run(args)
	os.Stdout = stdout
	b, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(b), runErr
}

// runExport runs the command with -results dir and loads the export it
// writes.
func runExport(t *testing.T, dir string, args ...string) *results.File {
	t.Helper()
	if _, err := runCaptured(t, append(args, "-results", dir)...); err != nil {
		t.Fatal(err)
	}
	f, err := results.LoadFile(filepath.Join(dir, "flexvcsim.results.json"))
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestScenarioPrintsTransientTables: a run of a campaign's scenario section
// prints the windowed telemetry and, for a multi-phase scenario, the
// adaptation-lag summary.
func TestScenarioPrintsTransientTables(t *testing.T) {
	out, err := runCaptured(t, "-campaign", "transient", "-variant", "PB per-VC 4/2", "-scale", "tiny")
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"#### Windowed telemetry", "#### Adaptation lag", "| cycle |", "adversarial@0.30"} {
		if !strings.Contains(out, frag) {
			t.Errorf("output missing %q:\n%s", frag, out)
		}
	}
}

// TestCampaignRejectsConfigFlags: with -campaign the spec defines the
// configuration, so a setting flag the variant would overwrite is an error
// naming it.
func TestCampaignRejectsConfigFlags(t *testing.T) {
	for _, flag := range [][]string{{"-policy", "flexvc"}, {"-speedup", "2"}} {
		_, err := runCaptured(t, append([]string{"-campaign", "smoke", "-variant", "FlexVC 4/2"}, flag...)...)
		if err == nil || !strings.Contains(err.Error(), flag[0]) {
			t.Errorf("-campaign with %s: err = %v, want one naming %s", flag[0], err, flag[0])
		}
	}
}

// TestRejectsBadRunFlagsBeforeOpeningResults: a negative -workers, -seeds
// below one and -speedup below one are errors naming the flag, raised before
// anything simulates or the -results directory is created.
func TestRejectsBadRunFlagsBeforeOpeningResults(t *testing.T) {
	for _, tc := range [][]string{{"-workers", "-3"}, {"-seeds", "0"}, {"-speedup", "-2"}, {"-speedup", "0"}} {
		dir := filepath.Join(t.TempDir(), "results")
		out, err := runCaptured(t, "-scale", "tiny", tc[0], tc[1], "-results", dir)
		if err == nil || !strings.Contains(err.Error(), tc[0]) {
			t.Errorf("%s %s: err = %v, want one naming %s", tc[0], tc[1], err, tc[0])
		}
		if out != "" {
			t.Errorf("%s %s printed before failing:\n%s", tc[0], tc[1], out)
		}
		if _, err := os.Stat(dir); !os.IsNotExist(err) {
			t.Errorf("%s %s created the results directory (stat err %v)", tc[0], tc[1], err)
		}
	}
}

// TestCampaignVariantWritesResultsExport: one variant of a campaign spec run
// with -results exports every replication as a record under the flexvcsim
// experiment id, keyed by the spec's section title and variant label.
func TestCampaignVariantWritesResultsExport(t *testing.T) {
	f := runExport(t, t.TempDir(), "-campaign", "smoke", "-variant", "FlexVC 4/2", "-scale", "tiny", "-seeds", "2")
	if f.Experiment != "flexvcsim" || f.Scale != "tiny" || f.Seeds != 2 || len(f.Records) != 2 {
		t.Fatalf("unexpected export: experiment %q scale %q seeds %d records %d", f.Experiment, f.Scale, f.Seeds, len(f.Records))
	}
	for i, r := range f.Records {
		if r.Experiment != "flexvcsim" || r.Section != "UN with MIN routing" || r.Variant != "FlexVC 4/2" ||
			r.Load != 0.2 || r.Seed != i || r.Result.DeliveredPackets == 0 {
			t.Errorf("record %d: %+v", i, r)
		}
	}
}

// TestFlagAndCampaignPointsMatchCampaignRun: a point built from flags and the
// same point selected from a spec are the record a campaign run of the spec
// writes for it — same config fingerprint, same result. Run in the same
// results directory, the campaign restores none of flexvcsim's records, so
// its export keeps its own section and variant ordinals.
func TestFlagAndCampaignPointsMatchCampaignRun(t *testing.T) {
	dir := t.TempDir()
	var points []results.Record
	for _, args := range [][]string{
		{"-scale", "tiny", "-policy", "flexvc", "-vcs", "4/2", "-load", "0.2"},
		{"-campaign", "smoke", "-variant", "FlexVC 4/2", "-scale", "tiny"},
	} {
		f := runExport(t, dir, args...)
		if len(f.Records) != 1 {
			t.Fatalf("%v: %d records, want 1", args, len(f.Records))
		}
		points = append(points, f.Records[0])
	}

	spec, err := campaign.Builtin("smoke")
	if err != nil {
		t.Fatal(err)
	}
	store, err := results.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	metrics := obs.NewRegistry()
	if _, err := campaign.Run(spec, sweep.Options{Scale: "tiny", Results: store, Metrics: metrics}); err != nil {
		t.Fatal(err)
	}
	if n := metrics.Snapshot().Counters[sweep.MetricReplicationsRestored]; n != 0 {
		t.Errorf("campaign run restored %d flexvcsim records", n)
	}
	var want *results.Record
	for _, r := range store.Export("smoke", "").Records {
		if r.Variant == "FlexVC 4/2" && r.Load == 0.2 && r.Seed == 0 {
			want = &r
		}
	}
	if want == nil || want.VariantIndex != 1 {
		t.Fatalf("campaign export's FlexVC 4/2 record at load 0.2: %+v, want variant index 1", want)
	}
	for _, got := range points {
		if got.Fingerprint != want.Fingerprint || !reflect.DeepEqual(got.Result, want.Result) {
			t.Errorf("%q: fingerprint %s result %+v\nwant fingerprint %s result %+v", got.Variant, got.Fingerprint, got.Result, want.Fingerprint, want.Result)
		}
	}
}
