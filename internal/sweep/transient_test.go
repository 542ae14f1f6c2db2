package sweep_test

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"flexvc/internal/campaign"
	"flexvc/internal/results"
	"flexvc/internal/sweep"
)

// TestTransientExperimentCheckpointed runs the transient experiment (the
// embedded campaign spec; the external test package may import the campaign
// layer above sweep) through the checkpointed runner twice: the first run
// simulates and records, the second must restore every replication. The
// exports of both runs and their markdown reports must be byte-equal, and the
// report must carry the windowed telemetry and the adaptation-lag summary.
func TestTransientExperimentCheckpointed(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates three routing modes")
	}
	spec, err := campaign.Builtin("transient")
	if err != nil {
		t.Fatal(err)
	}
	store, err := results.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	opts := sweep.Options{Seeds: 1, Quick: true, Results: store}
	var last sweep.Progress
	opts.Progress = func(p sweep.Progress) { last = p }
	// run runs the spec, exports it and returns the export and its report.
	run := func() (export []byte, md string) {
		t.Helper()
		if _, err := campaign.Run(spec, opts); err != nil {
			t.Fatal(err)
		}
		path, err := store.WriteExport(spec.Name, spec.ReportTitle())
		if err != nil {
			t.Fatal(err)
		}
		if export, err = os.ReadFile(path); err != nil {
			t.Fatal(err)
		}
		f, err := results.LoadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if md, err = sweep.RenderResultsMarkdown(f); err != nil {
			t.Fatal(err)
		}
		return export, md
	}

	export, md := run()
	if last.Done != 3 || last.Skipped != 0 {
		t.Fatalf("first run: %d done (%d restored), want 3 fresh", last.Done, last.Skipped)
	}
	for _, frag := range []string{"#### Windowed telemetry", "#### Adaptation lag", "PB per-VC 4/2", "Phases:", "| p50 | p95 | p99 |", "min% before"} {
		if !strings.Contains(md, frag) {
			t.Errorf("markdown missing %q:\n%s", frag, md)
		}
	}

	// Resume: everything must come from the store, bit-identically.
	export2, md2 := run()
	if last.Skipped != 3 {
		t.Fatalf("resumed run restored %d of %d, want all 3", last.Skipped, last.Done)
	}
	if !bytes.Equal(export2, export) {
		t.Error("resumed export differs from the fresh one")
	}
	if md2 != md {
		t.Errorf("resumed report differs from the fresh one:\n--- resumed ---\n%s\n--- fresh ---\n%s", md2, md)
	}
}
