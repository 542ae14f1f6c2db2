package sweep_test

import (
	"strings"
	"testing"

	"flexvc/internal/campaign"
	"flexvc/internal/results"
	"flexvc/internal/sweep"
)

// TestTransientExperimentCheckpointed runs the transient experiment (the
// embedded campaign spec; the external test package may import the campaign
// layer above sweep) through the checkpointed runner twice: the first run
// simulates and records, the second must restore every replication, and the
// rendered report — live, rebuilt from results, and markdown — must carry the
// windowed telemetry and the adaptation-lag summary.
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
	rep, err := campaign.Run(spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	if last.Done != 3 || last.Skipped != 0 {
		t.Fatalf("first run: %d done (%d restored), want 3 fresh", last.Done, last.Skipped)
	}
	body := rep.Sections[0].Body
	for _, frag := range []string{"windowed telemetry", "adaptation lag", "PB per-VC 4/2", "phases:"} {
		if !strings.Contains(body, frag) {
			t.Errorf("live report missing %q:\n%s", frag, body)
		}
	}

	// Resume: everything must come from the store, bit-identically.
	rep2, err := campaign.Run(spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	if last.Skipped != 3 {
		t.Fatalf("resumed run restored %d of %d, want all 3", last.Skipped, last.Done)
	}
	if rep2.Sections[0].Body != body {
		t.Error("resumed report differs from the fresh one")
	}

	// Export and re-render without simulating.
	path, err := store.WriteExport(spec.Name, spec.ReportTitle())
	if err != nil {
		t.Fatal(err)
	}
	f, err := results.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rebuilt, err := sweep.ReportFromResults(f)
	if err != nil {
		t.Fatal(err)
	}
	if rebuilt.Sections[0].Body != body {
		t.Errorf("rebuilt body differs from live rendering:\n--- rebuilt ---\n%s\n--- live ---\n%s", rebuilt.Sections[0].Body, body)
	}
	md, err := sweep.RenderResultsMarkdown(f)
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"#### Windowed telemetry", "#### Adaptation lag", "| p50 | p95 | p99 |", "min% before"} {
		if !strings.Contains(md, frag) {
			t.Errorf("markdown missing %q:\n%s", frag, md)
		}
	}
}
