package campaign

import (
	"bytes"
	"os"
	"testing"

	"flexvc/internal/results"
	"flexvc/internal/sweep"
)

// goCodedFig5Export is the small-scale Figure 5 export recorded by the
// Go-coded fig5 runner the embedded spec replaced: 280 replications, two
// seeds, every result simulated by that runner.
const goCodedFig5Export = "../../experiments/fig5-small/fig5.results.json"

// goCodedFig5Store loads the recorded Go-coded fig5 export, checks that the
// embedded fig5 spec plans exactly its records (keys, ordinals, derived seeds
// and config fingerprints, in export order), and returns a freshly opened
// results store whose checkpoints are those records, together with options
// that reproduce the recorded run and the raw export bytes.
//
// The plan check runs before anything else so a drifted spec fails in
// milliseconds instead of re-simulating the whole figure.
func goCodedFig5Store(t *testing.T) (*Campaign, sweep.Options, []byte) {
	t.Helper()
	raw, err := os.ReadFile(goCodedFig5Export)
	if err != nil {
		t.Fatal(err)
	}
	f, err := results.LoadFile(goCodedFig5Export)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := Builtin("fig5")
	if err != nil {
		t.Fatal(err)
	}
	opts := sweep.Options{Scale: f.Scale, Seeds: f.Seeds}
	plan, err := Keys(spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan) != len(f.Records) {
		t.Fatalf("fig5 spec plans %d replications, the Go-coded export holds %d", len(plan), len(f.Records))
	}
	for i, p := range plan {
		r := f.Records[i]
		if p.Key() != r.Key() || p.Fingerprint != r.Fingerprint || p.SimSeed != r.SimSeed ||
			p.SectionIndex != r.SectionIndex || p.VariantIndex != r.VariantIndex || p.PointIndex != r.PointIndex || p.Scale != r.Scale {
			t.Fatalf("fig5 spec record %d differs from the Go-coded export's\n  spec:     %+v %s\n  go-coded: %+v %s", i, p.Key(), p.Fingerprint, r.Key(), r.Fingerprint)
		}
	}

	dir := t.TempDir()
	seed, err := results.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range f.Records {
		if err := seed.Put(r, 0); err != nil {
			t.Fatal(err)
		}
	}
	seed.SetRevision(f.Revision)
	if err := seed.Flush(); err != nil {
		t.Fatal(err)
	}
	// Reopen so no key counts as part of the run until the spec restores it.
	store, err := results.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	opts.Results = store
	return spec, opts, raw
}

// TestFig5CampaignByteIdentical is the campaign engine's ground truth: the
// embedded fig5 spec, run through the checkpointed runner against the
// Go-coded fig5 runner's recorded checkpoints, must export a results file
// byte-identical to the one that runner recorded. This pins every layer the
// spec crosses — section order and titles, variant labels and order, loads,
// the experiment title and (via the config fingerprints embedded in each
// record) the exact config.Config every variant compiles to.
func TestFig5CampaignByteIdentical(t *testing.T) {
	spec, opts, goCoded := goCodedFig5Store(t)
	if _, err := Run(spec, opts); err != nil {
		t.Fatal(err)
	}
	path, err := opts.Results.WriteExport(spec.Name, spec.ReportTitle())
	if err != nil {
		t.Fatal(err)
	}
	fromSpec, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(goCoded, fromSpec) {
		t.Errorf("campaign fig5 export differs from the Go-coded fig5 export\n--- go-coded (%d bytes) ---\n%.2000s\n--- campaign (%d bytes) ---\n%.2000s",
			len(goCoded), goCoded, len(fromSpec), fromSpec)
	}
}

// TestFig5CampaignSharesCheckpoints proves the practical consequence of key
// equivalence: a campaign run against a store populated by the Go-coded
// runner restores every replication instead of re-simulating.
func TestFig5CampaignSharesCheckpoints(t *testing.T) {
	spec, opts, _ := goCodedFig5Store(t)
	var last sweep.Progress
	opts.Progress = func(p sweep.Progress) { last = p }
	if _, err := Run(spec, opts); err != nil {
		t.Fatal(err)
	}
	if !last.Summary || last.Done == 0 || last.Skipped != last.Done {
		t.Errorf("campaign run restored %d of %d replications; want all restored from the Go-coded run's checkpoints", last.Skipped, last.Done)
	}
}
