package sweep_test

import (
	"testing"

	"flexvc/internal/campaign"
	"flexvc/internal/core"
)

// TestResultsKeyStability pins the exact variant labels of every built-in
// experiment as the sweep layer sees them: the Variant lists the embedded
// figure specs compile into. Labels key checkpoints in the results store and
// replications in exported results files, so any change here silently
// orphans recorded data (nightly sweeps, experiments/*): renames must be
// deliberate and must regenerate the recorded artefacts. In particular,
// labels must never be derived from an enum's fmt.Stringer — this test is
// what catches a renamed String() method before it reaches the key space.
func TestResultsKeyStability(t *testing.T) {
	labels := func(spec, section string) []string {
		t.Helper()
		c, err := campaign.Builtin(spec)
		if err != nil {
			t.Fatal(err)
		}
		secs, err := c.Compile()
		if err != nil {
			t.Fatal(err)
		}
		for _, sec := range secs {
			if sec.Title == section {
				out := make([]string, len(sec.Variants))
				for i, v := range sec.Variants {
					out[i] = v.Label
				}
				return out
			}
		}
		t.Fatalf("%s: no section %q (section titles key results too)", spec, section)
		return nil
	}
	check := func(spec, section string, want []string) {
		t.Helper()
		got := labels(spec, section)
		if len(got) != len(want) {
			t.Errorf("%s/%s: %d variants, want %d", spec, section, len(got), len(want))
			return
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s/%s[%d]: label %q, want %q (results keys must stay stable)", spec, section, i, got[i], want[i])
			}
		}
	}

	fig5NonAdv := []string{"Baseline 2/1", "DAMQ75 2/1", "FlexVC 2/1", "FlexVC 4/2", "FlexVC 8/4"}
	check("fig5", "(a) UN with MIN routing", fig5NonAdv)
	check("fig5", "(b) BURSTY-UN with MIN routing", fig5NonAdv)
	check("fig5", "(c) ADV with VAL routing", []string{
		"Baseline 4/2", "DAMQ75 4/2", "FlexVC 4/2", "FlexVC 8/4",
	})
	check("fig7", "(a) UN with MIN routing", []string{
		"Baseline 4/2 (2/1+2/1)", "DAMQ 4/2 (2/1+2/1)", "FlexVC 4/2 (2/1+2/1)",
		"FlexVC 5/3 (2/1+3/2)", "FlexVC 5/3 (3/2+2/1)", "FlexVC 6/4 (2/1+4/3)",
		"FlexVC 6/4 (3/2+3/2)", "FlexVC 6/4 (4/3+2/1)",
	})
	check("fig7", "(c) ADV with VAL routing", []string{
		"Baseline 8/4 (4/2+4/2)", "DAMQ 8/4 (4/2+4/2)", "FlexVC 8/4 (4/2+4/2)",
		"FlexVC 10/6 (5/3+5/3)", "FlexVC 10/6 (6/4+4/2)",
	})
	check("fig8", "(a) Uniform (UN)", []string{
		"MIN 4/2 (reference)", "VAL 8/4 (reference)",
		"PB per-VC (8/4)", "PB per-port (8/4)",
		"PB FlexVC per-VC (6/3)", "PB FlexVC per-port (6/3)",
		"PB FlexVC per-VC minCred (6/3)", "PB FlexVC per-port minCred (6/3)",
	})
	check("transient", "UN -> ADV -> UN transient", []string{
		"MIN 4/2", "VAL 4/2", "PB per-VC 4/2",
	})

	// The buffer-capacity overlay of figs 6/11 derives labels from the inner
	// variant plus literal capacities.
	for _, spec := range []string{"fig6", "fig11"} {
		got := labels(spec, "(a) UN with MIN routing @ 64/128 phits per local/global port")
		if len(got) == 0 || got[0] != "Baseline 2/1 @64/128" {
			t.Errorf("%s: buffer-capacity overlay labels %q, want the first to be %q", spec, got, "Baseline 2/1 @64/128")
		}
	}

	// The fig9 selection vocabulary must stay literal, cover every selection
	// function, and never track a renamed Stringer: each label names its
	// selection function with a fixed word that must still parse to it.
	wantNames := map[core.SelectionFn]string{
		core.JSQ:       "jsq",
		core.HighestVC: "highest",
		core.LowestVC:  "lowest",
		core.RandomVC:  "random",
	}
	if len(wantNames) != len(core.SelectionFns) {
		t.Errorf("fig9 vocabulary covers %d of %d selection functions", len(wantNames), len(core.SelectionFns))
	}
	check("fig9", "4/2 (2/1+2/1)", []string{
		"baseline", "damq", "flexvc jsq", "flexvc highest", "flexvc lowest", "flexvc random",
	})
	for _, fn := range core.SelectionFns {
		name, ok := wantNames[fn]
		if !ok {
			t.Errorf("selection function %d has no literal fig9 name", fn)
			continue
		}
		if got, err := core.ParseSelectionFn(name); err != nil || got != fn {
			t.Errorf("fig9 selection name %q parses to %d (%v), want %d", name, got, err, fn)
		}
	}
}
