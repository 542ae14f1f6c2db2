package sweep

import "testing"

// TestPaperImprovementLongestPrefix: two reference keys of one section may
// share a prefix ("FlexVC 4/2" and "FlexVC 4/2 (2/1+2/1)"); the lookup must
// pick the longest matching one every time, not whichever a map iteration
// reaches first — rendered reports embed the value.
func TestPaperImprovementLongestPrefix(t *testing.T) {
	table := []paperRef{
		{"figX", "(a)", "FlexVC 4/2", 0.06},
		{"figX", "(a)", "FlexVC 4/2 (2/1+2/1)", 0.04},
		{"figX", "(a)", "FlexVC", 0.01},
		{"figX", "(b)", "FlexVC 4/2 (2/1+2/1)", 0.09},
	}
	for _, tc := range []struct {
		section, variant string
		want             float64
		ok               bool
	}{
		{"(a) UN with MIN routing", "FlexVC 4/2 (2/1+2/1)", 0.04, true},
		{"(a) UN with MIN routing", "FlexVC 4/2 (2/1+2/1) @64/256", 0.04, true},
		{"(a) UN with MIN routing", "FlexVC 4/2", 0.06, true},
		{"(a) UN with MIN routing", "FlexVC 4/2 @64/256", 0.06, true},
		{"(a) UN with MIN routing", "FlexVC 8/4", 0.01, true},
		{"(b) BURSTY-UN", "FlexVC 4/2", 0, false},
		{"(a) UN with MIN routing", "Baseline 2/1", 0, false},
	} {
		for i := 0; i < 100; i++ {
			got, ok := lookupPaperRef(table, "figX", tc.section, tc.variant)
			if got != tc.want || ok != tc.ok {
				t.Fatalf("run %d: lookup(%q, %q) = %v, %v; want %v, %v", i, tc.section, tc.variant, got, ok, tc.want, tc.ok)
			}
		}
	}
	if got, ok := PaperImprovement("fig7", "(a) UN request-reply", "FlexVC 4/2 (2/1+2/1)"); !ok || got != 0.04 {
		t.Errorf("shipped table: fig7 (a) FlexVC 4/2 (2/1+2/1) = %v, %v; want 0.04, true", got, ok)
	}
}
