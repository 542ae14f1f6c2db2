package verify

import (
	"strings"
	"testing"
)

// mkManifest returns a structurally valid manifest for mutation tests.
func mkManifest() *Manifest {
	return &Manifest{
		Schema: ManifestSchema,
		Entries: []Entry{
			{
				ID: "fig5-small", Kind: "campaign", Campaign: "fig5", Scale: "small", Seeds: 2,
				Export: FileRef{Path: "fig5-small/fig5.results.json", SHA256: strings.Repeat("ab", 32)},
				Report: FileRef{Path: "fig5-small/report.md", SHA256: strings.Repeat("cd", 32)},
			},
			{
				ID: "pb", Kind: "campaign", Campaign: "pb/campaign.json",
				Export: FileRef{Path: "pb/pb.results.json", SHA256: strings.Repeat("ef", 32)},
				Report: FileRef{Path: "pb/report.md", SHA256: strings.Repeat("01", 32)},
			},
		},
	}
}

// TestManifestValidation locks the fail-fast rules: every malformed manifest
// must be rejected with a message naming the problem, and the valid baseline
// must pass.
func TestManifestValidation(t *testing.T) {
	if err := mkManifest().Validate(); err != nil {
		t.Fatalf("valid manifest rejected: %v", err)
	}
	// Campaign entries may leave scale and seeds to the spec's defaults.
	m := mkManifest()
	m.Entries[0].Scale, m.Entries[0].Seeds = "", 0
	if err := m.Validate(); err != nil {
		t.Fatalf("entry following its spec's scale and seeds rejected: %v", err)
	}
	cases := []struct {
		name    string
		mutate  func(*Manifest)
		wantErr string
	}{
		{"wrong schema", func(m *Manifest) { m.Schema = 99 }, "schema v99"},
		{"no entries", func(m *Manifest) { m.Entries = nil }, "no entries"},
		{"bad id", func(m *Manifest) { m.Entries[0].ID = "Fig5 Small" }, "lowercase slug"},
		{"duplicate id", func(m *Manifest) { m.Entries[1].ID = m.Entries[0].ID }, "duplicate id"},
		{"bad kind", func(m *Manifest) { m.Entries[0].Kind = "sweep" }, `kind "sweep"`},
		{"legacy experiment kind", func(m *Manifest) { m.Entries[0].Kind = "experiment" }, `kind "experiment", want "campaign"`},
		{"unknown experiment", func(m *Manifest) { m.Entries[0].Campaign = "fig99" }, `"fig99" (have: fig10`},
		{"analytic experiment", func(m *Manifest) { m.Entries[0].Campaign = "table1" }, `no embedded spec "table1"`},
		{"unknown scale", func(m *Manifest) { m.Entries[0].Scale = "huge" }, `entry 0 ("fig5-small"): unknown scale "huge"`},
		{"negative seeds", func(m *Manifest) { m.Entries[1].Seeds = -3 }, `entry 1 ("pb"): seeds must be non-negative`},
		{"campaign entry without campaign", func(m *Manifest) { m.Entries[1].Campaign = "" }, "needs `campaign` set"},
		{"missing artefact path", func(m *Manifest) { m.Entries[0].Export.Path = "" }, "missing path"},
		{"absolute artefact path", func(m *Manifest) { m.Entries[0].Report.Path = "/etc/passwd" }, "relative to the manifest"},
		{"escaping artefact path", func(m *Manifest) { m.Entries[0].Report.Path = "../outside.md" }, "relative to the manifest"},
		{"unclean artefact path", func(m *Manifest) { m.Entries[0].Report.Path = "a//b.md" }, "clean"},
		{"short digest", func(m *Manifest) { m.Entries[0].Export.SHA256 = "abc123" }, "64 lowercase hex"},
		{"uppercase digest", func(m *Manifest) { m.Entries[0].Export.SHA256 = strings.Repeat("AB", 32) }, "64 lowercase hex"},
		{"negative wall", func(m *Manifest) { m.Entries[0].ApproxWallS = -1 }, "approx_wall_s"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := mkManifest()
			tc.mutate(m)
			err := m.Validate()
			if err == nil {
				t.Fatalf("mutation accepted, want error containing %q", tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

// TestParseManifestRejectsUnknownFields requires DisallowUnknownFields, so a
// typo in a hand-edited manifest cannot silently weaken the check.
func TestParseManifestRejectsUnknownFields(t *testing.T) {
	_, err := ParseManifest([]byte(`{"schema":1,"entries":[],"extra":true}`))
	if err == nil || !strings.Contains(err.Error(), "extra") {
		t.Fatalf("unknown field accepted (err=%v)", err)
	}
	if _, err := ParseManifest([]byte(`{"schema":1`)); err == nil {
		t.Fatal("truncated JSON accepted")
	}
}

// TestSelectEntries covers id selection: all, explicit subsets in manifest
// order, unknown ids and duplicates.
func TestSelectEntries(t *testing.T) {
	m := mkManifest()
	for _, ids := range [][]string{nil, {"all"}} {
		got, err := selectEntries(m, ids)
		if err != nil || len(got) != 2 {
			t.Fatalf("selectEntries(%v) = %d entries, err %v; want all 2", ids, len(got), err)
		}
	}
	got, err := selectEntries(m, []string{"pb"})
	if err != nil || len(got) != 1 || got[0].ID != "pb" {
		t.Fatalf("selectEntries(pb) = %+v, %v", got, err)
	}
	if _, err := selectEntries(m, []string{"nope"}); err == nil || !strings.Contains(err.Error(), "fig5-small, pb") {
		t.Fatalf("unknown id error %v should list the available ids", err)
	}
	if _, err := selectEntries(m, []string{"pb", "pb"}); err == nil || !strings.Contains(err.Error(), "twice") {
		t.Fatalf("duplicate id accepted (err=%v)", err)
	}
}

// TestFirstDivergence pins the mismatch-context format: 1-based line numbers,
// end-of-file markers, long-line truncation.
func TestFirstDivergence(t *testing.T) {
	cases := []struct {
		name        string
		want, got   string
		line        int
		wantL, gotL string
	}{
		{"first line", "a\nb\n", "x\nb\n", 1, "a", "x"},
		{"middle line", "a\nb\nc\n", "a\nX\nc\n", 2, "b", "X"},
		{"got ends early", "a\nb\n", "a\n", 2, "b", "<end of file>"},
		{"want ends early", "a\n", "a\nb\n", 2, "<end of file>", "b"},
		{"long line truncated", "a\n" + strings.Repeat("y", 300), "a\n" + strings.Repeat("z", 300), 2,
			strings.Repeat("y", 159) + "…", strings.Repeat("z", 159) + "…"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			line, w, g := firstDivergence([]byte(tc.want), []byte(tc.got))
			if line != tc.line || w != tc.wantL || g != tc.gotL {
				t.Fatalf("firstDivergence = (%d, %q, %q), want (%d, %q, %q)", line, w, g, tc.line, tc.wantL, tc.gotL)
			}
		})
	}
}

// TestStatusStrings pins the status vocabulary CLI output and JSON share.
func TestStatusStrings(t *testing.T) {
	for s, want := range map[Status]string{Pass: "PASS", Fail: "FAIL", Skip: "SKIP"} {
		if s.String() != want {
			t.Errorf("Status(%d).String() = %q, want %q", int(s), s, want)
		}
		if b, err := s.MarshalJSON(); err != nil || string(b) != `"`+want+`"` {
			t.Errorf("Status(%d).MarshalJSON() = %s, %v", int(s), b, err)
		}
	}
}

// TestFlipByteChangesExactlyOneByte guards the negative-path primitive: it
// must corrupt a copy, never the original, and change exactly one byte.
func TestFlipByteChangesExactlyOneByte(t *testing.T) {
	orig := []byte("hello world")
	keep := append([]byte(nil), orig...)
	flipped := flipByte(orig)
	if string(orig) != string(keep) {
		t.Fatal("flipByte mutated its input")
	}
	diff := 0
	for i := range orig {
		if flipped[i] != orig[i] {
			diff++
		}
	}
	if diff != 1 {
		t.Fatalf("flipByte changed %d bytes, want 1", diff)
	}
	if len(flipByte(nil)) != 0 {
		t.Fatal("flipByte(nil) should stay empty")
	}
}
