package verify

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"flexvc/internal/campaign"
	"flexvc/internal/obs"
	"flexvc/internal/results"
	"flexvc/internal/sweep"
)

// Status classifies one entry's verification outcome.
type Status int

const (
	// Pass: digests intact, re-run byte-identical.
	Pass Status = iota
	// Fail: a digest mismatch, a re-run error, or diverging bytes.
	Fail
	// Skip: integrity digests verified, but the re-run was skipped (entry
	// cost above Options.MaxWall).
	Skip
)

func (s Status) String() string {
	switch s {
	case Pass:
		return "PASS"
	case Fail:
		return "FAIL"
	case Skip:
		return "SKIP"
	}
	return fmt.Sprintf("Status(%d)", int(s))
}

// MarshalJSON encodes the status as its string form, so structured check
// output reads "PASS"/"FAIL"/"SKIP" rather than bare integers.
func (s Status) MarshalJSON() ([]byte, error) {
	return []byte(`"` + s.String() + `"`), nil
}

// Mismatch is one diverging artefact of a failed entry.
type Mismatch struct {
	// Artifact is the manifest-relative path of the artefact that diverged.
	Artifact string `json:"artifact"`
	// Reason says what kind of divergence this is (digest mismatch, re-run
	// divergence, missing file, …).
	Reason string `json:"reason"`
	// Line is the 1-based first diverging line for byte comparisons (0 when
	// the mismatch is not line-level, e.g. a digest failure).
	Line int `json:"line,omitempty"`
	// Want and Got hold the diverging line's committed and freshly-produced
	// text (truncated for readability).
	Want string `json:"want,omitempty"`
	Got  string `json:"got,omitempty"`
}

func (mm Mismatch) String() string {
	if mm.Line == 0 {
		return fmt.Sprintf("%s: %s", mm.Artifact, mm.Reason)
	}
	return fmt.Sprintf("%s: %s at line %d:\n    want: %s\n    got:  %s", mm.Artifact, mm.Reason, mm.Line, mm.Want, mm.Got)
}

// Result is the structured outcome of verifying one manifest entry.
type Result struct {
	ID     string `json:"id"`
	Status Status `json:"status"`
	// Detail carries the skip reason or the re-run error; empty on clean
	// passes and on pure byte mismatches (see Mismatches).
	Detail     string     `json:"detail,omitempty"`
	Mismatches []Mismatch `json:"mismatches,omitempty"`
	// Replications is how many replications the re-run simulated (0 when the
	// re-run was skipped or failed to start).
	Replications int `json:"replications,omitempty"`
	// Wall is the entry's total verification time, re-run included.
	Wall time.Duration `json:"wall_ns"`
}

// Summary renders the result as one status line.
func (r Result) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-4s %s (%s)", r.Status, r.ID, r.Wall.Round(10*time.Millisecond))
	if r.Detail != "" {
		fmt.Fprintf(&b, ": %s", r.Detail)
	}
	for _, mm := range r.Mismatches {
		fmt.Fprintf(&b, "\n  %s", mm.String())
	}
	return b.String()
}

// Options parameterizes a check run.
type Options struct {
	// WorkDir, when set, keeps each entry's scratch results directory at
	// <WorkDir>/<id> (CI uploads these on failure). Empty uses a private
	// temporary directory, removed afterwards.
	WorkDir string
	// MaxWall, when positive, skips the re-run of entries whose estimated
	// wall exceeds it; their digests and key spaces are still verified. This
	// is what lets PR CI check the cheap entries end to end without paying
	// for the big ones.
	MaxWall time.Duration
	// Workers is the concurrent replication-worker count the wall estimate
	// assumes: an entry's recorded ApproxWallS (measured serial) is divided
	// by Workers before the MaxWall comparison, so a budget that would be
	// blown serially no longer skips entries that fit when run parallel. The
	// estimate is an idealized linear-speedup bound, good enough for a skip
	// heuristic. 0 or 1 keeps the serial estimate.
	Workers int
	// CorruptFresh is the negative-path self-test: "export" or "report"
	// flips one byte of the named freshly-produced artefact before
	// comparing, so a run that still PASSes proves the comparator is broken.
	// Tests use it to show corruption is actually caught.
	CorruptFresh string
	// Progress, when non-nil, streams the re-run's sweep progress events.
	Progress func(sweep.Progress)
	// Metrics, when non-nil, instruments the re-runs into this registry
	// (phase walls, checkpoint latencies, …). The byte-identity comparison
	// is unaffected — instrumentation never touches simulated state — so a
	// metered check doubles as a live test of the zero-impact contract.
	Metrics *obs.Registry
}

// Check verifies the given entry ids (nil or ["all"] means every entry) and
// returns one Result per entry, in manifest order. The error return is for
// harness problems only — unknown ids, an unusable scratch directory —
// never for entry failures, which land in the results.
func Check(m *Manifest, ids []string, opts Options) ([]Result, error) {
	entries, err := selectEntries(m, ids)
	if err != nil {
		return nil, err
	}
	workRoot := opts.WorkDir
	if workRoot == "" {
		tmp, err := os.MkdirTemp("", "flexvc-check-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(tmp)
		workRoot = tmp
	}
	rs := make([]Result, 0, len(entries))
	for _, e := range entries {
		rs = append(rs, checkEntry(m, e, filepath.Join(workRoot, e.ID), opts))
	}
	return rs, nil
}

func selectEntries(m *Manifest, ids []string) ([]Entry, error) {
	if len(ids) == 0 || (len(ids) == 1 && ids[0] == "all") {
		return m.Entries, nil
	}
	seen := map[string]bool{}
	entries := make([]Entry, 0, len(ids))
	for _, id := range ids {
		if seen[id] {
			return nil, fmt.Errorf("verify: entry %q requested twice", id)
		}
		seen[id] = true
		e, ok := m.Entry(id)
		if !ok {
			return nil, fmt.Errorf("verify: no manifest entry %q (have: %s)", id, strings.Join(m.IDs(), ", "))
		}
		entries = append(entries, e)
	}
	return entries, nil
}

// checkEntry runs both layers of the byte-identity contract for one entry.
func checkEntry(m *Manifest, e Entry, scratch string, opts Options) Result {
	start := time.Now()
	res := Result{ID: e.ID, Status: Pass}
	done := func() Result {
		res.Wall = time.Since(start)
		if len(res.Mismatches) > 0 {
			res.Status = Fail
		}
		return res
	}

	// Layer 1 — integrity: the committed artefacts hash to the manifest's
	// digests. A corrupted or silently-edited recording fails here without
	// any simulation.
	wantExport, ok := readPinned(m, e.Export, &res)
	wantReport, ok2 := readPinned(m, e.Report, &res)
	if !ok || !ok2 {
		return done()
	}
	expected, err := results.LoadFile(m.path(e.Export))
	if err != nil {
		res.Mismatches = append(res.Mismatches, Mismatch{Artifact: e.Export.Path, Reason: fmt.Sprintf("recorded export does not parse: %v", err)})
		return done()
	}

	// Layer 2 — key space: the spec must compile to exactly the recorded
	// replications. No simulation, so skipped re-runs get it too.
	spec, err := m.resolveCampaign(e)
	if err != nil {
		res.Mismatches = append(res.Mismatches, Mismatch{Artifact: e.Export.Path, Reason: fmt.Sprintf("re-run failed: %v", err)})
		return done()
	}
	if checkKeys(e, spec, expected, &res); len(res.Mismatches) > 0 {
		return done()
	}

	// Layer 3 — reproducibility: re-simulate into a scratch results
	// directory and demand byte-identical artefacts.
	if opts.MaxWall > 0 {
		est := e.ApproxWallS
		if opts.Workers > 1 {
			est = e.ApproxWallS / float64(opts.Workers)
		}
		if est > opts.MaxWall.Seconds() {
			res.Status = Skip
			if opts.Workers > 1 {
				res.Detail = fmt.Sprintf("re-run skipped: approx wall %.0fs (~%.0fs at %d workers) exceeds -max-wall %s (recorded digests and key space verified)",
					e.ApproxWallS, est, opts.Workers, opts.MaxWall)
			} else {
				res.Detail = fmt.Sprintf("re-run skipped: approx wall %.0fs exceeds -max-wall %s (recorded digests and key space verified)", e.ApproxWallS, opts.MaxWall)
			}
			return done()
		}
	}
	gotExport, gotReport, reps, err := rerun(e, spec, scratch, expected.Revision, opts)
	if err != nil {
		res.Mismatches = append(res.Mismatches, Mismatch{Artifact: e.Export.Path, Reason: fmt.Sprintf("re-run failed: %v", err)})
		return done()
	}
	res.Replications = reps
	switch opts.CorruptFresh {
	case "export":
		gotExport = flipByte(gotExport)
	case "report":
		gotReport = flipByte(gotReport)
	}
	compare(e.Export.Path, "re-run export diverges from the recorded results", wantExport, gotExport, &res)
	compare(e.Report.Path, "re-rendered report diverges from the recorded report", wantReport, gotReport, &res)
	return done()
}

// readPinned reads one committed artefact and checks it against its pinned
// digest, appending a mismatch on any problem.
func readPinned(m *Manifest, ref FileRef, res *Result) ([]byte, bool) {
	b, err := os.ReadFile(m.path(ref))
	if err != nil {
		res.Mismatches = append(res.Mismatches, Mismatch{Artifact: ref.Path, Reason: fmt.Sprintf("recorded file unreadable: %v", err)})
		return nil, false
	}
	if ref.SHA256 == "" {
		res.Mismatches = append(res.Mismatches, Mismatch{Artifact: ref.Path, Reason: "no digest pinned in the manifest (run `figures check -update` and commit the result)"})
		return nil, false
	}
	if got := results.DigestBytes(b); got != ref.SHA256 {
		res.Mismatches = append(res.Mismatches, Mismatch{
			Artifact: ref.Path,
			Reason:   fmt.Sprintf("sha256 %s.. does not match the manifest's %s.. (recorded file corrupted, or edited without `figures check -update`)", got[:12], ref.SHA256[:12]),
		})
		return nil, false
	}
	return b, true
}

// runOptions are the sweep options an entry pins: everything that decides
// which replications run and how they are configured.
func runOptions(e Entry) sweep.Options {
	return sweep.Options{Scale: e.Scale, Seeds: e.Seeds, Quick: e.Quick}
}

// checkKeys compares the recorded export's replications with the ones the
// entry's campaign compiles to, appending a mismatch naming the first record
// that differs in any results-key field or config fingerprint.
func checkKeys(e Entry, spec *campaign.Campaign, recorded *results.File, res *Result) {
	keys, err := campaign.Keys(spec, runOptions(e))
	if err != nil {
		res.Mismatches = append(res.Mismatches, Mismatch{Artifact: e.Export.Path, Reason: fmt.Sprintf("re-run failed: %v", err)})
		return
	}
	for i := 0; i < len(keys) || i < len(recorded.Records); i++ {
		want, got := "<none>", "<none>"
		if i < len(recorded.Records) {
			want = keyOf(recorded.Records[i])
		}
		if i < len(keys) {
			got = keyOf(keys[i])
		}
		if want != got {
			res.Mismatches = append(res.Mismatches, Mismatch{
				Artifact: e.Export.Path,
				Reason: fmt.Sprintf("the campaign compiles to %d replications, the export records %d; first difference at record %d: recorded %s, compiled %s",
					len(keys), len(recorded.Records), i, want, got),
			})
			return
		}
	}
}

// keyOf renders every field of a record that identifies its replication.
func keyOf(r results.Record) string {
	return fmt.Sprintf("{%s [%d] %q [%d] %q point %d load %g seed %d sim-seed %d scale %s fingerprint %s}",
		r.Experiment, r.SectionIndex, r.Section, r.VariantIndex, r.Variant, r.PointIndex, r.Load, r.Seed, r.SimSeed, r.Scale, r.Fingerprint)
}

// rerun re-simulates the entry into the scratch directory and returns the
// fresh export and rendered report bytes. The recorded export's revision is
// pinned into the scratch store first: the revision header is provenance of
// the recording, not a simulation outcome, and it is the only field that
// would legitimately differ between the recording machine and this one.
func rerun(e Entry, spec *campaign.Campaign, scratch, revision string, ropts Options) (export, report []byte, reps int, err error) {
	progress := ropts.Progress
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return nil, nil, 0, err
	}
	store, err := results.Open(scratch)
	if err != nil {
		return nil, nil, 0, err
	}
	if revision != "" {
		store.SetRevision(revision)
	}
	if ropts.Metrics != nil {
		store.SetMetrics(ropts.Metrics)
	}
	var final sweep.Progress
	opts := runOptions(e)
	opts.Results = store
	opts.Metrics = ropts.Metrics
	opts.Progress = func(p sweep.Progress) {
		final = p
		if progress != nil {
			progress(p)
		}
	}
	if _, err := campaign.Run(spec, opts); err != nil {
		return nil, nil, 0, err
	}
	path, err := store.WriteExport(spec.Name, spec.ReportTitle())
	if err != nil {
		return nil, nil, 0, err
	}
	export, err = os.ReadFile(path)
	if err != nil {
		return nil, nil, 0, err
	}
	f, err := results.LoadFile(path)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("fresh export does not parse: %w", err)
	}
	text, err := sweep.RenderResultsMarkdown(f)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("rendering fresh export: %w", err)
	}
	return export, []byte(text), final.Done, nil
}

// resolveCampaign loads an entry's campaign spec: a file relative to the
// manifest directory, or an embedded spec.
func (m *Manifest) resolveCampaign(e Entry) (*campaign.Campaign, error) {
	if isSpecPath(e.Campaign) {
		return campaign.Load(filepath.Join(m.dir, filepath.FromSlash(e.Campaign)))
	}
	return campaign.Builtin(e.Campaign)
}

// compare byte-compares one artefact and appends a line-level mismatch on
// divergence.
func compare(artifact, reason string, want, got []byte, res *Result) {
	if string(want) == string(got) {
		return
	}
	line, w, g := firstDivergence(want, got)
	res.Mismatches = append(res.Mismatches, Mismatch{Artifact: artifact, Reason: reason, Line: line, Want: w, Got: g})
}

// firstDivergence returns the 1-based number and (truncated) text of the
// first line where want and got differ. A side that ends early contributes
// "<end of file>".
func firstDivergence(want, got []byte) (int, string, string) {
	wl := splitLines(want)
	gl := splitLines(got)
	n := len(wl)
	if len(gl) > n {
		n = len(gl)
	}
	for i := 0; i < n; i++ {
		w, g := "<end of file>", "<end of file>"
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if w != g {
			return i + 1, truncateLine(w), truncateLine(g)
		}
	}
	// Byte-unequal but line-equal can only mean a trailing-newline
	// difference; point at the last line.
	return n, "<trailing bytes differ>", "<trailing bytes differ>"
}

// splitLines splits on "\n" without a phantom empty line after a trailing
// newline, so a file that simply ends early reports "<end of file>" rather
// than an empty-string diff.
func splitLines(b []byte) []string {
	s := strings.TrimSuffix(string(b), "\n")
	return strings.Split(s, "\n")
}

func truncateLine(s string) string {
	const max = 160
	if len(s) <= max {
		return s
	}
	return s[:max-1] + "…"
}

// flipByte inverts one byte of a copy of data (the negative-path self-test's
// corruption primitive).
func flipByte(data []byte) []byte {
	out := append([]byte(nil), data...)
	if len(out) > 0 {
		out[len(out)/2] ^= 0xff
	}
	return out
}

// UpdateDigests recomputes every entry's pinned digests from the committed
// artefacts on disk — the deliberate half of the integrity layer, used after
// regenerating a recorded experiment (`figures check -update`).
func (m *Manifest) UpdateDigests() error {
	for i := range m.Entries {
		e := &m.Entries[i]
		for _, ref := range []*FileRef{&e.Export, &e.Report} {
			d, err := results.DigestFile(m.path(*ref))
			if err != nil {
				return fmt.Errorf("verify: %s: %s: %w", e.ID, ref.Path, err)
			}
			ref.SHA256 = d
		}
	}
	return nil
}
