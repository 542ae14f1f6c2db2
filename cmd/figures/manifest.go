package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"time"

	"flexvc/internal/obs"
	"flexvc/internal/results"
	"flexvc/internal/sim"
	"flexvc/internal/sweep"
	"flexvc/internal/verify"
)

// This file is the bridge from `figures run` to the reproducibility gate:
// recording an experiment is only half the job — until it has a manifest
// entry, `figures check` does not guard it. manifestAppend does the
// registration in one step (render the report, pin digests, append the
// entry), and manifestHint nags when a recording lands under the manifest
// directory without one.

// manifestAppend registers a freshly recorded campaign in the experiments
// manifest: it renders report.md next to the export, pins sha256 digests of
// both artefacts, appends a new entry and rewrites the manifest file. The
// entry id is the results directory's base name (the layout convention the
// manifest documents), and the registration fails if that id is already
// taken — updating an existing recording is `figures check -update`'s job.
// scale and seeds are the run's flags: zero values leave the entry following
// the spec's defaults.
func manifestAppend(manifestPath, id, campaignArg, exportPath, scale string, seeds int, quick bool, simWall time.Duration, metrics *obs.Snapshot, notes string) error {
	m, err := verify.LoadManifest(manifestPath)
	if err != nil {
		if !os.IsNotExist(err) {
			return err
		}
		// First entry ever: start a fresh manifest next to nothing.
		m = &verify.Manifest{Schema: verify.ManifestSchema}
		m.SetDir(filepath.Dir(manifestPath))
	}
	if _, ok := m.Entry(id); ok {
		return fmt.Errorf("manifest %s already has an entry %q; to refresh its artefacts re-run into its directory and re-pin with `figures check -update`", manifestPath, id)
	}

	exportRel, err := manifestRel(m.Dir(), exportPath)
	if err != nil {
		return fmt.Errorf("-manifest-add pins artefact paths relative to %s, so the results directory must live under it (e.g. -results %s): %w",
			m.Dir(), filepath.Join(m.Dir(), id), err)
	}

	// The report is rendered from the export exactly the way `figures check`
	// re-renders it, so the committed pair starts out byte-consistent.
	f, err := results.LoadFile(exportPath)
	if err != nil {
		return err
	}
	text, err := sweep.RenderResultsMarkdown(f)
	if err != nil {
		return fmt.Errorf("rendering %s: %w", exportPath, err)
	}
	reportPath := filepath.Join(filepath.Dir(exportPath), "report.md")
	if err := os.WriteFile(reportPath, []byte(text), 0o644); err != nil {
		return err
	}
	reportRel, err := manifestRel(m.Dir(), reportPath)
	if err != nil {
		return err
	}

	e := verify.Entry{
		ID:    id,
		Kind:  "campaign",
		Scale: scale,
		Seeds: seeds,
		Quick: quick,
		// ApproxWallS budgets the re-run against `figures check -max-wall`;
		// the store's summed per-replication wall time approximates the
		// one-core cost even when this run restored checkpoints or ran
		// replications in parallel.
		ApproxWallS: math.Ceil(simWall.Seconds()),
		Notes:       notes,
	}
	// A metrics snapshot (figures run -metrics-out) carries this machine's
	// measured per-replication wall, which beats the store's summed walls when
	// the recording restored checkpoints made on different hardware: the
	// stored walls are then stale provenance, the snapshot is a fresh
	// measurement (see DESIGN.md, "Observability").
	if w, ok := metricsApproxWall(metrics); ok {
		e.ApproxWallS = w
	}
	if e.Campaign, err = campaignRef(m.Dir(), campaignArg); err != nil {
		return err
	}
	e.Export.Path = exportRel
	if e.Export.SHA256, err = results.DigestFile(exportPath); err != nil {
		return err
	}
	e.Report.Path = reportRel
	if e.Report.SHA256, err = results.DigestFile(reportPath); err != nil {
		return err
	}

	m.Entries = append(m.Entries, e)
	if err := m.Validate(); err != nil {
		return fmt.Errorf("refusing to write an invalid manifest: %w", err)
	}
	if err := m.Write(manifestPath); err != nil {
		return err
	}
	fmt.Printf("%s: registered entry %q (approx re-run wall %.0fs); `figures check %s` now guards it\n",
		manifestPath, id, e.ApproxWallS, id)
	return nil
}

// metricsApproxWall extrapolates an entry's one-core re-run cost from a run's
// metrics snapshot: the measured mean fresh-replication wall times the total
// record count (fresh + restored). It reports false when the snapshot holds
// no fresh replications — with nothing simulated on this machine there is no
// measurement to extrapolate from, and the store's summed walls stand.
func metricsApproxWall(snap *obs.Snapshot) (float64, bool) {
	if snap == nil {
		return 0, false
	}
	fresh := snap.Counters[sweep.MetricReplicationsSimulated]
	restored := snap.Counters[sweep.MetricReplicationsRestored]
	wallNS := snap.Histograms[sim.MetricReplicationWall].Sum
	if fresh <= 0 || wallNS <= 0 {
		return 0, false
	}
	mean := float64(wallNS) / float64(fresh)
	return math.Ceil(mean * float64(fresh+restored) / float64(time.Second)), true
}

// campaignRef turns the -campaign argument into the manifest's campaign
// reference: a spec file becomes a path relative to the manifest directory
// (where the verifier resolves it), an embedded spec name passes through.
func campaignRef(manifestDir, arg string) (string, error) {
	fi, err := os.Stat(arg)
	if err != nil || !fi.Mode().IsRegular() {
		return arg, nil // embedded spec name
	}
	rel, err := manifestRel(manifestDir, arg)
	if err != nil {
		return "", fmt.Errorf("the campaign spec must live under %s so the manifest entry can find it (copy it next to the recorded artefacts): %w", manifestDir, err)
	}
	return rel, nil
}

// manifestRel resolves path relative to the manifest directory, rejecting
// anything that escapes it — manifest references must stay relocatable.
func manifestRel(manifestDir, path string) (string, error) {
	absDir, err := filepath.Abs(manifestDir)
	if err != nil {
		return "", err
	}
	absPath, err := filepath.Abs(path)
	if err != nil {
		return "", err
	}
	rel, err := filepath.Rel(absDir, absPath)
	if err != nil {
		return "", err
	}
	if rel == ".." || strings.HasPrefix(rel, ".."+string(filepath.Separator)) {
		return "", fmt.Errorf("%s is outside the manifest directory %s", path, manifestDir)
	}
	return filepath.ToSlash(rel), nil
}

// manifestHint prints a reminder when an export was just recorded under the
// manifest's directory but no entry references it: the recording exists, but
// nothing guards its reproducibility until it is registered.
func manifestHint(manifestPath, exportPath string) {
	rel, err := manifestRel(filepath.Dir(manifestPath), exportPath)
	if err != nil {
		return // outside experiments/: scratch results need no entry
	}
	if m, err := verify.LoadManifest(manifestPath); err == nil {
		for _, e := range m.Entries {
			if e.Export.Path == rel {
				return
			}
		}
	} else if !os.IsNotExist(err) {
		return
	}
	fmt.Fprintf(os.Stderr, "note: %s is recorded under %s but has no manifest entry — re-run with -manifest-add to register it so `figures check` guards its reproducibility\n",
		rel, filepath.Dir(manifestPath))
}
