// Command figures regenerates the tables and figures of the FlexVC paper's
// evaluation section (Tables I-IV, Figures 5-11).
//
// Every simulated experiment is a campaign spec (internal/campaign): a JSON
// file, or the name of an embedded spec — fig5 to fig11 and transient are the
// paper's figures, see `figures list`. The command has two halves, connected
// by machine-readable results files (internal/results): `run` simulates a
// spec into a results directory, checkpointing every completed replication
// so an interrupted sweep resumes where it stopped, and `render` turns the
// recorded results into reports — including the paper-vs-measured tables of
// EXPERIMENTS.md — without re-simulating. `-quick` means the same for every
// spec: halved warm-up and measurement windows and three loads per section.
//
// A third mode, `check`, is the reproducibility gate: it reads the
// experiments manifest (experiments/manifest.json), re-runs each recorded
// campaign into a scratch results directory, and byte-compares the fresh
// export and rendered report against the committed artefacts
// (internal/verify). Any divergence — a corrupted recording, a simulator
// behaviour change, a renderer change — exits non-zero with the first
// diverging line.
//
// Examples:
//
//	figures list
//	figures run -campaign fig5 -seeds 5 -results results/
//	figures run -campaign fig7 -scale medium -seeds 5 -results results/   # resumable
//	figures run -campaign experiments/pb-policies-transient/campaign.json -results results/
//	figures render -exp fig5 -results results/ -out fig5.md
//	figures render -campaign pb-policies-transient -results results/
//	figures render -exp all -results results/ -out reports/
//	figures check all                      # verify every recorded experiment
//	figures check transient-small          # verify one manifest entry
//	figures check -max-wall 10s all        # digests and key spaces always; re-run only cheap entries
//
// The analytic tables (table1..table4) are computed, not simulated, so nothing
// is recorded for them; `render` prints them directly:
//
//	figures render -exp table3 -results results/
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"flexvc/internal/campaign"
	"flexvc/internal/core"
	"flexvc/internal/obs"
	"flexvc/internal/results"
	"flexvc/internal/sim"
	"flexvc/internal/sweep"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		os.Exit(1)
	}
}

const usage = `usage: figures {list | run | render | check} [flags]
  list   list the analytic tables and the embedded campaign specs
  run    simulate a campaign spec (-campaign <name|spec.json>) into a
         checkpointed results directory (resumable)
  render turn recorded results into reports without re-simulating, or print
         an analytic table
  check  re-run the recorded campaigns of experiments/manifest.json and
         byte-compare exports + reports against the committed artefacts;
         exits non-zero on any mismatch (figures check [id|all])`

// analyticTables are the paper's route-classification tables: computed
// combinatorially on demand, never simulated or recorded.
var analyticTables = map[string]func() core.Table{
	"table1": core.TableI,
	"table2": core.TableII,
	"table3": core.TableIII,
	"table4": core.TableIV,
}

// analyticText computes one analytic table and renders it under its id and
// title.
func analyticText(id string) string {
	t := analyticTables[id]()
	return fmt.Sprintf("==== %s: %s ====\n\n-- %s --\n%s", id, t.Title, t.Title, t.Render())
}

func run(args []string) error {
	if len(args) > 0 {
		switch args[0] {
		case "list":
			return listCmd()
		case "run":
			return runCmd(args[1:])
		case "render":
			return renderCmd(args[1:])
		case "check":
			return checkCmd(args[1:])
		case "help", "-h", "-help", "--help":
			fmt.Println(usage)
			return nil
		}
	}
	fmt.Fprintln(os.Stderr, usage)
	if len(args) == 0 {
		return fmt.Errorf("missing sub-command")
	}
	return fmt.Errorf("unknown sub-command %q", args[0])
}

func listCmd() error {
	fmt.Println("analytic tables (print with `figures render -exp <id>`):")
	ids := make([]string, 0, len(analyticTables))
	for id := range analyticTables {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		fmt.Printf("  %-9s %s\n", id, analyticTables[id]().Title)
	}
	fmt.Println("campaign specs (run with `figures run -campaign <name|spec.json>`):")
	for _, name := range campaign.BuiltinNames() {
		c, err := campaign.Builtin(name)
		if err != nil {
			return err
		}
		fmt.Printf("  %-9s %s\n", name, c.ReportTitle())
	}
	return nil
}

// expandIDs resolves the render -exp flag value ("fig5", "fig5,table3" or
// "all"). Named ids pass through unchecked — a missing results file surfaces
// the error — and "all" means every export recorded in the directory, sorted.
func expandIDs(exp, resDir string) ([]string, error) {
	if exp == "" {
		return nil, fmt.Errorf("missing -exp (use `figures list` to see the analytic tables and campaign specs)")
	}
	if exp != "all" {
		ids := strings.Split(exp, ",")
		seen := map[string]bool{}
		for _, id := range ids {
			if seen[id] {
				return nil, fmt.Errorf("experiment %q listed twice in -exp", id)
			}
			seen[id] = true
		}
		return ids, nil
	}
	matches, err := filepath.Glob(filepath.Join(resDir, "*.results.json"))
	if err != nil {
		return nil, err
	}
	ids := make([]string, len(matches))
	for i, m := range matches {
		ids[i] = strings.TrimSuffix(filepath.Base(m), ".results.json")
	}
	sort.Strings(ids)
	return ids, nil
}

// gitRevision best-effort resolves the source revision results are stamped
// with; an explicit -revision flag overrides it.
func gitRevision() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}

// --- figures run -----------------------------------------------------------

func runCmd(args []string) error {
	fs := flag.NewFlagSet("figures run", flag.ContinueOnError)
	var (
		campaignF  = fs.String("campaign", "", "campaign spec to run (required): a JSON file or an embedded spec name (see `figures list`)")
		scale      = fs.String("scale", "", "system scale: tiny, small, medium or paper (default: the spec's scale, else small)")
		seeds      = fs.Int("seeds", 0, "independent replications per point (the paper uses 5; default: the spec's seeds, else 1)")
		workers    = fs.Int("workers", 0, "concurrent simulation workers (0 = GOMAXPROCS)")
		quick      = fs.Bool("quick", false, "smoke run: halve the warm-up and measurement windows and run three loads per section")
		resDir     = fs.String("results", "", "results directory (required): checkpoints + exported results JSON")
		revision   = fs.String("revision", "", "source revision to stamp into the results (default: git rev-parse)")
		manAdd     = fs.Bool("manifest-add", false, "after recording, render report.md next to the export and register a digest-pinned entry in -manifest (entry id = the results directory name)")
		manifestF  = fs.String("manifest", "experiments/manifest.json", "experiments manifest -manifest-add appends to (recordings under its directory without an entry get a reminder)")
		notes      = fs.String("notes", "", "free-form provenance to record in the manifest entry (with -manifest-add)")
		metricsOut = fs.String("metrics-out", "", "instrument the run and write the metrics snapshot to this JSON file (exports stay byte-identical)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *resDir == "" {
		return fmt.Errorf("run: missing -results directory")
	}
	if *campaignF == "" {
		return fmt.Errorf("run: missing -campaign (a spec file or an embedded spec name; see `figures list`)")
	}
	spec, err := campaign.Resolve(*campaignF)
	if err != nil {
		return err
	}
	id := spec.Name
	store, err := results.Open(*resDir)
	if err != nil {
		return err
	}
	rev := *revision
	if rev == "" {
		rev = gitRevision()
	}
	if rev != "" {
		store.SetRevision(rev)
	}
	if *workers > 0 {
		sim.SetWorkerBudget(*workers)
	}
	var metrics *obs.Registry
	if *metricsOut != "" {
		metrics = obs.NewRegistry()
		store.SetMetrics(metrics)
	}
	if prior := store.Len(); prior > 0 {
		fmt.Fprintf(os.Stderr, "resuming: %d replications already recorded in %s\n", prior, *resDir)
	}

	start := time.Now()
	var lastPrint time.Time
	var final sweep.Progress
	opts := sweep.Options{
		Scale:   *scale,
		Seeds:   *seeds,
		Quick:   *quick,
		Results: store,
		Metrics: metrics,
		Progress: func(p sweep.Progress) {
			final = p
			if p.Summary {
				fmt.Fprintf(os.Stderr, "%s summary: %d replications (%d restored, %d simulated) in %s, %.1f records/s\n",
					id, p.Done, p.Skipped, p.Done-p.Skipped,
					p.Elapsed.Round(time.Millisecond), p.RecordsPerSec)
				return
			}
			if p.Done != p.Total && time.Since(lastPrint) < time.Second {
				return
			}
			lastPrint = time.Now()
			fmt.Fprintf(os.Stderr, "%s [%s] %d/%d replications (%d restored) elapsed %s eta %s\n",
				id, p.Section, p.Done, p.Total, p.Skipped,
				p.Elapsed.Round(time.Second), p.ETA.Round(time.Second))
		},
	}
	if _, err := campaign.Run(spec, opts); err != nil {
		return fmt.Errorf("%s: %w", id, err)
	}
	path, err := store.WriteExport(id, spec.ReportTitle())
	if err != nil {
		return fmt.Errorf("%s: exporting results: %w", id, err)
	}
	fmt.Printf("%s: %d replications (%d restored from checkpoints) in %s -> %s\n",
		id, final.Done, final.Skipped, time.Since(start).Round(time.Millisecond), path)
	if *manAdd {
		entryID := filepath.Base(filepath.Clean(*resDir))
		var snap *obs.Snapshot
		if metrics != nil {
			snap = metrics.Snapshot()
		}
		if err := manifestAppend(*manifestF, entryID, *campaignF, path, *scale, *seeds, *quick, store.WallTotal(), snap, *notes); err != nil {
			return fmt.Errorf("%s: -manifest-add: %w", id, err)
		}
	} else {
		manifestHint(*manifestF, path)
	}
	if metrics != nil {
		if err := obs.WriteSnapshotFile(metrics, *metricsOut); err != nil {
			return fmt.Errorf("run: metrics snapshot: %w", err)
		}
		fmt.Fprintf(os.Stderr, "wrote metrics snapshot %s\n", *metricsOut)
	}
	fmt.Printf("results directory %s now holds %d replications (%s of simulation)\n",
		*resDir, store.Len(), store.WallTotal().Round(time.Second))
	return nil
}

// --- figures render --------------------------------------------------------

func renderCmd(args []string) error {
	fs := flag.NewFlagSet("figures render", flag.ContinueOnError)
	var (
		exp       = fs.String("exp", "", "experiments to render: comma-separated ids (analytic tables or recorded campaign names) or 'all' (every export in -results)")
		campaignF = fs.String("campaign", "", "campaign spec whose recorded results to render (a JSON file or embedded spec name)")
		resDir    = fs.String("results", "", "results directory holding <exp>.results.json exports")
		out       = fs.String("out", "", "output file (single experiment) or directory (with -exp all or several ids); default stdout")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *resDir == "" {
		return fmt.Errorf("render: missing -results directory")
	}
	if (*exp == "") == (*campaignF == "") {
		return fmt.Errorf("render: need exactly one of -exp or -campaign")
	}
	var ids []string
	if *campaignF != "" {
		spec, err := campaign.Resolve(*campaignF)
		if err != nil {
			return err
		}
		ids = []string{spec.Name}
	} else {
		var err error
		if ids, err = expandIDs(*exp, *resDir); err != nil {
			return err
		}
	}
	// -exp all writes into a directory even when it matches a single export.
	multi := *exp == "all" || len(ids) > 1
	rendered := 0
	for _, id := range ids {
		if _, ok := analyticTables[id]; ok {
			if multi {
				continue
			}
			// Computed, not recorded: there is no export to load.
			return emit(*out, id, analyticText(id), false)
		}
		path := filepath.Join(*resDir, id+".results.json")
		f, err := results.LoadFile(path)
		if err != nil {
			if multi {
				// Not every experiment has been run into this directory, and
				// one unreadable export (torn write, foreign schema) must not
				// sink the render of every valid one.
				if !os.IsNotExist(err) {
					fmt.Fprintf(os.Stderr, "render: skipping %s: %v\n", id, err)
				}
				continue
			}
			return err
		}
		text, err := sweep.RenderResultsMarkdown(f)
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		if err := emit(*out, id, text, multi); err != nil {
			return err
		}
		rendered++
	}
	if rendered == 0 {
		return fmt.Errorf("render: no results files for %q under %s (run `figures run` first)", *exp, *resDir)
	}
	return nil
}

// emit writes one rendered report to stdout, a file, or a directory.
func emit(out, id, text string, multi bool) error {
	if out == "" {
		fmt.Println(text)
		return nil
	}
	path := out
	if multi {
		if err := os.MkdirAll(out, 0o755); err != nil {
			return err
		}
		path = filepath.Join(out, id+".md")
	}
	if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}
