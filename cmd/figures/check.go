package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"flexvc/internal/obs"
	"flexvc/internal/sim"
	"flexvc/internal/sweep"
	"flexvc/internal/verify"
)

// checkCmd is the one-command reproducibility verification: `figures check
// [id|all]` re-runs every recorded experiment named by the experiments
// manifest and byte-compares the fresh export and rendered report against the
// committed artefacts (internal/verify). It exits non-zero on any FAIL, so CI
// collapses the bespoke per-experiment diff jobs into this single gate.
func checkCmd(args []string) error {
	fs := flag.NewFlagSet("figures check", flag.ContinueOnError)
	var (
		manifestF  = fs.String("manifest", "experiments/manifest.json", "experiments manifest to verify against")
		workDir    = fs.String("work", "", "keep per-entry scratch results under this directory (default: private temp dir, removed)")
		maxWall    = fs.Duration("max-wall", 0, "skip the re-run of entries whose approx_wall_s exceeds this (digests still verified); 0 re-runs everything")
		workers    = fs.Int("workers", 0, "concurrent simulation workers (0 = GOMAXPROCS)")
		update     = fs.Bool("update", false, "re-pin the manifest digests from the committed artefacts and rewrite the manifest (no re-run)")
		jsonOut    = fs.Bool("json", false, "emit the structured per-entry results as JSON on stdout")
		verbose    = fs.Bool("v", false, "stream re-run progress to stderr")
		corrupt    = fs.String("corrupt-fresh", "", "negative-path self-test: flip one byte of the freshly produced 'export' or 'report' before comparing (must FAIL)")
		metricsOut = fs.String("metrics-out", "", "instrument the re-runs and write the pooled metrics snapshot to this JSON file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	m, err := verify.LoadManifest(*manifestF)
	if err != nil {
		return err
	}
	if *update {
		if err := m.UpdateDigests(); err != nil {
			return err
		}
		if err := m.Write(*manifestF); err != nil {
			return err
		}
		fmt.Printf("re-pinned digests for %d entries in %s\n", len(m.Entries), *manifestF)
		return nil
	}
	if *corrupt != "" && *corrupt != "export" && *corrupt != "report" {
		return fmt.Errorf("check: -corrupt-fresh %q, want 'export' or 'report'", *corrupt)
	}
	if *workers > 0 {
		sim.SetWorkerBudget(*workers)
	}

	ids := fs.Args()
	// The -max-wall skip estimate assumes the effective worker count: the
	// explicit -workers value, or the default budget (GOMAXPROCS) when unset.
	// ApproxWallS in the manifest is a serial measurement, so dividing keeps
	// the budget comparison honest for parallel re-runs.
	effWorkers := *workers
	if effWorkers <= 0 {
		effWorkers = runtime.GOMAXPROCS(0)
	}
	opts := verify.Options{WorkDir: *workDir, MaxWall: *maxWall, CorruptFresh: *corrupt, Workers: effWorkers}
	if *metricsOut != "" {
		opts.Metrics = obs.NewRegistry()
	}
	if *verbose {
		var lastPrint time.Time
		opts.Progress = func(p sweep.Progress) {
			if p.Done != p.Total && time.Since(lastPrint) < time.Second {
				return
			}
			lastPrint = time.Now()
			fmt.Fprintf(os.Stderr, "check %s [%s] %d/%d replications elapsed %s eta %s\n",
				p.Experiment, p.Section, p.Done, p.Total,
				p.Elapsed.Round(time.Second), p.ETA.Round(time.Second))
		}
	}
	rs, err := verify.Check(m, ids, opts)
	if err != nil {
		return err
	}
	if *metricsOut != "" {
		if err := obs.WriteSnapshotFile(opts.Metrics, *metricsOut); err != nil {
			return fmt.Errorf("check: metrics snapshot: %w", err)
		}
		fmt.Fprintf(os.Stderr, "wrote metrics snapshot %s\n", *metricsOut)
	}
	if *jsonOut {
		b, err := json.MarshalIndent(rs, "", "  ")
		if err != nil {
			return err
		}
		fmt.Println(string(b))
	} else {
		for _, r := range rs {
			fmt.Println(r.Summary())
		}
	}
	var failed []string
	for _, r := range rs {
		if r.Status == verify.Fail {
			failed = append(failed, r.ID)
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("check: %d of %d entries FAILED: %s", len(failed), len(rs), strings.Join(failed, ", "))
	}
	return nil
}
