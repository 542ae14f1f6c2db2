// Command campaignd runs declarative campaigns (internal/campaign) across
// multiple worker processes sharing one results directory, using the results
// store's lease-based shard-claim protocol for per-record exactly-once
// execution. Any worker can be SIGKILLed mid-run: survivors take over its
// expired leases and the campaign resumes exactly where the checkpoints say,
// exporting results byte-identical to a single-process `figures run
// -campaign` run.
//
// Modes:
//
//	campaignd run  -campaign <name|spec.json> -results DIR -workers N
//	               one campaign, N local worker processes, wait, export
//	campaignd work (internal) one worker process, spawned by run
//
// Examples:
//
//	campaignd run -campaign smoke -quick -workers 2 -results results/c
//	campaignd run -campaign fig5 -seeds 5 -workers 4 -results results/pool \
//	    -metrics-out results/pool/metrics.json
//
// Two runs pointed at one results directory share its checkpoints and divide
// overlapping work through the same leases.
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/exec"
	"strings"
	"time"

	"flexvc/internal/campaign"
	"flexvc/internal/campaignd"
	"flexvc/internal/obs"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "campaignd:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) == 0 {
		return usage()
	}
	switch args[0] {
	case "run":
		return runCmd(args[1:])
	case "work":
		return workCmd(args[1:])
	case "help", "-h", "-help", "--help":
		return usage()
	}
	return fmt.Errorf("unknown mode %q (want run or work)", args[0])
}

func usage() error {
	fmt.Println("usage: campaignd {run | work} [flags]")
	fmt.Println("  run   execute one campaign across N local worker processes and export")
	fmt.Println("  work  (internal) one worker process of a sharded run")
	return nil
}

// newLogger builds the stderr slog logger the -log-level flag selects; an
// empty or "off" level disables structured logging entirely (stdout stays
// reserved for NDJSON events in work mode either way).
func newLogger(level string) (*slog.Logger, error) {
	var lvl slog.Level
	switch strings.ToLower(level) {
	case "", "off":
		return nil, nil
	case "debug":
		lvl = slog.LevelDebug
	case "info":
		lvl = slog.LevelInfo
	case "warn":
		lvl = slog.LevelWarn
	case "error":
		lvl = slog.LevelError
	default:
		return nil, fmt.Errorf("unknown -log-level %q (want debug, info, warn, error or off)", level)
	}
	return slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: lvl})), nil
}

// gitRevision mirrors the figures CLI's default revision stamp, so exports
// produced by campaignd and by `figures run` are byte-identical when both
// run from the same checkout.
func gitRevision() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}

func runCmd(args []string) error {
	fs := flag.NewFlagSet("campaignd run", flag.ContinueOnError)
	var (
		campaignF  = fs.String("campaign", "", "campaign spec: a JSON file or an embedded spec name (see `figures list`)")
		resDir     = fs.String("results", "", "shared results directory (required)")
		workers    = fs.Int("workers", 2, "worker processes to fan replications across")
		scale      = fs.String("scale", "", "system scale override (campaign specs may set their own default)")
		seeds      = fs.Int("seeds", 0, "replications per point override")
		quick      = fs.Bool("quick", false, "trim sweeps for a fast smoke run")
		simW       = fs.Int("sim-workers", 0, "per-worker simulation concurrency (0 = GOMAXPROCS/workers)")
		leaseTTL   = fs.Duration("lease-ttl", 0, "shard-claim lease expiry (0 = 60s); takeover latency for dead workers")
		poll       = fs.Duration("poll", 0, "claim poll interval (0 = 50ms)")
		killAfter  = fs.Int("kill-after", 0, "chaos hook: SIGKILL one worker once this many records exist (0 = off)")
		revision   = fs.String("revision", "", "source revision to stamp into the results (default: git rev-parse)")
		quiet      = fs.Bool("quiet", false, "suppress per-event progress output")
		metricsOut = fs.String("metrics-out", "", "write the coordinator's pooled metrics snapshot to this JSON file")
		logLevel   = fs.String("log-level", "", "structured log level on stderr: debug, info, warn, error (default off)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *resDir == "" || *campaignF == "" {
		return fmt.Errorf("run: need -campaign and -results")
	}
	log, err := newLogger(*logLevel)
	if err != nil {
		return err
	}
	spec, err := campaign.Resolve(*campaignF)
	if err != nil {
		return err
	}
	rev := *revision
	if rev == "" {
		rev = gitRevision()
	}
	reg := obs.NewRegistry()
	co := &campaignd.Coordinator{
		Spec:                spec,
		ResultsDir:          *resDir,
		Workers:             *workers,
		Scale:               *scale,
		Seeds:               *seeds,
		Quick:               *quick,
		SimWorkersPerWorker: *simW,
		LeaseTTL:            *leaseTTL,
		Poll:                *poll,
		Revision:            rev,
		KillAfterRecords:    *killAfter,
		Metrics:             reg,
		Logger:              log,
	}
	if !*quiet {
		var lastPrint time.Time
		co.OnEvent = func(ev campaignd.Event) {
			if ev.Type == "progress" && ev.Done != ev.Total && time.Since(lastPrint) < time.Second {
				return
			}
			lastPrint = time.Now()
			fmt.Fprintln(os.Stderr, campaignd.FormatEvent(ev))
		}
	}
	start := time.Now()
	path, err := co.Run()
	if err != nil {
		return err
	}
	if *metricsOut != "" {
		if err := obs.WriteSnapshotFile(reg, *metricsOut); err != nil {
			return fmt.Errorf("run: metrics snapshot: %w", err)
		}
		fmt.Fprintf(os.Stderr, "wrote metrics snapshot %s\n", *metricsOut)
	}
	fmt.Printf("%s: completed across %d workers in %s -> %s\n",
		spec.Name, *workers, time.Since(start).Round(time.Millisecond), path)
	return nil
}

func workCmd(args []string) error {
	fs := flag.NewFlagSet("campaignd work", flag.ContinueOnError)
	var (
		specPath   = fs.String("spec", "", "campaign spec JSON file (required)")
		resDir     = fs.String("results", "", "shared results directory (required)")
		owner      = fs.String("owner", "", "worker name for leases and events")
		scale      = fs.String("scale", "", "system scale override")
		seeds      = fs.Int("seeds", 0, "replications per point override")
		quick      = fs.Bool("quick", false, "trim sweeps for a fast smoke run")
		simW       = fs.Int("sim-workers", 0, "simulation concurrency (0 = GOMAXPROCS)")
		leaseTTL   = fs.Duration("lease-ttl", 0, "shard-claim lease expiry (0 = 60s)")
		poll       = fs.Duration("poll", 0, "claim poll interval (0 = 50ms)")
		metricsOut = fs.String("metrics-out", "", "write this worker's metrics snapshot to this JSON file")
		logLevel   = fs.String("log-level", "", "structured log level on stderr: debug, info, warn, error (default off)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *specPath == "" || *resDir == "" {
		return fmt.Errorf("work: need -spec and -results")
	}
	log, err := newLogger(*logLevel)
	if err != nil {
		return err
	}
	return campaignd.RunWorker(campaignd.WorkerConfig{
		SpecPath:   *specPath,
		ResultsDir: *resDir,
		Owner:      *owner,
		Scale:      *scale,
		Seeds:      *seeds,
		Quick:      *quick,
		SimWorkers: *simW,
		LeaseTTL:   *leaseTTL,
		Poll:       *poll,
		Events:     os.Stdout,
		MetricsOut: *metricsOut,
		Logger:     log,
	})
}
