// Command flexvcsim runs one configuration of a low-diameter network — one
// variant of a campaign at one offered load — and prints the measured latency
// and throughput. The configuration comes either from setting flags (VC
// management policy, VC arrangement, routing, traffic, buffers), which fill
// the settings of a one-variant campaign, or from one variant of a campaign
// spec (-campaign, -section, -variant). Both run through the same section
// runner as `figures run`, so with -results every replication is a checkpoint
// record keyed like a figure's (experiment id "flexvcsim") and exported to
// <dir>/flexvcsim.results.json.
//
// Examples:
//
//	flexvcsim -scale small -traffic un -routing min -policy flexvc -vcs 4/2 -load 0.7
//	flexvcsim -scale small -traffic adv -routing pb -policy flexvc -mincred \
//	          -vcs 4/2+2/1 -reactive -load 0.3 -seeds 3
//	flexvcsim -campaign transient -variant "PB per-VC 4/2"
//	flexvcsim -campaign smoke -variant "FlexVC 4/2" -results out/
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strings"

	"flexvc/internal/campaign"
	"flexvc/internal/config"
	"flexvc/internal/obs"
	"flexvc/internal/results"
	"flexvc/internal/sim"
	"flexvc/internal/stats"
	"flexvc/internal/sweep"
)

// experiment is the results experiment id of every flexvcsim record, whatever
// the spec: a `figures run` of a campaign never restores a flexvcsim record,
// whose section and variant ordinals are not the campaign's.
const experiment = "flexvcsim"

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "flexvcsim:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("flexvcsim", flag.ContinueOnError)
	var (
		scale      = fs.String("scale", "", "system scale: tiny, small, medium or paper (default: the spec's scale, else small)")
		traffic    = fs.String("traffic", "", "traffic pattern: un, adv or bursty-un (default un)")
		reactive   = fs.Bool("reactive", false, "enable request-reply traffic (needs two-class -vcs, e.g. 4/2+2/1)")
		routingF   = fs.String("routing", "", "routing: min, val, par or pb (default min)")
		sensing    = fs.String("sensing", "", "PB congestion sensing: per-port or per-vc (default per-vc)")
		policy     = fs.String("policy", "", "VC management: baseline or flexvc (default baseline)")
		minCred    = fs.Bool("mincred", false, "enable FlexVC-minCred credit accounting")
		vcs        = fs.String("vcs", "", "VCs as local/global, request+reply for reactive traffic: 4/2 or 4/2+2/1 (default 2/1)")
		selFn      = fs.String("select", "", "FlexVC VC selection: jsq, highest, lowest or random (default jsq)")
		bufOrg     = fs.String("buffers", "", "buffer organisation: static or damq (default static)")
		damqPriv   = fs.Float64("damq-private", 0, "DAMQ private fraction per VC (default 0.75)")
		speedup    = fs.Int("speedup", 0, "router speedup, >= 1 (default 2)")
		load       = fs.Float64("load", 0.5, "offered load in phits/node/cycle (with -campaign: default the section's first load)")
		campF      = fs.String("campaign", "", "campaign spec (JSON file or embedded name): run one of its variants instead of building a config from flags")
		campSec    = fs.String("section", "", "campaign section title (default: the first section)")
		campVar    = fs.String("variant", "", "campaign variant label (required with -campaign; an unknown label lists them)")
		seeds      = fs.Int("seeds", 1, "number of independent replications to average")
		workers    = fs.Int("workers", 0, "concurrent replication workers (0 = GOMAXPROCS)")
		resDir     = fs.String("results", "", "checkpoint every replication into this results directory and export them to <dir>/flexvcsim.results.json")
		metricsOut = fs.String("metrics-out", "", "instrument the run and write the metrics snapshot (phase walls, cycles, wheel depth) to this JSON file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	// The setting flags set on the command line fill one campaign variant's
	// settings; unset ones keep the scale's configuration.
	var set campaign.Settings
	fill := map[string]func(){
		"traffic":      func() { set.Traffic = traffic },
		"reactive":     func() { set.Reactive = reactive },
		"routing":      func() { set.Routing = routingF },
		"sensing":      func() { set.Sensing = sensing },
		"policy":       func() { set.Policy = policy },
		"mincred":      func() { set.MinCred = minCred },
		"vcs":          func() { set.VCs = vcs },
		"select":       func() { set.Select = selFn },
		"buffers":      func() { set.Buffers = bufOrg },
		"damq-private": func() { set.DAMQPrivate = damqPriv },
		"speedup":      func() { set.Speedup = speedup },
	}
	var setFlags []string
	haveLoad := false
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "load" {
			haveLoad = true
		}
		if apply := fill[f.Name]; apply != nil {
			apply()
			setFlags = append(setFlags, "-"+f.Name+"="+f.Value.String())
		}
	})

	switch {
	case *seeds < 1:
		return fmt.Errorf("-seeds %d: need at least one replication", *seeds)
	case *workers < 0:
		return fmt.Errorf("-workers %d is negative (0 means GOMAXPROCS)", *workers)
	case set.Speedup != nil && *speedup < 1:
		return fmt.Errorf("-speedup %d: must be >= 1", *speedup)
	case math.IsNaN(*load) || *load < 0 || *load > 1:
		return fmt.Errorf("-load %v outside [0,1] phits/node/cycle", *load)
	}
	if *scale != "" {
		if _, err := config.AtScale(*scale); err != nil {
			return fmt.Errorf("-scale: %w", err)
		}
	}

	var c *campaign.Campaign
	sectionTitle, variantLabel := *campSec, *campVar
	if *campF != "" {
		// The spec defines the configuration; a setting flag the variant
		// would overwrite is rejected instead of ignored.
		if len(setFlags) > 0 {
			names := make([]string, len(setFlags))
			for i, f := range setFlags {
				names[i], _, _ = strings.Cut(f, "=")
			}
			return fmt.Errorf("-campaign selects the configuration from the spec; drop %s (or run without -campaign)", strings.Join(names, ", "))
		}
		var err error
		if c, err = campaign.Resolve(*campF); err != nil {
			return err
		}
	} else {
		if sectionTitle != "" || variantLabel != "" {
			return fmt.Errorf("-section and -variant select from a -campaign spec")
		}
		variantLabel = "scale defaults"
		if len(setFlags) > 0 {
			variantLabel = strings.Join(setFlags, " ")
		}
		c = &campaign.Campaign{Name: experiment, Sections: []campaign.SectionSpec{{
			Title:    "flags",
			Loads:    []float64{*load},
			Variants: []campaign.VariantSpec{{Label: variantLabel, Set: set}},
		}}}
	}
	sections, err := c.Compile()
	if err != nil {
		return err
	}
	sec, v, err := pick(c.Name, sections, sectionTitle, variantLabel)
	if err != nil {
		return err
	}
	if !haveLoad {
		*load = sec.Loads[0]
	}

	opts := sweep.Options{Scale: *scale, Seeds: *seeds}
	if opts.Scale == "" {
		opts.Scale = c.Scale
	}
	if *metricsOut != "" {
		opts.Metrics = obs.NewRegistry()
	}
	base, err := opts.BaseConfig()
	if err != nil {
		return err
	}
	base.Scenario = sec.Scenario
	cfg := base
	v.Apply(&cfg)
	cfg.Load = *load
	if err := cfg.Validate(); err != nil {
		return err
	}
	if *resDir != "" {
		if opts.Results, err = results.Open(*resDir); err != nil {
			return err
		}
		opts.Results.SetMetrics(opts.Metrics)
	}
	if *workers > 0 {
		sim.SetWorkerBudget(*workers)
	}

	fmt.Println("configuration:", cfg.Describe())
	runner := opts.NewRunner(experiment)
	series, err := runner.RunSection(sec.Title, base, []sweep.Variant{v}, []float64{cfg.Load})
	if err != nil {
		return err
	}
	runner.Finish()
	agg := series[0].Points[0].Result
	fmt.Printf("result: %v\n", agg)
	fmt.Printf("  accepted load : %.4f phits/node/cycle\n", agg.AcceptedLoad)
	fmt.Printf("  avg latency   : %.1f cycles (network-only %.1f)\n", agg.AvgLatency, agg.AvgNetLatency)
	fmt.Printf("  p50/p95/p99   : %.1f / %.1f / %.1f cycles (histogram, ≤%.2f%% rel. error)\n",
		agg.P50, agg.P95, agg.P99, 100*stats.PercentileErrorBound)
	fmt.Printf("  avg hops      : %.2f, minimally routed %.1f%%\n", agg.AvgHops, 100*agg.MinimalFraction)
	if agg.Deadlock {
		fmt.Println("  WARNING: the deadlock watchdog aborted at least one replication")
	}
	if agg.Series != nil {
		var b strings.Builder
		sweep.RenderTransientMarkdown(&b, []sweep.Series{{
			Label:  "aggregate of " + fmt.Sprint(*seeds) + " seed(s)",
			Points: []sweep.Point{{Load: cfg.Load, Result: agg}},
		}})
		fmt.Printf("\n%s", b.String())
	}
	if opts.Results != nil {
		path, err := opts.Results.WriteExport(experiment, c.ReportTitle())
		if err != nil {
			return fmt.Errorf("exporting results: %w", err)
		}
		fmt.Printf("  wrote %s\n", path)
	}
	if *metricsOut != "" {
		if err := obs.WriteSnapshotFile(opts.Metrics, *metricsOut); err != nil {
			return fmt.Errorf("writing %s: %w", *metricsOut, err)
		}
		fmt.Printf("  wrote metrics snapshot %s\n", *metricsOut)
	}
	return nil
}

// pick returns the compiled section with the given title (the first one when
// the title is empty) and its variant with the given label.
func pick(name string, sections []campaign.CompiledSection, title, label string) (*campaign.CompiledSection, sweep.Variant, error) {
	sec := &sections[0]
	if title != "" {
		sec = nil
		titles := make([]string, len(sections))
		for i := range sections {
			titles[i] = sections[i].Title
			if sections[i].Title == title {
				sec = &sections[i]
			}
		}
		if sec == nil {
			return nil, sweep.Variant{}, fmt.Errorf("campaign %s has no section %q (sections: %s)", name, title, strings.Join(titles, " | "))
		}
	}
	labels := make([]string, len(sec.Variants))
	for i, v := range sec.Variants {
		if v.Label == label {
			return sec, v, nil
		}
		labels[i] = v.Label
	}
	return nil, sweep.Variant{}, fmt.Errorf("campaign %s section %q: pick a variant with -variant (variants: %s)", name, sec.Title, strings.Join(labels, " | "))
}
