// Command flexvcsim runs a single cycle-accurate simulation of a low-diameter
// network with a chosen buffer-management scheme (baseline fixed-order VCs,
// FlexVC or FlexVC-minCred), routing algorithm and traffic pattern, and
// prints the measured latency and throughput.
//
// Examples:
//
//	flexvcsim -scale small -traffic un -routing min -policy flexvc -vcs 4/2 -load 0.7
//	flexvcsim -scale small -traffic adv -routing pb -policy flexvc -mincred \
//	          -reqvcs 4/2 -repvcs 2/1 -reactive -load 0.3 -seeds 3
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"flexvc/internal/buffer"
	"flexvc/internal/campaign"
	"flexvc/internal/config"
	"flexvc/internal/core"
	"flexvc/internal/obs"
	"flexvc/internal/results"
	"flexvc/internal/routing"
	"flexvc/internal/scenario"
	"flexvc/internal/sim"
	"flexvc/internal/stats"
	"flexvc/internal/sweep"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "flexvcsim:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("flexvcsim", flag.ContinueOnError)
	var (
		scale      = fs.String("scale", "", "system scale: tiny, small (default), medium or paper (campaign specs may set their own default)")
		traffic    = fs.String("traffic", "un", "traffic pattern: un, adv or bursty-un")
		reactive   = fs.Bool("reactive", false, "enable request-reply traffic")
		routingF   = fs.String("routing", "min", "routing: min, val, par or pb")
		sensing    = fs.String("sensing", "per-vc", "PB congestion sensing: per-port or per-vc")
		policy     = fs.String("policy", "baseline", "VC management: baseline or flexvc")
		minCred    = fs.Bool("mincred", false, "enable FlexVC-minCred credit accounting")
		vcs        = fs.String("vcs", "2/1", "VCs as local/global (single-class traffic)")
		reqVCs     = fs.String("reqvcs", "", "request VCs as local/global (reactive traffic)")
		repVCs     = fs.String("repvcs", "", "reply VCs as local/global (reactive traffic)")
		selFn      = fs.String("select", "jsq", "FlexVC VC selection: jsq, highest, lowest or random")
		bufOrg     = fs.String("buffers", "static", "buffer organisation: static or damq")
		damqPriv   = fs.Float64("damq-private", 0.75, "DAMQ private fraction per VC")
		load       = fs.Float64("load", 0.5, "offered load in phits/node/cycle")
		scenF      = fs.String("scenario", "", "JSON scenario file: a phased workload that overrides -traffic/-load and reports windowed transient telemetry")
		campF      = fs.String("campaign", "", "campaign spec (JSON file or embedded name): run one of its variants instead of building a config from flags")
		campSec    = fs.String("section", "", "campaign section title (default: the first section)")
		campVar    = fs.String("variant", "", "campaign variant label (required with -campaign; pass an empty spec to list)")
		seeds      = fs.Int("seeds", 1, "number of independent replications to average")
		speedup    = fs.Int("speedup", 0, "router speedup override (0 keeps the scale default)")
		seed       = fs.Int64("seed", 1, "base random seed")
		workers    = fs.Int("workers", 0, "concurrent replication workers (0 = GOMAXPROCS)")
		tableMB    = fs.Int("route-table-mb", 0, "memory budget for precomputed route tables in MiB (0 = default, negative disables)")
		out        = fs.String("out", "", "write the result as machine-readable JSON (internal/results schema) to this file")
		metricsOut = fs.String("metrics-out", "", "instrument the run and write the metrics snapshot (phase walls, cycles, wheel depth) to this JSON file")
		verbose    = fs.Bool("v", false, "print per-replication results")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	var cfg config.Config
	var err error
	effScale := *scale
	if effScale == "" {
		effScale = "small"
	}
	if *campF != "" {
		// The spec defines the configuration; flags that would silently be
		// overwritten by the variant's settings are rejected instead of
		// ignored. Only -scale, -load, -seed(s), -speedup, -route-table-mb,
		// -workers, -out and -v compose with -campaign.
		haveLoad := false
		var conflict []string
		fs.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "load":
				haveLoad = true
			case "traffic", "reactive", "routing", "sensing", "policy", "mincred",
				"vcs", "reqvcs", "repvcs", "select", "buffers", "damq-private", "scenario":
				conflict = append(conflict, "-"+f.Name)
			}
		})
		if len(conflict) > 0 {
			return fmt.Errorf("-campaign selects the configuration from the spec; drop %s (or run without -campaign)", strings.Join(conflict, ", "))
		}
		if cfg, effScale, err = campaignConfig(*campF, *campSec, *campVar, *scale, haveLoad, *load); err != nil {
			return err
		}
		cfg.Seed = *seed
	} else {
		if cfg, err = buildConfig(*scale); err != nil {
			return err
		}
		if cfg.Traffic, err = config.ParseTrafficKind(*traffic); err != nil {
			return err
		}
		cfg.Reactive = *reactive
		cfg.Load = *load
		cfg.Seed = *seed
		if *scenF != "" {
			sc, err := scenario.Load(*scenF)
			if err != nil {
				return err
			}
			cfg.Scenario = sc
			// The scenario carries per-phase loads; report its peak as the
			// configured offered load.
			cfg.Load = sc.MaxLoad()
		}
		if cfg.Routing, err = routing.ParseKind(*routingF); err != nil {
			return err
		}
		if cfg.Sensing, err = routing.ParseSensing(*sensing); err != nil {
			return err
		}
		if cfg.Scheme, err = buildScheme(*policy, *minCred, *vcs, *reqVCs, *repVCs, *selFn, *reactive); err != nil {
			return err
		}
		if cfg.BufferOrg, err = buffer.ParseOrganization(*bufOrg); err != nil {
			return err
		}
		if cfg.BufferOrg == buffer.DAMQ {
			cfg.DAMQPrivateFraction = *damqPriv
		}
	}
	if *tableMB != 0 {
		cfg.RouteTableBytes = *tableMB << 20
	}
	if *speedup > 0 {
		cfg.Speedup = *speedup
	}
	if *metricsOut != "" {
		cfg.Metrics = obs.NewRegistry()
	}
	if err := cfg.Validate(); err != nil {
		return err
	}

	if *workers > 0 {
		sim.SetWorkerBudget(*workers)
	}
	fmt.Println("configuration:", cfg.Describe())
	agg, runs, err := sim.RunAveraged(cfg, *seeds)
	if err != nil {
		return err
	}
	if *verbose {
		for i, r := range runs {
			fmt.Printf("  run %d: %v\n", i, r)
		}
	}
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
	if *out != "" {
		if err := results.WriteSinglePoint(*out, cfg, effScale, agg, runs); err != nil {
			return fmt.Errorf("writing %s: %w", *out, err)
		}
		fmt.Printf("  wrote %s\n", *out)
	}
	if *metricsOut != "" {
		if err := obs.WriteSnapshotFile(cfg.Metrics, *metricsOut); err != nil {
			return fmt.Errorf("writing %s: %w", *metricsOut, err)
		}
		fmt.Printf("  wrote metrics snapshot %s\n", *metricsOut)
	}
	return nil
}

func buildConfig(scale string) (config.Config, error) {
	return config.AtScale(scale)
}

// campaignConfig builds the configuration of one variant of a campaign spec:
// the scale's base config, the section's scenario, and the variant's layered
// settings — exactly what a `figures run -campaign` sweep would simulate for
// that variant, which makes flexvcsim the single-point debugging tool for
// campaigns. It returns the effective scale name alongside the config.
func campaignConfig(arg, sectionTitle, variantLabel, scale string, haveLoad bool, load float64) (config.Config, string, error) {
	fail := func(err error) (config.Config, string, error) { return config.Config{}, "", err }
	c, err := campaign.Resolve(arg)
	if err != nil {
		return fail(err)
	}
	sections, err := c.Compile()
	if err != nil {
		return fail(err)
	}
	sec := &sections[0]
	if sectionTitle != "" {
		sec = nil
		titles := make([]string, len(sections))
		for i := range sections {
			titles[i] = sections[i].Title
			if sections[i].Title == sectionTitle {
				sec = &sections[i]
			}
		}
		if sec == nil {
			return fail(fmt.Errorf("campaign %s has no section %q (sections: %s)", c.Name, sectionTitle, strings.Join(titles, " | ")))
		}
	}
	var v *sweep.Variant
	labels := make([]string, len(sec.Variants))
	for i := range sec.Variants {
		labels[i] = sec.Variants[i].Label
		if labels[i] == variantLabel {
			v = &sec.Variants[i]
		}
	}
	if v == nil {
		return fail(fmt.Errorf("campaign %s section %q: pick a variant with -variant (variants: %s)", c.Name, sec.Title, strings.Join(labels, " | ")))
	}
	if scale == "" {
		scale = c.Scale
	}
	cfg, err := config.AtScale(scale)
	if err != nil {
		return fail(err)
	}
	cfg.Scenario = sec.Scenario
	v.Apply(&cfg)
	switch {
	case haveLoad:
		cfg.Load = load
	case sec.Scenario != nil:
		cfg.Load = sec.Scenario.MaxLoad()
	default:
		cfg.Load = sec.Loads[0]
	}
	if scale == "" {
		scale = "small"
	}
	return cfg, scale, nil
}

func buildScheme(policy string, minCred bool, vcs, reqVCs, repVCs, selFn string, reactive bool) (core.Scheme, error) {
	var s core.Scheme
	var err error
	if s.Policy, err = core.ParsePolicy(policy); err != nil {
		return s, err
	}
	s.MinCred = minCred
	if s.Selection, err = core.ParseSelectionFn(selFn); err != nil {
		return s, err
	}

	if reactive {
		if reqVCs == "" || repVCs == "" {
			// Default to mirroring the single-class spec per subpath.
			reqVCs, repVCs = vcs, vcs
		}
		req, err := core.ParseSubpathVCs(reqVCs)
		if err != nil {
			return s, err
		}
		rep, err := core.ParseSubpathVCs(repVCs)
		if err != nil {
			return s, err
		}
		s.VCs = core.VCConfig{Request: req, Reply: rep}
		return s, nil
	}
	req, err := core.ParseSubpathVCs(vcs)
	if err != nil {
		return s, err
	}
	s.VCs = core.VCConfig{Request: req}
	return s, nil
}
