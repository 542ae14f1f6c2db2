package main

import (
	"embed"
	"encoding/json"
	"fmt"
	"io/fs"
	"math"
	"math/rand"
	"runtime"
	"strings"

	"flexvc/internal/campaign"
	"flexvc/internal/config"
)

// The benchmark's inputs are data: every workload is a campaign spec in the
// program's own format, listed in workloads/workloads.json. The harness
// generates the final input from the spec and the seed and hands the program
// nothing else.
//
//go:embed workloads/*.json
var embedded embed.FS

// benchWorkloads returns the benchmark's own workloads.
func benchWorkloads() ([]workload, error) {
	dir, err := fs.Sub(embedded, "workloads")
	if err != nil {
		return nil, err
	}
	return loadWorkloads(dir)
}

// workload is one entry of workloads.json.
type workload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	// Gated workloads are the ones BENCHMARK.json names: the driver runs
	// them and holds their end-to-end metrics to the bounds. An ungated
	// workload runs by name only; its timings are too unsteady on a shared
	// host to gate a change (see README.md, "Noise").
	Gated bool `json:"gated"`
	// Kind is "sweep" (the whole spec through campaign.Run and the results
	// store) or "replication" (the spec's single point through
	// sim.RunReplication, repeated).
	Kind string `json:"kind"`
	// Spec names the campaign spec file under workloads/.
	Spec string `json:"spec"`
	// PaperRef names the paper-digitised reference table (sweeps only).
	PaperRef string `json:"paper_ref,omitempty"`
	// WarmupCycles and MeasureCycles size one repetition (replications only).
	WarmupCycles  int64 `json:"warmup_cycles,omitempty"`
	MeasureCycles int64 `json:"measure_cycles,omitempty"`

	// dir is the directory workloads.json came from; Spec and PaperRef
	// resolve against it.
	dir fs.FS
}

// read returns a file of the workload's directory.
func (w workload) read(name string) ([]byte, error) { return fs.ReadFile(w.dir, name) }

const (
	kindSweep       = "sweep"
	kindReplication = "replication"
)

// loadWorkloads reads and checks a directory's workloads.json.
func loadWorkloads(dir fs.FS) ([]workload, error) {
	b, err := fs.ReadFile(dir, "workloads.json")
	if err != nil {
		return nil, err
	}
	var ws []workload
	if err := json.Unmarshal(b, &ws); err != nil {
		return nil, fmt.Errorf("workloads.json: %w", err)
	}
	for i, w := range ws {
		ws[i].dir = dir
		if w.Kind != kindSweep && w.Kind != kindReplication {
			return nil, fmt.Errorf("workloads.json: %s: unknown kind %q", w.Name, w.Kind)
		}
		if _, err := procsFor(w.Name); err != nil {
			return nil, err
		}
	}
	return ws, nil
}

func findWorkload(ws []workload, name string) (workload, error) {
	var names []string
	for _, w := range ws {
		if w.Name == name {
			return w, nil
		}
		names = append(names, w.Name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have: %s)", name, strings.Join(names, ", "))
}

// procsFor derives GOMAXPROCS from the workload name: "-1core" pins one
// core, "-allcores" uses every core up to four (more would make the numbers
// depend on how large the host is rather than on the program).
func procsFor(name string) (int, error) {
	switch {
	case strings.HasSuffix(name, "-1core"):
		return 1, nil
	case strings.HasSuffix(name, "-allcores"):
		return min(runtime.NumCPU(), 4), nil
	}
	return 0, fmt.Errorf("workload %q: name must end in -1core or -allcores", name)
}

// sweepInput generates the sweep's input from the seed: the spec with every
// offered-load point lowered by up to 2%, drawn from the seed in order of
// appearance. Campaign specs carry no PRNG seed of their own, so the load
// grid is the one input a seed can vary; every seed simulates a different
// but statistically equivalent figure. The result is spec JSON — all the
// program sees.
func sweepInput(spec []byte, seed int64) ([]byte, error) {
	c, err := campaign.Parse(spec)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	jitter := func(loads []float64) {
		for i, l := range loads {
			loads[i] = math.Round(l*(1-0.02*rng.Float64())*1e4) / 1e4
		}
	}
	jitter(c.Loads)
	for i := range c.Sections {
		jitter(c.Sections[i].Loads)
	}
	return json.Marshal(c)
}

// pointConfigs compiles a spec and returns the simulator configuration of
// every (section, variant, load) point, in spec order.
func pointConfigs(c *campaign.Campaign) ([]config.Config, error) {
	sections, err := c.Compile()
	if err != nil {
		return nil, err
	}
	base, err := config.AtScale(c.Scale)
	if err != nil {
		return nil, err
	}
	var cfgs []config.Config
	for _, sec := range sections {
		for _, v := range sec.Variants {
			for _, load := range sec.Loads {
				cfg := base
				v.Apply(&cfg)
				cfg.Load = load
				cfgs = append(cfgs, cfg)
			}
		}
	}
	return cfgs, nil
}

// specPoints parses a spec and returns the configuration of every point and
// the spec's replications per point.
func specPoints(spec []byte) ([]config.Config, int, error) {
	c, err := campaign.Parse(spec)
	if err != nil {
		return nil, 0, err
	}
	cfgs, err := pointConfigs(c)
	return cfgs, max(c.Seeds, 1), err
}

// gated returns the workloads BENCHMARK.json names.
func gated(ws []workload) []workload {
	var out []workload
	for _, w := range ws {
		if w.Gated {
			out = append(out, w)
		}
	}
	return out
}

// replicationConfig generates a replication workload's input from the seed:
// the spec's single point at the workload's cycle counts, with the seed as
// the simulator's PRNG seed.
func replicationConfig(w workload, spec []byte, seed int64) (config.Config, error) {
	cfgs, _, err := specPoints(spec)
	if err != nil {
		return config.Config{}, err
	}
	if len(cfgs) != 1 {
		return config.Config{}, fmt.Errorf("workload %s: spec %s has %d points, want 1", w.Name, w.Spec, len(cfgs))
	}
	cfg := cfgs[0]
	cfg.WarmupCycles, cfg.MeasureCycles = w.WarmupCycles, w.MeasureCycles
	cfg.Seed = seed
	return cfg, nil
}
