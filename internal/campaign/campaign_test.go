package campaign

import (
	"path/filepath"
	"strings"
	"testing"

	"flexvc/internal/buffer"
	"flexvc/internal/config"
	"flexvc/internal/core"
	"flexvc/internal/results"
	"flexvc/internal/routing"
	"flexvc/internal/sweep"
)

// TestBadSpecCorpus runs every malformed spec under testdata through Parse
// and checks that each is rejected with a message specific enough to fix the
// JSON: DisallowUnknownFields catches typos, and every validation rule names
// the offending section, axis or field.
func TestBadSpecCorpus(t *testing.T) {
	cases := map[string][]string{
		"bad-unknown-field.json":      {"sectoins"},
		"bad-missing-name.json":       {"name", "slug"},
		"bad-name-chars.json":         {"My Campaign!", "slug"},
		"bad-no-sections.json":        {"at least one section"},
		"bad-scale.json":              {"humongous", "unknown scale"},
		"bad-traffic.json":            {"section 0", "traffic", "warp"},
		"bad-routing.json":            {"variant \"v\"", "routing", "teleport"},
		"bad-policy.json":             {"policy", "rigidvc"},
		"bad-vcs.json":                {"vcs", "four/two"},
		"bad-selection.json":          {"select", "coinflip"},
		"bad-buffers.json":            {"buffers", "elastic"},
		"bad-damq-fraction.json":      {"damq_private", "[0,1]"},
		"bad-load.json":               {"load", "1.7", "[0,1]"},
		"bad-no-loads.json":           {"no loads"},
		"bad-axes-and-variants.json":  {"either axes or variants"},
		"bad-empty-axis.json":         {"axis \"x\"", "at least one value"},
		"bad-dup-variant.json":        {"duplicate variant label", "same"},
		"bad-dup-section.json":        {"duplicate section title", "a"},
		"bad-no-variants.json":        {"no variants"},
		"bad-scenario.json":           {"1234", "window"},
		"bad-scenario-field.json":     {"laod"},
		"bad-scenario-no-phases.json": {"empty", "at least one phase"},
		"bad-scenario-loads.json":     {"scenario section", "at most one load"},
		"bad-speedup.json":            {"speedup", ">= 1"},
		"bad-burst.json":              {"avg_burst_length", ">= 1"},
	}
	for file, wants := range cases {
		_, err := Load(filepath.Join("testdata", file))
		if err == nil {
			t.Errorf("%s: parsed without error", file)
			continue
		}
		for _, w := range wants {
			if !strings.Contains(err.Error(), w) {
				t.Errorf("%s: error %q should mention %q", file, err, w)
			}
		}
	}
}

func ptr[T any](v T) *T { return &v }

// TestCrossProduct checks axis cross-producting: order (first axis slowest),
// label joining, and settings layering (campaign base, then section base,
// then axis values in axis order).
func TestCrossProduct(t *testing.T) {
	c := &Campaign{
		Name: "xp",
		Base: &Settings{Traffic: ptr("un")},
		Sections: []SectionSpec{{
			Title: "panel",
			Base:  &Settings{Routing: ptr("min")},
			Loads: []float64{0.2},
			Axes: []Axis{
				{Name: "policy", Values: []VariantSpec{
					{Label: "Baseline", Set: Settings{Policy: ptr("baseline")}},
					{Label: "FlexVC", Set: Settings{Policy: ptr("flexvc")}},
				}},
				{Name: "vcs", Values: []VariantSpec{
					{Label: "2/1", Set: Settings{VCs: ptr("2/1")}},
					{Label: "4/2", Set: Settings{VCs: ptr("4/2")}},
					{Label: "8/4", Set: Settings{VCs: ptr("8/4")}},
				}},
			},
		}},
	}
	sections, err := c.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if len(sections) != 1 {
		t.Fatalf("got %d sections", len(sections))
	}
	wantLabels := []string{
		"Baseline 2/1", "Baseline 4/2", "Baseline 8/4",
		"FlexVC 2/1", "FlexVC 4/2", "FlexVC 8/4",
	}
	sec := sections[0]
	if len(sec.Variants) != len(wantLabels) {
		t.Fatalf("cross product yielded %d variants, want %d", len(sec.Variants), len(wantLabels))
	}
	for i, v := range sec.Variants {
		if v.Label != wantLabels[i] {
			t.Errorf("variant %d label %q, want %q", i, v.Label, wantLabels[i])
		}
	}
	cfg := config.Small()
	sec.Variants[5].Apply(&cfg)
	if cfg.Traffic != config.TrafficUniform || cfg.Routing != routing.MIN {
		t.Errorf("base settings not applied: traffic=%v routing=%v", cfg.Traffic, cfg.Routing)
	}
	if cfg.Scheme.Policy != core.FlexVC || cfg.Scheme.VCs != core.SingleClass(8, 4) {
		t.Errorf("axis settings not applied: %+v", cfg.Scheme)
	}
}

// TestSettingsLayering checks that later layers override earlier ones and
// untouched fields keep the base configuration's values.
func TestSettingsLayering(t *testing.T) {
	c := &Campaign{
		Name: "layer",
		Base: &Settings{Buffers: ptr("damq"), DAMQPrivate: ptr(0.5)},
		Sections: []SectionSpec{{
			Title: "panel",
			Base:  &Settings{DAMQPrivate: ptr(0.25)},
			Loads: []float64{0.2},
			Variants: []VariantSpec{
				{Label: "inherit", Set: Settings{}},
				{Label: "override", Set: Settings{Buffers: ptr("static"), MinCred: ptr(true)}},
			},
		}},
	}
	sections, err := c.Compile()
	if err != nil {
		t.Fatal(err)
	}
	base := config.Small()
	inherit, override := base, base
	sections[0].Variants[0].Apply(&inherit)
	sections[0].Variants[1].Apply(&override)
	if inherit.BufferOrg != buffer.DAMQ || inherit.DAMQPrivateFraction != 0.25 {
		t.Errorf("inherit variant: %v %v, want damq 0.25 (section base over campaign base)", inherit.BufferOrg, inherit.DAMQPrivateFraction)
	}
	if override.BufferOrg != buffer.Static || !override.Scheme.MinCred {
		t.Errorf("override variant: %v mincred=%v, want static buffers with minCred", override.BufferOrg, override.Scheme.MinCred)
	}
	if inherit.PacketSize != base.PacketSize || inherit.Scheme.Selection != base.Scheme.Selection {
		t.Error("untouched fields must keep the base configuration's values")
	}
}

// TestScenarioSectionDefaults checks that a scenario section defaults its
// loads to the scenario's peak load (ramp endpoints included) and never
// inherits campaign-level default loads, which would sweep the identical
// scenario once per load.
func TestScenarioSectionDefaults(t *testing.T) {
	spec := `{
	  "name": "ramped",
	  "loads": [0.1, 0.2, 0.3],
	  "sections": [{
	    "title": "ramp panel",
	    "variants": [{"label": "v", "set": {}}],
	    "scenario": {
	      "name": "ramp", "window": 500,
	      "phases": [
	        {"pattern": "uniform", "load": 0.1, "cycles": 2000},
	        {"pattern": "uniform", "load": 0.1, "load_end": 0.45, "cycles": 2000}
	      ]
	    }
	  }]
	}`
	c, err := Parse([]byte(spec))
	if err != nil {
		t.Fatal(err)
	}
	sections, err := c.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if len(sections[0].Loads) != 1 || sections[0].Loads[0] != 0.45 {
		t.Errorf("scenario section loads = %v, want [0.45] (the ramp peak)", sections[0].Loads)
	}
	if sections[0].Scenario == nil || len(sections[0].Scenario.Phases) != 2 {
		t.Errorf("scenario not carried through compilation: %+v", sections[0].Scenario)
	}
}

// TestBuiltinSpecs ensures every embedded spec parses, has a self-consistent
// name, and compiles at every scale into point configurations that pass
// config.Validate — so `figures run -campaign <name> -scale <any>` never
// fails on a spec the repository ships.
func TestBuiltinSpecs(t *testing.T) {
	names := BuiltinNames()
	if len(names) == 0 {
		t.Fatal("no embedded specs")
	}
	for _, name := range names {
		c, err := Builtin(name)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if c.Name != name {
			t.Errorf("embedded spec %s declares name %q; file name and spec name must agree", name, c.Name)
		}
		for _, scale := range config.ScaleNames() {
			if _, err := Keys(c, sweep.Options{Scale: scale, Seeds: 1}); err != nil {
				t.Errorf("%s at scale %s: %v", name, scale, err)
			}
		}
	}
	if _, err := Builtin("no-such-spec"); err == nil {
		t.Error("unknown embedded spec did not error")
	}
}

// TestRunValidatesBeforeSimulating: a spec that parses but cannot run — a
// later section routing VAL on a baseline VC set too small for it, a variant
// with more VCs on a port than a router holds — fails Run before the first
// replication is simulated, so the results store holds no record.
func TestRunValidatesBeforeSimulating(t *testing.T) {
	for _, tc := range []struct {
		name, spec, want string
	}{
		{"later invalid section", `{
		  "name": "twosec", "loads": [0.2],
		  "sections": [
		    {"title": "ok", "base": {"traffic": "un", "routing": "min"},
		     "variants": [{"label": "Baseline 2/1", "set": {"policy": "baseline", "vcs": "2/1"}}]},
		    {"title": "bad", "base": {"traffic": "un", "routing": "val"},
		     "variants": [{"label": "Baseline 2/1", "set": {"policy": "baseline", "vcs": "2/1"}}]}
		  ]
		}`, "cannot support val routing"},
		{"too many VCs on a port", `{
		  "name": "wide", "loads": [0.2],
		  "sections": [
		    {"title": "UN", "base": {"traffic": "un", "routing": "min"},
		     "variants": [
		       {"label": "Baseline 2/1", "set": {"policy": "baseline", "vcs": "2/1"}},
		       {"label": "FlexVC 66/1", "set": {"policy": "flexvc", "vcs": "66/1"}}
		     ]}
		  ]
		}`, "more than the 64"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, err := Parse([]byte(tc.spec))
			if err != nil {
				t.Fatal(err)
			}
			store, err := results.Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			_, err = Run(c, sweep.Options{Scale: "tiny", Quick: true, Results: store})
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Run error = %v, want one mentioning %q", err, tc.want)
			}
			if n := store.Len(); n != 0 {
				t.Errorf("the store holds %d records; Run simulated before it validated", n)
			}
		})
	}
}

// TestResolve exercises the path-vs-embedded dispatch.
func TestResolve(t *testing.T) {
	if c, err := Resolve("smoke"); err != nil || c.Name != "smoke" {
		t.Errorf("Resolve(smoke) = %v, %v", c, err)
	}
	if c, err := Resolve(filepath.Join("specs", "smoke.json")); err != nil || c.Name != "smoke" {
		t.Errorf("Resolve(specs/smoke.json) = %v, %v", c, err)
	}
	if _, err := Resolve("no/such/file.json"); err == nil || !strings.Contains(err.Error(), "does not exist") {
		t.Errorf("Resolve(missing path) err = %v", err)
	}
}
