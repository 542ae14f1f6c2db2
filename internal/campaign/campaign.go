// Package campaign turns experiments into data: a Campaign is a declarative
// JSON description of a complete experiment — a base configuration, named
// variant axes over the simulator's enumerable knobs (VC-management policy,
// VC arrangement, selection function, routing, traffic, buffer organisation,
// …), offered-load sweep points, seeds, a scale, and optionally a phased
// scenario — that compiles into the sweep layer's variant lists and runs
// through its checkpointed runner, so a campaign resumes, exports results
// JSON and renders from its export.
//
// A spec is the only way to define a simulated experiment. The paper's
// Figures 5-11 and the transient experiment are the embedded specs under
// specs/; fig6, fig11 and transient write their per-VC buffer capacities and
// scenario phases as concrete small-scale values (tiny shares small's
// buffers), so another scale needs its own spec file. A new workload
// comparison is a spec file, not Go code.
//
// # Spec layout
//
// A campaign has a name (the experiment id in results keys and export file
// names), optional defaults (scale, seeds, loads, base settings, axes) and a
// list of sections — the panels of the rendered figure. Each section names
// its title, optional setting overrides, its loads (or a scenario whose peak
// load is used) and its variants, given either explicitly or as the
// cross-product of named axes. Every enumerable value is written in the same
// textual vocabulary the CLIs use ("flexvc", "4/2+2/1", "pb", "damq", …) and
// is parsed fail-fast at load time: unknown fields, unknown enum values and
// out-of-range parameters are rejected with messages naming the offending
// section, axis and field.
//
// # Determinism contract
//
// Compilation is pure: the same spec always yields the same section order,
// variant order and labels, and every setting maps onto config.Config fields
// that are covered by the results store's config fingerprint, so Keys can list
// every record a run will write without simulating. The embedded figure specs
// were ported from Go-coded runners that no longer exist;
// testdata/spec-keys.golden holds those runners' section titles, variant
// labels, loads and config fingerprints, and TestCampaignKeyStability holds
// the specs to them.
package campaign

import (
	"bytes"
	"embed"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"flexvc/internal/scenario"
)

// Campaign is the top level of a spec file. Fields set here are defaults for
// every section.
type Campaign struct {
	// Name is the experiment id: it keys every checkpoint and names the
	// results export (<name>.results.json), so it must be a lowercase slug.
	Name string `json:"name"`
	// Title is the human-readable experiment title, stamped into exports and
	// rendered report headers.
	Title string `json:"title,omitempty"`
	// Scale is the default system scale ("tiny", "small", "medium", "paper");
	// the run options' scale, when set, wins.
	Scale string `json:"scale,omitempty"`
	// Seeds is the default number of replications per point; the run
	// options' seed count, when set, wins.
	Seeds int `json:"seeds,omitempty"`
	// Base settings apply to every variant of every section, before section
	// and variant settings.
	Base *Settings `json:"base,omitempty"`
	// Loads is the default offered-load sweep for sections without their own.
	Loads []float64 `json:"loads,omitempty"`
	// Axes and Variants are the default variant definition for sections
	// without their own (exactly one of the two may be set).
	Axes     []Axis        `json:"axes,omitempty"`
	Variants []VariantSpec `json:"variants,omitempty"`
	// Sections are the experiment's panels, run serially in order.
	Sections []SectionSpec `json:"sections"`
	// Notes document the spec for its readers; no report renders them.
	Notes []string `json:"notes,omitempty"`
}

// SectionSpec is one panel of a campaign.
type SectionSpec struct {
	// Title names the section; it is part of every results key of the panel.
	Title string `json:"title"`
	// Base settings apply to every variant of this section, after the
	// campaign base and before variant settings.
	Base *Settings `json:"base,omitempty"`
	// Loads is the section's offered-load sweep. Defaults to the campaign
	// loads, or to the scenario's peak load when a scenario is set.
	Loads []float64 `json:"loads,omitempty"`
	// Axes and Variants define the panel's variants (exactly one of the two;
	// defaults to the campaign-level definition when both are absent). Axes
	// cross-product: one variant per combination of one value from each axis,
	// the first axis varying slowest, labels joined with a space.
	Axes     []Axis        `json:"axes,omitempty"`
	Variants []VariantSpec `json:"variants,omitempty"`
	// Scenario, when set, runs the panel as a phased transient workload
	// (windowed telemetry, adaptation lags) instead of a steady-state sweep.
	Scenario *scenario.Scenario `json:"scenario,omitempty"`
}

// Axis is one named dimension of a cross-product variant definition.
type Axis struct {
	// Name labels the axis in error messages.
	Name string `json:"name"`
	// Values are the axis' points.
	Values []VariantSpec `json:"values"`
}

// VariantSpec is one named settings bundle: a full variant when listed under
// "variants", one axis value when listed under an axis.
type VariantSpec struct {
	// Label is the variant's stable identity in results keys (axis values
	// contribute a space-joined fragment of it). Renaming a label orphans
	// recorded checkpoints, exactly like renaming a Go variant label.
	Label string `json:"label"`
	// Set holds the settings the variant applies.
	Set Settings `json:"set"`
}

// Parse decodes and validates a campaign spec from JSON. Unknown fields are
// rejected so typos in hand-written specs fail loudly instead of silently
// falling back to defaults.
func Parse(data []byte) (*Campaign, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var c Campaign
	if err := dec.Decode(&c); err != nil {
		return nil, fmt.Errorf("campaign: %w", err)
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return &c, nil
}

// Load reads and validates a campaign spec file.
func Load(path string) (*Campaign, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	c, err := Parse(b)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return c, nil
}

// nameOK reports whether a campaign name is a usable experiment slug: the
// export file is <name>.results.json, so the name must survive the results
// layer's sanitizer unchanged.
func nameOK(name string) bool {
	if name == "" {
		return false
	}
	for _, r := range name {
		if (r < 'a' || r > 'z') && (r < '0' || r > '9') && r != '-' {
			return false
		}
	}
	return name[0] != '-' && name[len(name)-1] != '-'
}

// Validate checks the spec for structural consistency and parses every
// setting, returning the first problem found with enough context to fix the
// JSON from the message alone. It is called by Parse; Compile revalidates, so
// programmatically built campaigns fail just as loudly.
func (c *Campaign) Validate() error {
	_, err := c.Compile()
	return err
}

// ReportTitle returns the campaign's display title (falling back to the
// name).
func (c *Campaign) ReportTitle() string {
	if c.Title != "" {
		return c.Title
	}
	return c.Name
}

// --- embedded specs ---------------------------------------------------------

//go:embed specs/*.json
var specFS embed.FS

// BuiltinNames lists the embedded campaign specs in sorted order.
func BuiltinNames() []string {
	entries, err := fs.ReadDir(specFS, "specs")
	if err != nil {
		return nil
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		names = append(names, strings.TrimSuffix(e.Name(), ".json"))
	}
	sort.Strings(names)
	return names
}

// Builtin returns the embedded campaign spec with the given name.
func Builtin(name string) (*Campaign, error) {
	b, err := specFS.ReadFile("specs/" + name + ".json")
	if err != nil {
		return nil, fmt.Errorf("campaign: no embedded spec %q (have: %s)", name, strings.Join(BuiltinNames(), ", "))
	}
	c, err := Parse(b)
	if err != nil {
		return nil, fmt.Errorf("embedded spec %s: %w", name, err)
	}
	return c, nil
}

// Resolve loads a campaign spec from a file path, or — when the argument
// names no existing file — from the embedded specs. This is what lets the
// CLIs accept both `-campaign fig5` and `-campaign my/spec.json`.
func Resolve(arg string) (*Campaign, error) {
	if _, err := os.Stat(arg); err == nil {
		return Load(arg)
	}
	if strings.ContainsAny(arg, "/\\.") {
		// Looks like a path: report the missing file, not a bogus
		// embedded-spec miss.
		return nil, fmt.Errorf("campaign: spec file %s does not exist", filepath.Clean(arg))
	}
	return Builtin(arg)
}
