// Package verify turns reproducibility itself into data: a manifest under
// experiments/ describes every recorded campaign — which spec to re-run, at
// which scale and seed count, and the exact sha256 digests of the committed
// export and rendered report — and Check re-runs each entry through the
// checkpointed runner into a scratch results directory and byte-compares what
// comes out against what is committed.
//
// The byte-identity contract this package enforces has three layers:
//
//  1. Integrity: the committed artefacts still hash to the digests pinned in
//     the manifest. A mismatch means the recorded files were corrupted or
//     edited without updating the manifest (`figures check -update` refreshes
//     the digests deliberately).
//  2. Key space: the spec, compiled at the entry's scale and seeds without
//     simulating, lists exactly the recorded export's replications — same
//     results keys, same config fingerprints. It costs milliseconds, so it
//     also guards entries whose re-run -max-wall skips.
//  3. Reproducibility: a fresh simulation of the entry — same spec, same
//     scale, same seeds — exports byte-for-byte the committed results file,
//     and rendering those results reproduces the committed report. The
//     results layer is built for exactly this (deterministic exports, wall
//     times kept out of result files); the one legitimately run-dependent
//     header field, the source revision, is pinned from the recorded export
//     before comparing.
//
// Every entry yields a structured PASS/FAIL/SKIP Result; on mismatch the
// first diverging line of the artefact is reported so a drifted metric is
// identified from the failure message alone.
package verify

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"flexvc/internal/campaign"
	"flexvc/internal/config"
)

// ManifestSchema is the version of the experiments-manifest JSON schema.
const ManifestSchema = 1

// Manifest is the experiments/manifest.json file: the complete list of
// recorded artefacts the repository promises to keep byte-reproducible.
type Manifest struct {
	Schema  int     `json:"schema"`
	Entries []Entry `json:"entries"`

	// dir is the directory the manifest was loaded from; every FileRef and
	// campaign spec path resolves relative to it.
	dir string
}

// Entry describes one recorded campaign.
type Entry struct {
	// ID is the entry's stable identity (by convention the directory name
	// under experiments/); `figures check <id>` selects it.
	ID string `json:"id"`
	// Kind is "campaign", the one kind of recorded experiment.
	Kind string `json:"kind"`
	// Campaign locates the campaign spec: a path relative to the manifest
	// directory (it contains a '/' or a '.'), or the name of an embedded spec.
	Campaign string `json:"campaign,omitempty"`
	// Scale and Seeds pin the run parameters; zero values use the spec's
	// defaults.
	Scale string `json:"scale,omitempty"`
	Seeds int    `json:"seeds,omitempty"`
	// Quick records whether the artefacts were produced with quick-mode
	// sweep trimming (they rarely are; the verifier must match either way).
	Quick bool `json:"quick,omitempty"`
	// Export and Report pin the committed artefacts by path and digest.
	Export FileRef `json:"export"`
	Report FileRef `json:"report"`
	// ApproxWallS is the entry's approximate re-run wall cost in seconds on
	// one fast core — what `figures check -max-wall` budgets against.
	ApproxWallS float64 `json:"approx_wall_s,omitempty"`
	// Notes is free-form provenance for humans reading the manifest.
	Notes string `json:"notes,omitempty"`
}

// FileRef pins one committed artefact: a slash-separated path relative to the
// manifest's directory plus the full sha256 of its bytes.
type FileRef struct {
	Path   string `json:"path"`
	SHA256 string `json:"sha256"`
}

// ParseManifest decodes and validates a manifest. Unknown fields are rejected
// so a typo in a hand-edited manifest fails loudly instead of silently
// weakening the check.
func ParseManifest(data []byte) (*Manifest, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var m Manifest
	if err := dec.Decode(&m); err != nil {
		return nil, fmt.Errorf("verify: manifest: %w", err)
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return &m, nil
}

// LoadManifest reads and validates a manifest file; entry paths resolve
// relative to the file's directory.
func LoadManifest(path string) (*Manifest, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	m, err := ParseManifest(b)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	m.dir = filepath.Dir(path)
	return m, nil
}

// Dir returns the directory entry paths resolve against.
func (m *Manifest) Dir() string { return m.dir }

// SetDir overrides the path-resolution directory (for manifests built or
// parsed in memory rather than loaded from a file).
func (m *Manifest) SetDir(dir string) { m.dir = dir }

// IDs returns the entry ids in manifest order.
func (m *Manifest) IDs() []string {
	ids := make([]string, len(m.Entries))
	for i, e := range m.Entries {
		ids[i] = e.ID
	}
	return ids
}

// Entry returns the entry with the given id.
func (m *Manifest) Entry(id string) (Entry, bool) {
	for _, e := range m.Entries {
		if e.ID == id {
			return e, true
		}
	}
	return Entry{}, false
}

// Validate checks the manifest for structural consistency: schema version,
// unique slug ids, a runnable target per entry (an embedded spec that exists,
// or a spec path; a known scale; non-negative seeds), and well-formed artefact
// references. It is file-system independent — missing artefacts and spec
// files surface as FAIL results at check time, not here.
func (m *Manifest) Validate() error {
	if m.Schema != ManifestSchema {
		return fmt.Errorf("verify: manifest schema v%d, this build reads v%d", m.Schema, ManifestSchema)
	}
	if len(m.Entries) == 0 {
		return fmt.Errorf("verify: manifest has no entries")
	}
	seen := map[string]bool{}
	for i, e := range m.Entries {
		ctx := fmt.Sprintf("verify: manifest entry %d (%q)", i, e.ID)
		if !slugOK(e.ID) {
			return fmt.Errorf("verify: manifest entry %d: id %q must be a non-empty lowercase slug ([a-z0-9-])", i, e.ID)
		}
		if seen[e.ID] {
			return fmt.Errorf("%s: duplicate id", ctx)
		}
		seen[e.ID] = true
		if e.Kind != "campaign" {
			return fmt.Errorf("%s: kind %q, want \"campaign\" (every recorded experiment is a campaign spec)", ctx, e.Kind)
		}
		if e.Campaign == "" {
			return fmt.Errorf("%s: kind campaign needs `campaign` set", ctx)
		}
		if !isSpecPath(e.Campaign) {
			if _, err := campaign.Builtin(e.Campaign); err != nil {
				return fmt.Errorf("%s: %w", ctx, err)
			}
		}
		if e.Scale != "" {
			if _, err := config.AtScale(e.Scale); err != nil {
				return fmt.Errorf("%s: %w", ctx, err)
			}
		}
		if e.Seeds < 0 {
			return fmt.Errorf("%s: seeds must be non-negative (0 uses the spec's default), got %d", ctx, e.Seeds)
		}
		if err := e.Export.validate(ctx + ": export"); err != nil {
			return err
		}
		if err := e.Report.validate(ctx + ": report"); err != nil {
			return err
		}
		if e.ApproxWallS < 0 {
			return fmt.Errorf("%s: approx_wall_s must be non-negative, got %g", ctx, e.ApproxWallS)
		}
	}
	return nil
}

func (f FileRef) validate(ctx string) error {
	if f.Path == "" {
		return fmt.Errorf("%s: missing path", ctx)
	}
	if filepath.IsAbs(f.Path) || f.Path != filepath.ToSlash(filepath.Clean(f.Path)) || strings.HasPrefix(f.Path, "..") {
		return fmt.Errorf("%s: path %q must be a clean slash-separated path relative to the manifest directory", ctx, f.Path)
	}
	if f.SHA256 != "" && !shaOK(f.SHA256) {
		return fmt.Errorf("%s: sha256 %q must be 64 lowercase hex digits (or empty until `figures check -update` pins it)", ctx, f.SHA256)
	}
	return nil
}

// isSpecPath reports whether a campaign reference names a spec file rather
// than an embedded spec: embedded names are slugs, with no '/' or '.'.
func isSpecPath(ref string) bool {
	return strings.ContainsAny(ref, "/\\.")
}

func slugOK(id string) bool {
	if id == "" {
		return false
	}
	for _, r := range id {
		if (r < 'a' || r > 'z') && (r < '0' || r > '9') && r != '-' {
			return false
		}
	}
	return id[0] != '-' && id[len(id)-1] != '-'
}

func shaOK(s string) bool {
	if len(s) != 64 {
		return false
	}
	for _, r := range s {
		if (r < '0' || r > '9') && (r < 'a' || r > 'f') {
			return false
		}
	}
	return true
}

// path resolves an artefact reference against the manifest directory.
func (m *Manifest) path(f FileRef) string {
	return filepath.Join(m.dir, filepath.FromSlash(f.Path))
}

// Write atomically is not needed here — the manifest is a committed source
// file, not runtime state — but a trailing newline keeps it diff-friendly.
func (m *Manifest) Write(path string) error {
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
