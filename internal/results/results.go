// Package results is the durable, machine-readable output layer of the
// experiment harness: a versioned JSON schema for sweep results, an on-disk
// checkpoint store with a self-healing manifest, and deterministic export
// files that cmd/figures renders into EXPERIMENTS.md without re-simulating.
//
// The unit of persistence is the Record: one completed replication of one
// (experiment, section, variant, offered load, seed). Records are written
// atomically as they finish, so a sweep killed mid-run loses at most the
// replications that were still in flight; re-running against the same
// directory skips everything already recorded (matched by key and config
// fingerprint) and the exported results file is bit-identical to the one an
// uninterrupted run produces. Wall-clock timings are deliberately kept out of
// Record and export files — they live only in the manifest — because they are
// the one quantity that legitimately differs between a resumed and an
// uninterrupted run.
package results

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"syscall"

	"flexvc/internal/config"
	"flexvc/internal/stats"
)

// SchemaVersion is the version of the on-disk JSON schema. Writers always
// stamp the current version; readers accept [MinReadSchema, SchemaVersion]
// and reject anything else instead of guessing.
//
// History:
//
//	v1 — initial schema (PR 3).
//	v2 — additive: stats.Result gained the optional windowed time series
//	     (`time_series`) of scenario-driven transient runs. v1 files decode
//	     cleanly (the field is simply absent), so MinReadSchema stays 1.
const SchemaVersion = 2

// MinReadSchema is the oldest schema version this build still reads.
const MinReadSchema = 1

// Key identifies one replication of one sweep point. Seed is the replication
// index (0-based); the PRNG seed actually used is derived from it (see
// sim.ReplicationSeed) and recorded alongside.
type Key struct {
	Experiment string  `json:"experiment"`
	Section    string  `json:"section"`
	Variant    string  `json:"variant"`
	Load       float64 `json:"load"`
	Seed       int     `json:"seed"`
}

// Record is one completed replication: the key, enough provenance to detect
// staleness (config fingerprint, scale, derived PRNG seed), the ordinals that
// reproduce the original section/variant/point ordering at render time, and
// the full measured result including the serialized latency histogram (whose
// percentiles carry stats.PercentileErrorBound relative error).
type Record struct {
	Schema       int          `json:"schema"`
	Experiment   string       `json:"experiment"`
	Section      string       `json:"section"`
	SectionIndex int          `json:"section_index"`
	Variant      string       `json:"variant"`
	VariantIndex int          `json:"variant_index"`
	PointIndex   int          `json:"point_index"`
	Scale        string       `json:"scale"`
	Load         float64      `json:"load"`
	Seed         int          `json:"seed"`
	SimSeed      int64        `json:"sim_seed"`
	Fingerprint  string       `json:"fingerprint"`
	Result       stats.Result `json:"result"`
}

// Key returns the record's identity.
func (r Record) Key() Key {
	return Key{Experiment: r.Experiment, Section: r.Section, Variant: r.Variant, Load: r.Load, Seed: r.Seed}
}

// Validate checks a record for schema and internal consistency.
func (r Record) Validate() error {
	if r.Schema < MinReadSchema || r.Schema > SchemaVersion {
		return fmt.Errorf("results: record schema v%d, this build reads v%d..v%d", r.Schema, MinReadSchema, SchemaVersion)
	}
	if r.Experiment == "" || r.Variant == "" {
		return fmt.Errorf("results: record missing experiment or variant")
	}
	if r.Fingerprint == "" {
		return fmt.Errorf("results: record missing config fingerprint")
	}
	if r.Seed < 0 || r.SectionIndex < 0 || r.VariantIndex < 0 || r.PointIndex < 0 {
		return fmt.Errorf("results: record has negative ordinal")
	}
	if r.Result.Series != nil {
		if err := r.Result.Series.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// Fingerprint returns a short stable hash of the complete simulator
// configuration. Two records with equal keys but different fingerprints come
// from different configurations (changed scale parameters, VC arrangement,
// …); the store treats such records as stale and re-runs them.
func Fingerprint(cfg config.Config) string {
	// config.Config is plain data; JSON field order follows the struct
	// declaration, so the encoding — and the hash — is deterministic.
	b, err := json.Marshal(cfg)
	if err != nil {
		// Unreachable for a plain-data struct; fail loudly rather than
		// silently producing colliding fingerprints.
		panic(fmt.Sprintf("results: config not serializable: %v", err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// File is the deterministic export of one experiment's records: what
// `figures run` writes next to the checkpoint store and `figures render`
// consumes. Records are sorted by (SectionIndex, VariantIndex, PointIndex,
// Seed), so the bytes depend only on the simulation outcomes — not on
// completion order, parallelism, or how many times the sweep was resumed.
type File struct {
	Schema     int      `json:"schema"`
	Experiment string   `json:"experiment"`
	Title      string   `json:"title,omitempty"`
	Scale      string   `json:"scale,omitempty"`
	Seeds      int      `json:"seeds,omitempty"`
	Revision   string   `json:"revision,omitempty"`
	Records    []Record `json:"records"`
}

// LoadFile reads and validates an exported results file.
func LoadFile(path string) (*File, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f File
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("results: %s: %w", path, err)
	}
	if f.Schema < MinReadSchema || f.Schema > SchemaVersion {
		return nil, fmt.Errorf("results: %s: schema v%d, this build reads v%d..v%d", path, f.Schema, MinReadSchema, SchemaVersion)
	}
	for i, r := range f.Records {
		if err := r.Validate(); err != nil {
			return nil, fmt.Errorf("results: %s: record %d: %w", path, i, err)
		}
	}
	return &f, nil
}

// tmpSeq disambiguates temporary file names created by concurrent writers in
// the same process; the pid in the name separates processes.
var tmpSeq atomic.Uint64

// createTempFile creates a uniquely-named temporary file next to path with
// mode 0644 (before umask). os.CreateTemp is deliberately not used: it hard-
// codes mode 0600, which would make records written by one user unreadable
// to anyone else reading the results directory.
func createTempFile(path string) (*os.File, error) {
	dir, base := filepath.Dir(path), filepath.Base(path)
	for {
		name := filepath.Join(dir, fmt.Sprintf(".tmp-%s-%d-%d", base, os.Getpid(), tmpSeq.Add(1)))
		f, err := os.OpenFile(name, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
		if os.IsExist(err) {
			continue
		}
		return f, err
	}
}

// writeFileAtomic writes data to path via a temporary file and rename, so a
// crash mid-write never leaves a torn file under the final name. The
// temporary file is fsynced before the rename and the directory after it:
// rename alone orders nothing on most filesystems, so without the syncs a
// power loss shortly after could surface a zero-length or torn file under
// the *final* name — exactly the durability Put promises callers.
func writeFileAtomic(path string, data []byte) error {
	tmp, err := createTempFile(path)
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	return syncDir(filepath.Dir(path))
}

// syncDir fsyncs a directory so a just-renamed entry survives power loss.
// Filesystems that reject directory fsync (some network mounts) degrade to
// the old rename-only behaviour instead of failing the write.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Sync(); err != nil && !errors.Is(err, syscall.EINVAL) && !errors.Is(err, syscall.ENOTSUP) {
		return err
	}
	return nil
}

// sanitize maps an arbitrary label to a filesystem-safe slug.
func sanitize(s string) string {
	var b strings.Builder
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9':
			b.WriteRune(r)
		case r >= 'A' && r <= 'Z':
			b.WriteRune(r - 'A' + 'a')
		default:
			b.WriteByte('-')
		}
	}
	return strings.Trim(b.String(), "-")
}

// keyHash returns a short collision-resistant hash of a key.
func keyHash(k Key) string {
	b, err := json.Marshal(k)
	if err != nil {
		panic(fmt.Sprintf("results: key not serializable: %v", err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}
