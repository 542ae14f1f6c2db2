package results

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// Store is a results directory: one atomically-written JSON file per
// completed replication under records/, plus manifest.json summarizing what
// is present. The directory is the source of truth — Open rebuilds the
// in-memory index (and the manifest) by scanning records/, so a crash between
// a record write and a manifest write self-heals, and a deleted manifest is
// merely regenerated.
type Store struct {
	dir      string
	revision string

	mu   sync.Mutex
	recs map[Key]storedRecord
	// active marks the keys the current process has actually produced or
	// restored (see MarkActive). Exports restrict to active keys so records
	// left over from earlier runs with different parameters (more seeds, a
	// changed configuration at loads that were not overwritten) never leak
	// into a freshly exported results file — they stay on disk, though,
	// since they remain valid checkpoints for a future run that wants them.
	active map[Key]bool
	// manifestDirty tracks records added since the last manifest write (the
	// manifest is advisory — Open regenerates it from records/ — so it is
	// rewritten at most once per manifestEvery puts plus on Flush).
	manifestDirty int
	// metrics holds the observability handles (zero value: disabled). See
	// SetMetrics in metrics.go.
	metrics storeMetrics
}

type storedRecord struct {
	rec    Record
	file   string
	wallMS float64
}

// manifest is the on-disk summary. It exists for cheap inspection (what is
// done, how long it took) — resuming never trusts it over the record files.
type manifest struct {
	Schema   int             `json:"schema"`
	Revision string          `json:"revision,omitempty"`
	Entries  []manifestEntry `json:"entries"`
}

type manifestEntry struct {
	File        string  `json:"file"`
	Experiment  string  `json:"experiment"`
	Section     string  `json:"section"`
	Variant     string  `json:"variant"`
	Load        float64 `json:"load"`
	Seed        int     `json:"seed"`
	Fingerprint string  `json:"fingerprint"`
	WallMS      float64 `json:"wall_ms"`
}

const (
	recordsSubdir = "records"
	manifestName  = "manifest.json"
)

// Open opens (creating if necessary) a results directory and indexes every
// readable record in it. Unreadable or torn files — crash leftovers — are
// skipped: their keys simply count as not done and will be re-simulated.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(filepath.Join(dir, recordsSubdir), 0o755); err != nil {
		return nil, err
	}
	s := &Store{dir: dir, recs: make(map[Key]storedRecord), active: make(map[Key]bool)}

	// Wall times live only in the manifest; carry them over where the entry
	// still matches an on-disk record.
	wall := map[string]float64{}
	if b, err := os.ReadFile(filepath.Join(dir, manifestName)); err == nil {
		var m manifest
		if json.Unmarshal(b, &m) == nil && m.Schema == SchemaVersion {
			s.revision = m.Revision
			for _, e := range m.Entries {
				wall[e.File] = e.WallMS
			}
		}
	}

	entries, err := os.ReadDir(filepath.Join(dir, recordsSubdir))
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".json") {
			continue
		}
		b, err := os.ReadFile(filepath.Join(dir, recordsSubdir, name))
		if err != nil {
			continue
		}
		var rec Record
		if err := json.Unmarshal(b, &rec); err != nil || rec.Validate() != nil {
			continue
		}
		s.recs[rec.Key()] = storedRecord{rec: rec, file: name, wallMS: wall[name]}
	}
	if err := s.writeManifest(); err != nil {
		return nil, err
	}
	return s, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// SetRevision records the source revision the results were produced from; it
// is stamped into the manifest and every export.
func (s *Store) SetRevision(rev string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.revision = rev
	_ = s.writeManifest()
}

// Len returns the number of indexed records.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.recs)
}

// WallTotal returns the summed wall-clock time of every recorded replication
// (across all resumes — the cumulative compute invested in this directory).
func (s *Store) WallTotal() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	var ms float64
	for _, sr := range s.recs {
		ms += sr.wallMS
	}
	return time.Duration(ms * float64(time.Millisecond))
}

// Get returns the stored record for key if present with a matching config
// fingerprint. A fingerprint mismatch means the configuration behind the key
// changed since the record was written; the record is stale and Get misses.
// A hit marks the key active (it is part of the current run).
func (s *Store) Get(key Key, fingerprint string) (Record, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sr, ok := s.recs[key]
	if !ok || sr.rec.Fingerprint != fingerprint {
		return Record{}, false
	}
	s.active[key] = true
	return sr.rec, true
}

// Put checkpoints one completed replication: the record file is written
// atomically (same key always maps to the same file name, so stale records
// are overwritten in place), then the manifest is refreshed. After Put
// returns, a crash cannot lose the replication.
func (s *Store) Put(rec Record, wall time.Duration) error {
	if h := s.metrics.putLatency; h != nil {
		defer h.Since(time.Now())
	}
	rec.Schema = SchemaVersion
	if err := rec.Validate(); err != nil {
		return err
	}
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	name := recordFileName(rec.Key())
	if err := writeFileAtomic(filepath.Join(s.dir, recordsSubdir, name), append(b, '\n')); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.recs[rec.Key()] = storedRecord{rec: rec, file: name, wallMS: float64(wall) / float64(time.Millisecond)}
	s.active[rec.Key()] = true
	s.metrics.records.Set(int64(len(s.recs)))
	// The record file above is the durable checkpoint; the manifest is a
	// regenerable summary, so amortize its O(records) rewrite instead of
	// paying it (under the lock) for every replication of a large sweep.
	s.manifestDirty++
	if s.manifestDirty < manifestEvery {
		return nil
	}
	return s.writeManifest()
}

// manifestEvery bounds how many Puts may pass between manifest rewrites.
const manifestEvery = 25

// Flush rewrites the manifest if Puts have accumulated since the last write.
// Callers that want the manifest exactly current (end of a run, before
// inspecting the directory) call it; a crash beforehand loses nothing but
// the wall-time annotations of the unflushed records, since Open rebuilds
// the manifest from the record files.
func (s *Store) Flush() error {
	if h := s.metrics.flushLatency; h != nil {
		defer h.Since(time.Now())
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.manifestDirty == 0 {
		return nil
	}
	return s.writeManifest()
}

// recordFileName derives the record's file name from its key alone — stable
// across runs and across processes, so re-running a point overwrites rather
// than accumulates, and any key's record can be located without an index.
func recordFileName(k Key) string {
	slug := sanitize(k.Experiment)
	if slug == "" {
		slug = "exp"
	}
	return fmt.Sprintf("%s-%s.json", slug, keyHash(k))
}

// writeManifest rewrites manifest.json atomically. Callers hold s.mu.
func (s *Store) writeManifest() error {
	m := manifest{Schema: SchemaVersion, Revision: s.revision}
	for _, sr := range s.recs {
		m.Entries = append(m.Entries, manifestEntry{
			File:        sr.file,
			Experiment:  sr.rec.Experiment,
			Section:     sr.rec.Section,
			Variant:     sr.rec.Variant,
			Load:        sr.rec.Load,
			Seed:        sr.rec.Seed,
			Fingerprint: sr.rec.Fingerprint,
			WallMS:      sr.wallMS,
		})
	}
	sort.Slice(m.Entries, func(i, j int) bool { return m.Entries[i].File < m.Entries[j].File })
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	if err := writeFileAtomic(filepath.Join(s.dir, manifestName), append(b, '\n')); err != nil {
		return err
	}
	s.manifestDirty = 0
	return nil
}

// Export collects the experiment's records into a deterministic File: sorted
// by the original (section, variant, point, seed) ordinals, with labels as
// tie-breakers so the order is total even across schema misuse.
//
// When the current process has run (or restored) any replication of the
// experiment, only those active keys are exported: records left on disk by
// earlier runs with different parameters never leak into the results file.
// Exporting from a directory this process has not simulated into (no active
// keys, e.g. a standalone re-export) includes everything.
func (s *Store) Export(experiment, title string) *File {
	s.mu.Lock()
	defer s.mu.Unlock()
	anyActive := false
	for key := range s.active {
		if key.Experiment == experiment {
			anyActive = true
			break
		}
	}
	f := &File{Schema: SchemaVersion, Experiment: experiment, Title: title, Revision: s.revision}
	for key, sr := range s.recs {
		if sr.rec.Experiment != experiment {
			continue
		}
		if anyActive && !s.active[key] {
			continue
		}
		f.Records = append(f.Records, sr.rec)
	}
	sort.Slice(f.Records, func(i, j int) bool {
		a, b := f.Records[i], f.Records[j]
		if a.SectionIndex != b.SectionIndex {
			return a.SectionIndex < b.SectionIndex
		}
		if a.Section != b.Section {
			return a.Section < b.Section
		}
		if a.VariantIndex != b.VariantIndex {
			return a.VariantIndex < b.VariantIndex
		}
		if a.Variant != b.Variant {
			return a.Variant < b.Variant
		}
		if a.PointIndex != b.PointIndex {
			return a.PointIndex < b.PointIndex
		}
		if a.Load != b.Load {
			return a.Load < b.Load
		}
		return a.Seed < b.Seed
	})
	for _, r := range f.Records {
		if f.Scale == "" {
			f.Scale = r.Scale
		}
		if r.Seed+1 > f.Seeds {
			f.Seeds = r.Seed + 1
		}
	}
	return f
}

// WriteExport writes the experiment's export file atomically and returns its
// path: <dir>/<experiment>.results.json. Records are one line each — compact
// enough to check reference runs into the repository, with line-oriented
// diffs per replication.
func (s *Store) WriteExport(experiment, title string) (string, error) {
	f := s.Export(experiment, title)
	head, err := json.Marshal(struct {
		Schema     int    `json:"schema"`
		Experiment string `json:"experiment"`
		Title      string `json:"title,omitempty"`
		Scale      string `json:"scale,omitempty"`
		Seeds      int    `json:"seeds,omitempty"`
		Revision   string `json:"revision,omitempty"`
	}{f.Schema, f.Experiment, f.Title, f.Scale, f.Seeds, f.Revision})
	if err != nil {
		return "", err
	}
	var buf []byte
	buf = append(buf, head[:len(head)-1]...) // strip the closing brace
	buf = append(buf, []byte(",\"records\":[\n")...)
	for i, r := range f.Records {
		line, err := json.Marshal(r)
		if err != nil {
			return "", err
		}
		if i > 0 {
			buf = append(buf, ',', '\n')
		}
		buf = append(buf, line...)
	}
	buf = append(buf, []byte("\n]}\n")...)
	path := filepath.Join(s.dir, sanitize(experiment)+".results.json")
	if err := writeFileAtomic(path, buf); err != nil {
		return "", err
	}
	// An export marks the end of a run; bring the manifest current too.
	return path, s.Flush()
}
