// Package sweep is the execution layer under every simulated experiment: it
// runs the sections of one experiment — labelled variants swept over offered
// loads, several replications per point — through the process-wide worker
// budget, checkpoints every replication into a results store so interrupted
// runs resume, and renders recorded results as the markdown report
// (RenderResultsMarkdown) that `figures render` writes and `figures check`
// pins.
//
// The package defines no experiments. A simulated experiment is a campaign
// spec (internal/campaign), which compiles into the Variant lists a
// SectionRunner executes; the paper's Figures 5-11 are the embedded specs.
// Scales are config.AtScale's: "tiny", "small" (the default, a 36-router
// Dragonfly), "medium" (264 routers) and "paper" (the 2,064-router system of
// Table V); see EXPERIMENTS.md for how results carry across them.
package sweep

import (
	"fmt"
	"sync"
	"time"

	"flexvc/internal/config"
	"flexvc/internal/obs"
	"flexvc/internal/results"
	"flexvc/internal/sim"
	"flexvc/internal/stats"
)

// Point is the aggregated result of one configuration at one offered load.
type Point struct {
	Load   float64
	Result stats.Result
}

// Series is one labelled curve of a figure: a configuration swept over load.
type Series struct {
	Label  string
	Points []Point
}

// MaxAccepted returns the maximum accepted load over the series (the
// saturation throughput the paper's bar charts report).
func (s Series) MaxAccepted() float64 {
	best := 0.0
	for _, p := range s.Points {
		if p.Result.AcceptedLoad > best {
			best = p.Result.AcceptedLoad
		}
	}
	return best
}

// Options controls how experiments are executed.
type Options struct {
	// Scale selects the system size: "small", "medium" or "paper".
	Scale string
	// Seeds is the number of independent replications per point (the paper
	// uses 5).
	Seeds int
	// Quick halves the warm-up and measurement windows and trims every
	// section's load sweep to three points (first, middle, last) for smoke
	// runs. Scenario sections keep their phases: those are cycle counts of
	// their own.
	Quick bool
	// Results, when non-nil, turns the run into a checkpointed sweep: every
	// completed replication is persisted into the store as it finishes, and
	// replications already present (matched by key and config fingerprint)
	// are restored instead of re-simulated. A resumed sweep therefore skips
	// completed work and its exported results are bit-identical to an
	// uninterrupted run's.
	Results *results.Store
	// Progress, when non-nil, is invoked (serially) as replications finish
	// or are restored from the store.
	Progress func(Progress)
	// Metrics, when non-nil, receives the run's observability series: it is
	// stamped into every simulated configuration (config.Config.Metrics, the
	// sim-layer phase series) and feeds the sweep-layer counters
	// (replications simulated vs restored). It is an execution knob with no
	// effect on results — exports are byte-identical with metrics on or off.
	Metrics *obs.Registry

	// experiment and state are stamped by NewRunner so section sweeps know
	// which experiment they belong to and share progress accounting.
	experiment string
	state      *runState
}

// Progress is one progress event of a checkpointed experiment run.
// Replications are the unit of accounting: one (variant, load, seed)
// simulation. Total grows as the experiment's sections are discovered (an
// experiment runs its panels serially), so ETA is a lower bound until the
// last section has been scheduled.
type Progress struct {
	Experiment string
	Section    string
	// Done counts replications finished in this run; Skipped of them were
	// restored from the results store rather than simulated.
	Done, Skipped, Total int
	// Elapsed is the wall time since the run started, read from the
	// monotonic clock at event emission: it never decreases across the
	// events of one run, so consumers may difference consecutive events.
	Elapsed time.Duration
	// ETA extrapolates from the measured pace of fresh replications; it is
	// zero until one completes.
	ETA time.Duration
	// RecordsPerSec is the measured simulation throughput so far: fresh
	// (non-restored) replications per second of elapsed wall. Zero until the
	// first fresh replication completes.
	RecordsPerSec float64
	// Summary marks the final event of a run: emitted exactly once after the
	// last section settles, with the run totals (Done records, Skipped of
	// them restored, aggregate RecordsPerSec) and no Section/ETA.
	Summary bool
}

// runState is the per-Run accounting shared by every section of an
// experiment.
type runState struct {
	mu       sync.Mutex
	start    time.Time
	sections int
	total    int
	done     int
	skipped  int
}

func newRunState() *runState { return &runState{start: time.Now()} }

// nextSection assigns the next section ordinal and grows the replication
// total by the section's size.
func (st *runState) nextSection(count int) int {
	st.mu.Lock()
	defer st.mu.Unlock()
	idx := st.sections
	st.sections++
	st.total += count
	return idx
}

// note records one finished replication and emits a progress event. The
// callback runs under the state lock, so events are serialized; callbacks
// must be fast and must not re-enter the sweep.
func (st *runState) note(ck *ckpt, restored bool) {
	if restored {
		ck.metrics.restored.Inc()
	} else {
		ck.metrics.simulated.Inc()
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	st.done++
	if restored {
		st.skipped++
	}
	if ck.progress == nil {
		return
	}
	elapsed := time.Since(st.start)
	ev := Progress{
		Experiment: ck.experiment,
		Section:    ck.section,
		Done:       st.done,
		Skipped:    st.skipped,
		Total:      st.total,
		Elapsed:    elapsed,
	}
	if fresh := st.done - st.skipped; fresh > 0 {
		ev.ETA = elapsed / time.Duration(fresh) * time.Duration(st.total-st.done)
		if elapsed > 0 {
			ev.RecordsPerSec = float64(fresh) / elapsed.Seconds()
		}
	}
	ck.progress(ev)
}

// finish emits the run's final summary event (Progress.Summary): the total
// record count, how many were restored rather than simulated, and the
// aggregate simulation throughput. Runs with no progress callback skip it.
func (st *runState) finish(experiment string, progress func(Progress)) {
	if progress == nil {
		return
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	elapsed := time.Since(st.start)
	ev := Progress{
		Experiment: experiment,
		Done:       st.done,
		Skipped:    st.skipped,
		Total:      st.total,
		Elapsed:    elapsed,
		Summary:    true,
	}
	if fresh := st.done - st.skipped; fresh > 0 && elapsed > 0 {
		ev.RecordsPerSec = float64(fresh) / elapsed.Seconds()
	}
	progress(ev)
}

// BaseConfig returns the simulator configuration for the chosen scale.
func (o Options) BaseConfig() (config.Config, error) {
	cfg, err := config.AtScale(o.Scale)
	if err != nil {
		return config.Config{}, fmt.Errorf("sweep: %w", err)
	}
	if o.Quick {
		cfg.WarmupCycles /= 2
		cfg.MeasureCycles /= 2
	}
	cfg.Metrics = o.Metrics
	return cfg, nil
}

// loads returns the offered-load sweep points: the section's own, trimmed to
// three in quick mode.
func (o Options) loads(defaults []float64) []float64 {
	if o.Quick && len(defaults) > 3 {
		return []float64{defaults[0], defaults[len(defaults)/2], defaults[len(defaults)-1]}
	}
	return defaults
}

func (o Options) seeds() int {
	if o.Seeds < 1 {
		return 1
	}
	return o.Seeds
}

// Variant names one configuration of an experiment and how to derive it from
// the base configuration.
//
// Label is the variant's stable identity: it keys checkpoints in the results
// store and replications in exported results files, so it must be an explicit
// literal — never the output of an enum's fmt.Stringer, whose renaming would
// silently orphan every recorded checkpoint. Campaign specs write labels as
// JSON strings; TestCampaignKeyStability locks the embedded specs' down.
type Variant struct {
	Label string
	Apply func(*config.Config)
}

// job is one (variant, load) simulation to run.
type job struct {
	series int
	point  int
	label  string
	cfg    config.Config
}

// ckpt is the checkpointing context of one section sweep: where records go,
// how they are keyed and who hears about progress.
type ckpt struct {
	store        *results.Store // nil: nothing to checkpoint
	experiment   string
	section      string
	sectionIndex int
	scale        string
	progress     func(Progress)
	state        *runState
	metrics      sweepMetrics
}

// Sweep-layer metric names (see DESIGN.md "Observability").
const (
	// MetricReplicationsSimulated / MetricReplicationsRestored split every
	// settled replication of a checkpointed run by provenance.
	MetricReplicationsSimulated = "flexvc_sweep_replications_simulated_total"
	MetricReplicationsRestored  = "flexvc_sweep_replications_restored_total"
)

// sweepMetrics carries the sweep-layer handles. The zero value (all-nil
// handles) is the disabled state — every method on a nil obs handle no-ops —
// so call sites never branch.
type sweepMetrics struct {
	simulated *obs.Counter
	restored  *obs.Counter
}

func newSweepMetrics(reg *obs.Registry) sweepMetrics {
	if reg == nil {
		return sweepMetrics{}
	}
	return sweepMetrics{
		simulated: reg.Counter(MetricReplicationsSimulated),
		restored:  reg.Counter(MetricReplicationsRestored),
	}
}

// expand lays out the series of a sweep and the (variant, load) jobs that
// fill them, validating every point configuration before anything runs.
func expand(base config.Config, variants []Variant, loads []float64) ([]Series, []job, error) {
	series := make([]Series, len(variants))
	jobs := make([]job, 0, len(variants)*len(loads))
	for si, v := range variants {
		series[si].Label = v.Label
		series[si].Points = make([]Point, len(loads))
		for pi, load := range loads {
			cfg := base
			v.Apply(&cfg)
			cfg.Load = load
			if err := cfg.Validate(); err != nil {
				return nil, nil, fmt.Errorf("sweep: variant %q at load %.2f: %w", v.Label, load, err)
			}
			series[si].Points[pi].Load = load
			jobs = append(jobs, job{series: si, point: pi, label: v.Label, cfg: cfg})
		}
	}
	return series, jobs, nil
}

// runSweep is the scheduling core behind the section runner. It first
// restores every replication the results store already holds (same key, same
// config fingerprint; a nil store holds nothing), then hands the missing ones,
// in job order, to sim.RunReplications, which runs them on the worker budget.
// The worker that finishes a replication checkpoints it before it takes
// another, so a failed checkpoint stops the sweep after the replications in
// flight. Each point aggregates its replications in replication order, so it
// is bit-identical to the same replications run serially, whatever the worker
// count and whatever mix of them was restored.
func runSweep(base config.Config, variants []Variant, loads []float64, seeds int, ck *ckpt) ([]Series, error) {
	series, jobs, err := expand(base, variants, loads)
	if err != nil {
		return nil, err
	}
	// per[ji*seeds+s] is replication s of jobs[ji]; missing[i] is the
	// simulated replication per[slot[i]].
	per := make([]stats.Result, len(jobs)*seeds)
	fps := make([]string, len(jobs))
	var (
		missing []sim.Replication
		slot    []int
	)
	for ji := range jobs {
		j := &jobs[ji]
		fps[ji] = ck.fingerprint(j.cfg)
		for s := 0; s < seeds; s++ {
			if ck.store != nil {
				key := results.Key{Experiment: ck.experiment, Section: ck.section, Variant: j.label, Load: j.cfg.Load, Seed: s}
				if rec, ok := ck.store.Get(key, fps[ji]); ok {
					per[ji*seeds+s] = rec.Result
					ck.state.note(ck, true)
					continue
				}
			}
			missing = append(missing, sim.Replication{Config: j.cfg, Seed: s})
			slot = append(slot, ji*seeds+s)
		}
	}
	err = sim.RunReplications(missing, func(i int, r stats.Result, wall time.Duration) error {
		k := slot[i]
		if ck.store != nil {
			rec := ck.record(&jobs[k/seeds], fps[k/seeds], k%seeds)
			rec.Result = r
			if err := ck.store.Put(rec, wall); err != nil {
				return err
			}
		}
		per[k] = r
		ck.state.note(ck, false)
		return nil
	})
	if err != nil {
		return nil, err
	}
	for ji, j := range jobs {
		series[j.series].Points[j.point].Result = stats.Aggregate(per[ji*seeds : (ji+1)*seeds])
	}
	return series, nil
}

// fingerprint returns the config fingerprint cfg's records are stored under;
// without a store nothing is recorded, so there is nothing to hash.
func (ck *ckpt) fingerprint(cfg config.Config) string {
	if ck.store == nil {
		return ""
	}
	return results.Fingerprint(cfg)
}

// record returns the results record of replication s of job j, its Result
// not yet filled in.
func (ck *ckpt) record(j *job, fp string, s int) results.Record {
	return results.Record{
		Schema:       results.SchemaVersion,
		Experiment:   ck.experiment,
		Section:      ck.section,
		SectionIndex: ck.sectionIndex,
		Variant:      j.label,
		VariantIndex: j.series,
		PointIndex:   j.point,
		Scale:        ck.scale,
		Load:         j.cfg.Load,
		Seed:         s,
		SimSeed:      sim.ReplicationSeed(j.cfg.Seed, s),
		Fingerprint:  fp,
	}
}

// SectionRunner runs the sections of one experiment (a campaign, see
// internal/campaign): every section through the same scheduling, checkpoint
// key space and progress accounting. Records land in the options' results
// store under the experiment id the runner was created with.
type SectionRunner struct{ opts Options }

// NewRunner returns a section runner for the experiment with the given id,
// which keys every checkpoint and names the results export.
func (o Options) NewRunner(id string) *SectionRunner {
	o.experiment = id
	o.state = newRunState()
	return &SectionRunner{opts: o}
}

// RunSection sweeps the variants over the loads as the experiment's next
// section (panel), checkpointing into the options' results store and
// reporting progress when the options carry them. Sections must be run
// serially in a stable order: a section's ordinal in the results schema is
// its call position, which is what keeps exports deterministic across
// resumes.
func (r *SectionRunner) RunSection(title string, base config.Config, variants []Variant, loads []float64) ([]Series, error) {
	seeds := r.opts.seeds()
	return runSweep(base, variants, loads, seeds, r.checkpoint(title, len(variants)*len(loads)*seeds))
}

// PlanSection returns, without simulating, the records RunSection would write
// for the same arguments — every results key with its config fingerprint,
// Result left zero — and takes the section ordinal RunSection would have.
// Point configurations are validated exactly as RunSection validates them.
func (r *SectionRunner) PlanSection(title string, base config.Config, variants []Variant, loads []float64) ([]results.Record, error) {
	seeds := r.opts.seeds()
	_, jobs, err := expand(base, variants, loads)
	if err != nil {
		return nil, err
	}
	ck := r.checkpoint(title, len(jobs)*seeds)
	recs := make([]results.Record, 0, len(jobs)*seeds)
	for i := range jobs {
		j := &jobs[i]
		fp := results.Fingerprint(j.cfg)
		for s := 0; s < seeds; s++ {
			recs = append(recs, ck.record(j, fp, s))
		}
	}
	return recs, nil
}

// checkpoint returns the checkpointing context of the experiment's next
// section, which holds count replications.
func (r *SectionRunner) checkpoint(title string, count int) *ckpt {
	o := r.opts
	scale := o.Scale
	if scale == "" {
		scale = "small"
	}
	return &ckpt{
		store:        o.Results,
		experiment:   o.experiment,
		section:      title,
		sectionIndex: o.state.nextSection(count),
		scale:        scale,
		progress:     o.Progress,
		state:        o.state,
		metrics:      newSweepMetrics(o.Metrics),
	}
}

// Finish emits the run's final summary Progress event (totals + aggregate
// records/s). Call it once, after the last RunSection.
func (r *SectionRunner) Finish() {
	r.opts.state.finish(r.opts.experiment, r.opts.Progress)
}

// EffectiveLoads applies quick-mode trimming to a section's loads.
func (r *SectionRunner) EffectiveLoads(defaults []float64) []float64 {
	return r.opts.loads(defaults)
}
