package campaignd

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"flexvc/internal/campaign"
	"flexvc/internal/obs"
	"flexvc/internal/results"
	"flexvc/internal/sweep"
)

// Coordinator runs one campaign across N worker processes sharing one
// results directory. It owns no work assignment — workers divide the
// replications among themselves through the store's lease protocol — so the
// coordinator's only jobs are process lifecycle (spawn, optionally kill,
// wait), event multiplexing, and writing the final export once the campaign
// is complete.
type Coordinator struct {
	// Spec is the validated campaign to run.
	Spec *campaign.Campaign
	// ResultsDir is the shared results directory (created if missing).
	ResultsDir string
	// Workers is the number of worker processes (>= 1).
	Workers int
	// Scale, Seeds, Quick override the spec's defaults (as the CLI flags
	// do); they are forwarded to every worker and used by the final restore
	// pass, so all passes resolve the identical job.
	Scale string
	Seeds int
	Quick bool
	// SimWorkersPerWorker bounds each worker process's simulation
	// concurrency; 0 divides GOMAXPROCS evenly so N local workers saturate
	// the machine without oversubscribing it.
	SimWorkersPerWorker int
	// LeaseTTL and Poll tune the shard-claim protocol (zero: defaults).
	// Chaos runs want a short TTL so survivors take over a killed worker's
	// leases quickly.
	LeaseTTL time.Duration
	Poll     time.Duration
	// Revision is stamped into the manifest and export (like `figures run
	// -revision`); it must match the single-process run's for byte-identical
	// exports.
	Revision string
	// KillAfterRecords, when positive, SIGKILLs the first worker as soon as
	// that many record files exist — the chaos hook behind the
	// campaignd-smoke gate, proving mid-run worker death loses nothing.
	KillAfterRecords int
	// WorkerCommand builds worker i's command; the spec path points into
	// <results>/jobs/. nil re-execs this binary's `work` subcommand (the
	// cmd/campaignd layout); tests substitute a helper-process command.
	WorkerCommand func(i int, specPath string) (*exec.Cmd, error)
	// OnEvent, when non-nil, receives every worker event plus the terminal
	// coordinator event, serialized.
	OnEvent func(Event)
	// Metrics, when non-nil, receives the run's observability: each worker's
	// terminal snapshot is merged in (counters add, gauges max — see
	// obs.Registry.Merge), and the final restore pass instruments into it
	// directly. `campaignd run -metrics-out` writes it out after the run.
	Metrics *obs.Registry
	// Logger receives structured diagnostics (nil: silent).
	Logger *slog.Logger

	emitMu sync.Mutex
}

// jobsSubdir is where campaign specs land inside the results directory: the
// spec a run executed stays next to the records it produced.
const jobsSubdir = "jobs"

func (co *Coordinator) emit(ev Event) {
	if co.OnEvent == nil {
		return
	}
	co.emitMu.Lock()
	defer co.emitMu.Unlock()
	co.OnEvent(ev)
}

func (co *Coordinator) simWorkers() int {
	if co.SimWorkersPerWorker > 0 {
		return co.SimWorkersPerWorker
	}
	n := runtime.GOMAXPROCS(0) / co.Workers
	if n < 1 {
		n = 1
	}
	return n
}

// defaultWorkerCommand re-execs the current binary's `work` subcommand.
func (co *Coordinator) defaultWorkerCommand(i int, specPath string) (*exec.Cmd, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("campaignd: cannot locate own binary to spawn workers: %w", err)
	}
	args := []string{
		"work",
		"-spec", specPath,
		"-results", co.ResultsDir,
		"-owner", fmt.Sprintf("w%d", i),
		"-sim-workers", fmt.Sprint(co.simWorkers()),
	}
	if co.Scale != "" {
		args = append(args, "-scale", co.Scale)
	}
	if co.Seeds > 0 {
		args = append(args, "-seeds", fmt.Sprint(co.Seeds))
	}
	if co.Quick {
		args = append(args, "-quick")
	}
	if co.LeaseTTL > 0 {
		args = append(args, "-lease-ttl", co.LeaseTTL.String())
	}
	if co.Poll > 0 {
		args = append(args, "-poll", co.Poll.String())
	}
	return exec.Command(self, args...), nil
}

// writeJobSpec persists the submitted spec under <results>/jobs/ and returns
// its path. Workers load the job from this file, so every process — and a
// later reader of the directory — sees exactly the spec that ran.
func (co *Coordinator) writeJobSpec() (string, error) {
	dir := filepath.Join(co.ResultsDir, jobsSubdir)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	b, err := json.MarshalIndent(co.Spec, "", "  ")
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, co.Spec.Name+".campaign.json")
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return "", err
	}
	return path, nil
}

// countRecords counts record files on disk — the kill trigger's progress
// signal, read without a store so it observes exactly what a crashed-and-
// restarted process would.
func (co *Coordinator) countRecords() int {
	entries, err := os.ReadDir(filepath.Join(co.ResultsDir, "records"))
	if err != nil {
		return 0
	}
	n := 0
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".json") {
			n++
		}
	}
	return n
}

// Run executes the campaign to completion and returns the export file path.
// The returned error reflects the campaign's final state, not individual
// worker fates: a killed (or crashed) worker merely shifts its replications
// to the survivors and, in the worst case, to the coordinator's final pass,
// which re-runs the campaign in-process against the store — restoring every
// recorded replication instantly and simulating only holes — before writing
// the deterministic export.
func (co *Coordinator) Run() (string, error) {
	if co.Spec == nil {
		return "", fmt.Errorf("campaignd: no campaign spec")
	}
	if co.Workers < 1 {
		co.Workers = 1
	}
	if err := co.Spec.Validate(); err != nil {
		return "", err
	}
	log := logger(co.Logger).With("campaign", co.Spec.Name)
	specPath, err := co.writeJobSpec()
	if err != nil {
		return "", err
	}
	log.Info("campaign starting", "workers", co.Workers, "results", co.ResultsDir, "spec", specPath)

	buildCmd := co.WorkerCommand
	if buildCmd == nil {
		buildCmd = co.defaultWorkerCommand
	}

	type workerProc struct {
		cmd    *exec.Cmd
		stderr bytes.Buffer
	}
	procs := make([]*workerProc, co.Workers)
	var readers sync.WaitGroup
	// abort stops the workers already running when a later one cannot be
	// started (EAGAIN, EMFILE at a large -workers): left alone they would go
	// on claiming leases and writing records with nobody waiting for them.
	abort := func(err error) (string, error) {
		for _, wp := range procs {
			if wp != nil {
				_ = wp.cmd.Process.Kill()
			}
		}
		readers.Wait()
		for _, wp := range procs {
			if wp != nil {
				_ = wp.cmd.Wait()
			}
		}
		return "", err
	}
	for i := 0; i < co.Workers; i++ {
		cmd, err := buildCmd(i, specPath)
		if err != nil {
			return abort(err)
		}
		wp := &workerProc{cmd: cmd}
		cmd.Stderr = &wp.stderr
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			return abort(err)
		}
		if err := cmd.Start(); err != nil {
			return abort(fmt.Errorf("campaignd: starting worker %d: %w", i, err))
		}
		log.Info("worker spawned", "worker", fmt.Sprintf("w%d", i), "pid", cmd.Process.Pid)
		co.Metrics.Counter(MetricWorkersSpawned).Inc()
		procs[i] = wp
		readers.Add(1)
		go func() {
			defer readers.Done()
			sc := bufio.NewScanner(stdout)
			sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
			for sc.Scan() {
				var ev Event
				if json.Unmarshal(sc.Bytes(), &ev) != nil {
					continue // non-event noise on a worker's stdout
				}
				if ev.Type == "metrics" && ev.Metrics != nil {
					if err := co.Metrics.Merge(ev.Metrics); err != nil {
						log.Error("merging worker metrics", "worker", ev.Worker, "err", err)
					}
				}
				co.emit(ev)
			}
		}()
	}

	// The chaos hook: SIGKILL worker 0 the moment enough records exist that
	// the kill lands mid-run (never on a finished campaign).
	killerDone := make(chan struct{})
	stopKiller := make(chan struct{})
	killed := -1
	go func() {
		defer close(killerDone)
		if co.KillAfterRecords <= 0 {
			return
		}
		for {
			select {
			case <-stopKiller:
				return
			case <-time.After(10 * time.Millisecond):
			}
			if co.countRecords() >= co.KillAfterRecords {
				if err := procs[0].cmd.Process.Kill(); err == nil {
					killed = 0
					co.Metrics.Counter(MetricWorkersKilled).Inc()
					log.Warn("chaos hook fired", "worker", "w0", "after_records", co.KillAfterRecords)
					co.emit(Event{Type: "error", Campaign: co.Spec.Name, Worker: "w0",
						Error: fmt.Sprintf("SIGKILLed by coordinator after %d records (chaos hook)", co.KillAfterRecords)})
				}
				return
			}
		}
	}()

	readers.Wait() // stdout EOF implies the workers are exiting
	close(stopKiller)
	<-killerDone // settles `killed` before it is read below
	var workerErrs []string
	for i, wp := range procs {
		err := wp.cmd.Wait()
		if i == killed {
			continue // our own kill; the survivors finished the campaign
		}
		if err != nil {
			msg := fmt.Sprintf("worker %d: %v", i, err)
			if s := strings.TrimSpace(wp.stderr.String()); s != "" {
				msg += ": " + s
			}
			workerErrs = append(workerErrs, msg)
			co.Metrics.Counter(MetricWorkerFailures).Inc()
			log.Error("worker failed", "worker", fmt.Sprintf("w%d", i), "err", err)
			co.emit(Event{Type: "error", Campaign: co.Spec.Name, Worker: fmt.Sprintf("w%d", i), Error: msg})
		}
	}

	// Final pass: re-run the campaign in-process against the store. Every
	// recorded replication restores instantly; only work no worker completed
	// (all workers crashed mid-run) is simulated here. This is the same
	// resume machinery a restarted `figures run` uses — and it marks the
	// campaign's keys active, so the export contains exactly this campaign's
	// records even in a shared pool holding other experiments' checkpoints.
	store, err := results.Open(co.ResultsDir)
	if err != nil {
		return "", err
	}
	if co.Revision != "" {
		store.SetRevision(co.Revision)
	}
	if co.Metrics != nil {
		store.SetMetrics(co.Metrics)
	}
	opts := sweep.Options{
		Scale:   co.Scale,
		Seeds:   co.Seeds,
		Quick:   co.Quick,
		Results: store,
		Metrics: co.Metrics,
	}
	if co.OnEvent != nil {
		opts.Progress = func(p sweep.Progress) { co.emit(progressEvent("final", p)) }
	}
	if _, err := campaign.Run(co.Spec, opts); err != nil {
		if len(workerErrs) > 0 {
			return "", fmt.Errorf("campaignd: %w (worker failures: %s)", err, strings.Join(workerErrs, "; "))
		}
		return "", err
	}
	path, err := store.WriteExport(co.Spec.Name, co.Spec.ReportTitle())
	if err != nil {
		return "", err
	}
	log.Info("campaign done", "export", path, "worker_errors", len(workerErrs))
	co.emit(Event{Type: "done", Campaign: co.Spec.Name, Export: path})
	return path, nil
}
