// Command bench is the repository's benchmark: a single-process, closed-loop
// harness that drives the simulator through its public layer functions and
// reports host-time cost the way a user pays it — per figure regenerated and
// per large replication — with the conditions it was measured under.
//
//	bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 it measures the end-to-end metrics (tracing off); with
// --trace 1 it records spans around every call into a layer and reports the
// per-layer metrics. The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"flexvc/internal/sim"
)

// runOpts sizes one run.
type runOpts struct {
	Seed int64
	// Seconds is the budget of the whole end-to-end run, counted from Start:
	// set-up estimate, warm-up and timed repetitions, which continue while
	// another one fits. Work per repetition is fixed; only their number
	// adapts to the host, so a slow host cannot push a run past the driver's
	// time cap. The traced run does a fixed amount of work instead.
	Seconds float64
	Start   time.Time
	Trace   bool
	// OutDir receives the run's report and span file; ScratchDir holds the
	// results stores the run creates and is removed when it ends.
	OutDir, ScratchDir string
}

const (
	// minTimedReps is the floor on timed repetitions of a replication.
	// Workloads are sized for about 20 in the default budget on the
	// reference host; the floor only matters on a host several times slower.
	minTimedReps = 3
	// setupSamplesFirst set-up samples are taken before the first
	// repetition and setupSamplesPerRep before every timed one: about a
	// hundred over a replication run, fifteen over a sweep run.
	setupSamplesFirst  = 5
	setupSamplesPerRep = 3
	// tracedReps is the number of traced repetitions of a replication
	// workload.
	tracedReps = 2
)

// runResult is everything one run found.
type runResult struct {
	Workload  string   `json:"workload"`
	Mode      string   `json:"mode"`
	Host      hostInfo `json:"host"`
	Attempted int      `json:"ops_attempted"`
	Failed    int      `json:"ops_failed"`
	// Failures holds the reasons of the first failed operations.
	Failures []string  `json:"failures,omitempty"`
	Metrics  metricSet `json:"metrics"`
	// Absent lists the program's own metric series the traced run looked for
	// and did not find.
	Absent []string `json:"absent_series,omitempty"`
	// Samples keeps the raw per-repetition values behind the estimates.
	Samples map[string][]float64 `json:"samples,omitempty"`

	rec *recorder
}

// left returns the seconds of the run's budget not yet used.
func (o runOpts) left() float64 { return o.Seconds - time.Since(o.Start).Seconds() }

// op counts one operation; a non-empty reason makes it a failed one.
func (r *runResult) op(reason string) {
	r.Attempted++
	if reason != "" {
		r.Failed++
		r.fail(reason)
	}
}

func (r *runResult) fail(reason string) {
	if len(r.Failures) < 20 {
		r.Failures = append(r.Failures, reason)
	}
}

// setProcs sets the cores the program may use: GOMAXPROCS and, with it, the
// simulator's worker budget (which otherwise keeps the value GOMAXPROCS had
// when the process started).
func setProcs(n int) {
	runtime.GOMAXPROCS(n)
	sim.SetWorkerBudget(n)
}

// runWorkload runs one workload in this process and returns what it found.
func runWorkload(w workload, o runOpts) (*runResult, error) {
	procs, err := procsFor(w.Name)
	if err != nil {
		return nil, err
	}
	setProcs(procs)
	if err := os.MkdirAll(o.ScratchDir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(o.ScratchDir)

	res := &runResult{Workload: w.Name, Mode: "end-to-end", Host: readHostInfo(o.Seed), Metrics: metricSet{}}
	if o.Trace {
		res.Mode = "traced"
		res.rec = newRecorder()
	}
	run := runReplication
	switch {
	case w.Kind == kindSweep && o.Trace:
		run = runSweepTraced
	case w.Kind == kindSweep:
		run = runSweep
	case o.Trace:
		run = runReplicationTraced
	}
	if err := run(w, o, res); err != nil {
		return nil, err
	}
	if o.Trace {
		res.Metrics["host.nproc"] = float64(runtime.NumCPU())
		res.Metrics["trace.spans"] = float64(len(res.rec.spans))
		if err := os.MkdirAll(o.OutDir, 0o755); err != nil {
			return nil, err
		}
		if err := res.rec.writeNDJSON(filepath.Join(o.OutDir, w.Name+".trace.ndjson")); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// defsFor returns the metric table a mode reports.
func defsFor(trace bool) []metricDef {
	if trace {
		return perLayer
	}
	return endToEnd
}

// printReport writes the human-readable report: host block, every metric by
// name with unit, direction and bound, and the operation counts.
func printReport(res *runResult, defs []metricDef) {
	h := res.Host
	fmt.Printf("workload  %s (%s)\n", res.Workload, res.Mode)
	fmt.Printf("host      %s, nproc %d, GOMAXPROCS %d, %s, commit %s, seed %d, %s\n",
		h.CPUModel, h.NProc, h.GOMAXPROCS, h.GoVersion, h.Commit, h.Seed, h.Timestamp)
	if c := res.Samples["host.calib_ns"]; len(c) > 0 {
		fmt.Printf("calib     median %.2f ms, cv %.3f over %d spins\n", median(c)/1e6, cv(c), len(c))
	}
	if res.rec != nil {
		fmt.Printf("recorder  %d spans, recording them cost an estimated %.3f ms\n", len(res.rec.spans), float64(res.rec.overheadNS())/1e6)
	}
	fmt.Printf("%-36s %16s %-15s %-7s %s\n", "metric", "value", "unit", "better", "bound")
	for _, d := range defs {
		bound := "-"
		if d.Bound > 0 {
			bound = fmt.Sprintf("%.0f%%", 100*d.Bound)
		}
		fmt.Printf("%-36s %16.6g %-15s %-7s %s\n", d.Name, res.Metrics[d.Name], d.Unit, d.Better, bound)
	}
	keys := make([]string, 0, len(res.Samples))
	for k := range res.Samples {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("samples   %-18s n=%d min %.6g median %.6g max %.6g\n", k, len(res.Samples[k]),
			quantile(res.Samples[k], 0), median(res.Samples[k]), quantile(res.Samples[k], 1))
	}
	for _, s := range res.Absent {
		fmt.Printf("absent    %s\n", s)
	}
	for _, f := range res.Failures {
		fmt.Printf("FAILED    %s\n", f)
	}
	fmt.Printf("ops_attempted %d  ops_failed %d\n", res.Attempted, res.Failed)
}

// driverLine is the benchmark contract's result object.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func (r *runResult) driverLine(defs []metricDef) driverLine {
	return driverLine{Correct: r.Failed == 0 && r.Attempted > 0, Attempted: r.Attempted, Failed: r.Failed, Metrics: r.Metrics.emit(defs)}
}

// writeReportFile stores the full report as JSON under the output directory.
func writeReportFile(res *runResult, o runOpts) error {
	if err := os.MkdirAll(o.OutDir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(o.OutDir, fmt.Sprintf("%s.%s.json", res.Workload, res.Mode)), append(b, '\n'), 0o644)
}

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		name      = flag.String("workload", "", "workload to run (see -list)")
		seed      = flag.Int64("seed", 1, "seed the workload's inputs are generated from")
		seconds   = flag.Float64("seconds", 55, "budget of the end-to-end run in seconds: set-up estimate, warm-up and timed repetitions")
		trace     = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: traced run, per-layer metrics")
		outDir    = flag.String("out", filepath.Join("bench", "out"), "directory for reports and span files")
		list      = flag.Bool("list", false, "print the workloads and every metric definition, then exit")
		selfcheck = flag.Bool("selfcheck", false, "run the end-to-end suite twice and compare the two against the bounds")
	)
	flag.Parse()
	ws, err := benchWorkloads()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	switch {
	case *list:
		printDefinitions(ws)
		return 0
	case *selfcheck:
		return runSelfcheck(ws, *seed, *seconds, *outDir)
	case *name == "":
		fmt.Fprintln(os.Stderr, "bench: -workload is required (or -list, -selfcheck)")
		flag.Usage()
		return 2
	}
	w, err := findWorkload(ws, *name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	o := runOpts{
		Seed: *seed, Seconds: *seconds, Start: time.Now(), Trace: *trace != 0, OutDir: *outDir,
		ScratchDir: filepath.Join(*outDir, fmt.Sprintf("scratch-%s-%d", w.Name, os.Getpid())),
	}
	res, err := runWorkload(w, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	defs := defsFor(o.Trace)
	printReport(res, defs)
	if err := writeReportFile(res, o); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	line, err := json.Marshal(res.driverLine(defs))
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println(string(line))
	if res.Failed > 0 || res.Attempted == 0 {
		return 1
	}
	return 0
}

// printDefinitions lists the workloads and both metric tables.
func printDefinitions(ws []workload) {
	for _, w := range ws {
		gate := "gated"
		if !w.Gated {
			gate = "ungated"
		}
		fmt.Printf("workload %-28s %-8s %s\n", w.Name, gate, w.Why)
	}
	for _, d := range endToEnd {
		fmt.Printf("end-to-end %-36s %-15s better=%-6s bound=%.0f%%\n", d.Name, d.Unit, d.Better, 100*d.Bound)
	}
	for _, d := range perLayer {
		fmt.Printf("per-layer  %-36s %-15s better=%s\n", d.Name, d.Unit, d.Better)
	}
}
