package sim

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"flexvc/internal/config"
	"flexvc/internal/core"
	"flexvc/internal/obs"
	"flexvc/internal/routing"
	"flexvc/internal/stats"
)

// TestMetricsExcludedFromIdentity pins that the Metrics registry is an
// execution detail, not part of the experiment identity: the JSON form of a
// configuration (the input of results.Fingerprint, checkpoint keys and
// recorded exports) must not change when a registry is attached, or metered
// runs would orphan the checkpoints of unmetered ones.
func TestMetricsExcludedFromIdentity(t *testing.T) {
	plain := config.Small()
	metered := config.Small()
	metered.Metrics = obs.NewRegistry()
	a, err := json.Marshal(plain)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(metered)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("Metrics leaks into the config JSON identity:\n plain:   %s\n metered: %s", a, b)
	}
}

// TestMeteredRunMatchesSerial is the result-level half of the zero-impact
// contract: a metered replication must produce exactly the result of an
// unmetered one — the clock laps in Step may observe, never change behaviour
// — and every sim-layer series must have seen the run. PB routing, so the
// pb_update phase does measurable work.
func TestMeteredRunMatchesSerial(t *testing.T) {
	cfg := config.Small()
	cfg.Routing = routing.PB
	cfg.Reactive = true
	cfg.Scheme = core.Scheme{Policy: core.FlexVC, VCs: core.TwoClass(4, 2, 2, 1), Selection: core.JSQ}
	cfg.WarmupCycles = 200
	cfg.MeasureCycles = 800
	want, err := RunOne(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Metrics = obs.NewRegistry()
	got, err := RunOne(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("metered run diverged from the unmetered one")
	}
	snap := cfg.Metrics.Snapshot()
	if got := snap.Counters[MetricCycles]; got != want.SimulatedCycles {
		t.Errorf("%s = %d, want the run's %d cycles", MetricCycles, got, want.SimulatedCycles)
	}
	for _, phase := range []string{"events", "inject", "pb_update", "step"} {
		if snap.Counters[MetricPhaseWall+`{phase="`+phase+`"}`] == 0 {
			t.Errorf("phase %q recorded no wall time", phase)
		}
	}
	if snap.Gauges[MetricWheelDepthHWM] == 0 {
		t.Error("event-wheel depth high-water mark never sampled")
	}
	// The allocator's work counters are simulated-domain counts: summed once
	// at replication end, internally consistent, and equal run to run.
	work := func(s *obs.Snapshot, kind string) int64 {
		return s.Counters[MetricAllocatorWork+`{kind="`+kind+`"}`]
	}
	evals, sleeps, wakeups, failed, grants := work(snap, "evals"), work(snap, "sleeps"), work(snap, "wakeups"), work(snap, "wake_failed"), work(snap, "grants")
	if grants == 0 || sleeps == 0 || wakeups == 0 || failed == 0 {
		t.Errorf("allocator work not published: evals %d sleeps %d wakeups %d wake_failed %d grants %d", evals, sleeps, wakeups, failed, grants)
	}
	if evals < grants+sleeps || wakeups > sleeps || failed > wakeups {
		t.Errorf("allocator work inconsistent: evals %d sleeps %d wakeups %d wake_failed %d grants %d", evals, sleeps, wakeups, failed, grants)
	}
	// So are the time-driven counts: heads left the pipeline on timers, a
	// serviced port sends at least one packet, only granted packets are sent,
	// and the generators are asked for fewer look-aheads than there are
	// node-cycles.
	timers, visits, sends := work(snap, "timer_wakeups"), work(snap, "xmit_visits"), work(snap, "sends")
	gen := func(s *obs.Snapshot, kind string) int64 {
		return s.Counters[MetricGeneratorWork+`{kind="`+kind+`"}`]
	}
	lookaheads, emissions := gen(snap, "lookaheads"), gen(snap, "emissions")
	if timers == 0 || visits == 0 || visits > sends || sends > grants {
		t.Errorf("router time-driven work inconsistent: timer_wakeups %d xmit_visits %d sends %d grants %d", timers, visits, sends, grants)
	}
	topo, err := cfg.BuildTopology()
	if err != nil {
		t.Fatal(err)
	}
	if emissions == 0 || lookaheads < emissions || lookaheads >= want.SimulatedCycles*int64(topo.NumNodes()) {
		t.Errorf("generator work inconsistent: lookaheads %d emissions %d over %d cycles", lookaheads, emissions, want.SimulatedCycles)
	}
	again := cfg
	again.Metrics = obs.NewRegistry()
	if _, err := RunOne(again); err != nil {
		t.Fatal(err)
	}
	for _, kind := range []string{"evals", "sleeps", "wakeups", "wake_failed", "grants", "timer_wakeups", "xmit_visits", "sends"} {
		if a, b := work(snap, kind), work(again.Metrics.Snapshot(), kind); a != b {
			t.Errorf("allocator work %q does not repeat: %d then %d", kind, a, b)
		}
	}
	for _, kind := range []string{"lookaheads", "emissions"} {
		if a, b := gen(snap, kind), gen(again.Metrics.Snapshot(), kind); a != b {
			t.Errorf("generator work %q does not repeat: %d then %d", kind, a, b)
		}
	}
	if snap.Histograms[MetricReplicationWall].Count != 1 || snap.Counters[MetricReplications] != 1 {
		t.Errorf("replication accounting: wall histogram count %d, replications %d, want 1 and 1",
			snap.Histograms[MetricReplicationWall].Count, snap.Counters[MetricReplications])
	}
}

// TestMetricsUnderConcurrentReplications is the -race proof for the metrics
// hot path: metered replications run on four workers and hammer one shared
// registry while a scraper goroutine concurrently snapshots and renders it —
// and every replication must still be bit-identical to the unmetered run.
func TestMetricsUnderConcurrentReplications(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	defer SetWorkerBudget(WorkerBudget())
	SetWorkerBudget(4)

	cfg := config.Small()
	cfg.Routing = routing.PAR
	cfg.Scheme = core.Scheme{Policy: core.FlexVC, VCs: core.SingleClass(5, 2), Selection: core.JSQ}
	cfg.WarmupCycles = 200
	cfg.MeasureCycles = 800
	want, _, err := RunReplication(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	cfg.Metrics = reg
	stop := make(chan struct{})
	scraped := make(chan struct{})
	go func() {
		defer close(scraped)
		for {
			select {
			case <-stop:
				return
			default:
				var buf bytes.Buffer
				_ = reg.WriteJSON(&buf)
				_ = reg.Snapshot()
			}
		}
	}()

	const runs = 6
	reps := make([]Replication, runs)
	for i := range reps {
		reps[i] = Replication{Config: cfg}
	}
	err = RunReplications(reps, func(i int, got stats.Result, _ time.Duration) error {
		if !reflect.DeepEqual(got, want) {
			return fmt.Errorf("metered run %d diverged from the unmetered one", i)
		}
		return nil
	})
	close(stop)
	<-scraped
	if err != nil {
		t.Error(err)
	}
	if n := reg.Counter(MetricReplications).Value(); n != runs {
		t.Errorf("registry counted %d replications, want %d", n, runs)
	}
}

// TestStepZeroAllocsMeteredAndPlain pins what let the metered and plain cycle
// loops become one body: in steady state a cycle allocates nothing, with or
// without a registry (the laps are straight-line clock reads into
// pre-resolved counters — no closure, no name formatting).
func TestStepZeroAllocsMeteredAndPlain(t *testing.T) {
	for _, scale := range []struct {
		name string
		cfg  func() config.Config
	}{
		{"tiny", config.Tiny},
		{"small", config.Small},
	} {
		for _, metered := range []bool{false, true} {
			name := scale.name + "-plain"
			if metered {
				name = scale.name + "-metered"
			}
			t.Run(name, func(t *testing.T) {
				cfg := scale.cfg()
				cfg.Load = 0.4
				if metered {
					cfg.Metrics = obs.NewRegistry()
				}
				n, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				n.RunCycles(4000) // queues, wheel slots and the packet store reach their steady capacity
				if allocs := testing.AllocsPerRun(1000, n.Step); allocs != 0 {
					t.Errorf("Step allocates %v times per cycle in steady state, want 0", allocs)
				}
				if n.Collector().TotalDelivered() == 0 {
					t.Fatal("no traffic delivered; the zero-alloc check is vacuous")
				}
			})
		}
	}
}

// TestOneCycleLoop keeps the deleted twins from growing back: no non-test
// source under internal/ or cmd/ may name the intra-replication shard knob or
// a second cycle-loop body.
func TestOneCycleLoop(t *testing.T) {
	for _, root := range []string{"../../internal", "../../cmd"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			src, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			// Spelled in halves so this file stays clean under the same grep.
			for _, word := range []string{"Sha" + "rds", "stepSha" + "rded", "stepTi" + "med"} {
				if bytes.Contains(src, []byte(word)) {
					t.Errorf("%s mentions %q", path, word)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}
