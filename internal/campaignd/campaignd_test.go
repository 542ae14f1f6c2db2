package campaignd

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"flexvc/internal/campaign"
	"flexvc/internal/obs"
	"flexvc/internal/results"
	"flexvc/internal/sim"
	"flexvc/internal/sweep"
)

func strp(s string) *string { return &s }

// testCampaign is the reference job of this package's end-to-end tests: a
// tiny two-variant, three-load, two-seed campaign (12 replications) that a
// single process finishes in a couple of seconds.
func testCampaign() *campaign.Campaign {
	return &campaign.Campaign{
		Name:  "shard-test",
		Title: "shard-claim test campaign",
		Scale: "tiny",
		Seeds: 2,
		Loads: []float64{0.2, 0.6, 1.0},
		Sections: []campaign.SectionSpec{{
			Title: "tiny UN/MIN panel",
			Base:  &campaign.Settings{Traffic: strp("un"), Routing: strp("min")},
			Variants: []campaign.VariantSpec{
				{Label: "Baseline 2/1", Set: campaign.Settings{Policy: strp("baseline"), VCs: strp("2/1"), Select: strp("jsq")}},
				{Label: "FlexVC 4/2", Set: campaign.Settings{Policy: strp("flexvc"), VCs: strp("4/2"), Select: strp("jsq")}},
			},
		}},
	}
}

const testCampaignReplications = 2 * 3 * 2

// singleProcessExport runs the test campaign the way `figures run -campaign`
// does — one process, checkpointed, then exported — and returns the export
// bytes: the byte-identity reference for every sharded run.
func singleProcessExport(t *testing.T) []byte {
	t.Helper()
	spec := testCampaign()
	store, err := results.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := campaign.Run(spec, sweep.Options{Results: store}); err != nil {
		t.Fatal(err)
	}
	path, err := store.WriteExport(spec.Name, spec.ReportTitle())
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestCampaigndWorkerHelperProcess is not a test: it is the worker-process
// body the coordinator tests spawn (the same pattern as the sweep package's
// SIGKILL helper). It runs RunWorker against the env-named spec/directory,
// streaming events to stdout.
func TestCampaigndWorkerHelperProcess(t *testing.T) {
	dir := os.Getenv("FLEXVC_CAMPAIGND_DIR")
	if dir == "" {
		t.Skip("helper process for the campaignd coordinator tests")
	}
	ttl, _ := time.ParseDuration(os.Getenv("FLEXVC_CAMPAIGND_TTL"))
	err := RunWorker(WorkerConfig{
		SpecPath:   os.Getenv("FLEXVC_CAMPAIGND_SPEC"),
		ResultsDir: dir,
		Owner:      os.Getenv("FLEXVC_CAMPAIGND_OWNER"),
		LeaseTTL:   ttl,
		Poll:       5 * time.Millisecond,
		Events:     os.Stdout,
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestCampaigndBlockingHelperProcess is not a test either: it is a worker
// process that never finishes, for the tests that must see the coordinator
// stop its workers.
func TestCampaigndBlockingHelperProcess(t *testing.T) {
	if os.Getenv("FLEXVC_CAMPAIGND_DIR") == "" {
		t.Skip("helper process for the campaignd coordinator tests")
	}
	time.Sleep(time.Hour)
}

// helperWorkerCommand builds worker commands that re-exec this test binary's
// helper process instead of a campaignd binary.
func helperWorkerCommand(dir string, ttl time.Duration) func(i int, specPath string) (*exec.Cmd, error) {
	return func(i int, specPath string) (*exec.Cmd, error) {
		cmd := exec.Command(os.Args[0], "-test.run", "^TestCampaigndWorkerHelperProcess$")
		cmd.Env = append(os.Environ(),
			"FLEXVC_CAMPAIGND_DIR="+dir,
			"FLEXVC_CAMPAIGND_SPEC="+specPath,
			"FLEXVC_CAMPAIGND_OWNER="+fmt.Sprintf("w%d", i),
			"FLEXVC_CAMPAIGND_TTL="+ttl.String(),
		)
		return cmd, nil
	}
}

func countRecordFiles(t *testing.T, dir string) int {
	t.Helper()
	entries, err := os.ReadDir(filepath.Join(dir, "records"))
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".json") {
			n++
		}
	}
	return n
}

// TestShardedRunExactlyOnceAndByteIdentical is the multi-process acceptance
// test: two worker processes run the same campaign concurrently against one
// results directory. Every key must be simulated by exactly one of them
// (summed fresh replications across workers equal the campaign size), the
// directory must hold exactly one record per key, the export must be
// byte-identical to a single-process run's, and the coordinator's registry
// must hold both workers' merged metrics snapshots.
func TestShardedRunExactlyOnceAndByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns child processes")
	}
	ref := singleProcessExport(t)

	dir := t.TempDir()
	var mu sync.Mutex
	fresh := map[string]int{} // worker -> replications it simulated itself
	reg := obs.NewRegistry()
	co := &Coordinator{
		Spec:          testCampaign(),
		ResultsDir:    dir,
		Workers:       2,
		WorkerCommand: helperWorkerCommand(dir, time.Minute),
		Metrics:       reg,
		OnEvent: func(ev Event) {
			if ev.Type == "progress" && ev.Worker != "final" {
				mu.Lock()
				fresh[ev.Worker] = ev.Done - ev.Skipped
				mu.Unlock()
			}
		},
	}
	path, err := co.Run()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, ref) {
		t.Fatal("sharded export is not byte-identical to the single-process run")
	}
	if n := countRecordFiles(t, dir); n != testCampaignReplications {
		t.Errorf("results dir holds %d record files, want %d (no duplicates, no losses)", n, testCampaignReplications)
	}
	mu.Lock()
	defer mu.Unlock()
	total := 0
	for w, n := range fresh {
		t.Logf("worker %s simulated %d replications", w, n)
		total += n
	}
	if total != testCampaignReplications {
		t.Errorf("workers simulated %d replications in total, want exactly %d (exactly-once)", total, testCampaignReplications)
	}
	if len(fresh) != 2 {
		t.Errorf("saw progress from %d workers, want 2", len(fresh))
	}

	snap := reg.Snapshot()
	if n := snap.Counters[MetricWorkersSpawned]; n != 2 {
		t.Errorf("%s = %d, want 2", MetricWorkersSpawned, n)
	}
	if n := snap.Counters[sweep.MetricReplicationsSimulated]; n != testCampaignReplications {
		t.Errorf("%s = %d, want %d merged over both workers", sweep.MetricReplicationsSimulated, n, testCampaignReplications)
	}
	if n := snap.Counters[results.MetricLeaseClaims]; n < testCampaignReplications {
		t.Errorf("%s = %d, want at least %d", results.MetricLeaseClaims, n, testCampaignReplications)
	}
	if step := sim.MetricPhaseWall + `{phase="step"}`; snap.Counters[step] <= 0 {
		t.Errorf("%s = %d, want > 0", step, snap.Counters[step])
	}
	for _, w := range []string{"w0", "w1"} {
		name := fmt.Sprintf("%s{worker=%q}", MetricWorkerRecordsPerSec, w)
		if _, ok := snap.Values[name]; !ok {
			t.Errorf("merged snapshot lacks %s", name)
		}
	}
}

// TestRunStopsStartedWorkersWhenASpawnFails: when worker 1 cannot be started,
// Run must return the error only after killing and reaping worker 0, which
// would otherwise go on claiming leases in the directory unsupervised.
func TestRunStopsStartedWorkersWhenASpawnFails(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns child processes")
	}
	dir := t.TempDir()
	spawnErr := errors.New("fork: resource temporarily unavailable")
	var first *exec.Cmd
	t.Cleanup(func() {
		if first != nil && first.ProcessState == nil {
			_ = first.Process.Kill()
			_ = first.Wait()
		}
	})
	co := &Coordinator{
		Spec:       testCampaign(),
		ResultsDir: dir,
		Workers:    2,
		WorkerCommand: func(i int, specPath string) (*exec.Cmd, error) {
			if i > 0 {
				return nil, spawnErr
			}
			first = exec.Command(os.Args[0], "-test.run", "^TestCampaigndBlockingHelperProcess$")
			first.Env = append(os.Environ(), "FLEXVC_CAMPAIGND_DIR="+dir)
			return first, nil
		},
	}
	if _, err := co.Run(); !errors.Is(err, spawnErr) {
		t.Fatalf("Run returned %v, want the spawn error", err)
	}
	if first == nil || first.ProcessState == nil {
		t.Fatal("worker 0 is still running after Run returned")
	}
}

// TestShardedRunSurvivesSIGKILLedWorker extends the SIGKILL-resume harness
// to campaignd: of two workers, one is SIGKILLed mid-run; the survivor takes
// over its expired leases and the campaign must complete with no duplicated
// or lost records and a byte-identical export.
func TestShardedRunSurvivesSIGKILLedWorker(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns child processes")
	}
	ref := singleProcessExport(t)

	dir := t.TempDir()
	// The TTL bounds how long the survivor waits before taking over the
	// victim's leases, so keep it short — but not so short that a loaded CI
	// box can stall a *live* worker's heartbeat (TTL/4) past it and trigger a
	// spurious takeover. 1s gives a 750ms scheduling margin per beat.
	ttl := time.Second
	killSeen := false
	co := &Coordinator{
		Spec:             testCampaign(),
		ResultsDir:       dir,
		Workers:          2,
		LeaseTTL:         ttl,
		KillAfterRecords: 2,
		WorkerCommand:    helperWorkerCommand(dir, ttl),
		OnEvent: func(ev Event) {
			if ev.Type == "error" && strings.Contains(ev.Error, "chaos hook") {
				killSeen = true
			}
		},
	}
	path, err := co.Run()
	if err != nil {
		t.Fatal(err)
	}
	if killSeen {
		t.Log("worker 0 SIGKILLed mid-run (chaos hook fired)")
	} else {
		t.Log("campaign finished before the kill landed; resume path not exercised this run")
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, ref) {
		t.Fatal("post-SIGKILL export is not byte-identical to the single-process run")
	}
	if n := countRecordFiles(t, dir); n != testCampaignReplications {
		t.Errorf("results dir holds %d record files, want %d", n, testCampaignReplications)
	}
}
