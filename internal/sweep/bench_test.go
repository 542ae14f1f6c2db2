package sweep

import (
	"testing"

	"flexvc/internal/config"
	"flexvc/internal/core"
	"flexvc/internal/sim"
)

// smokeSweepAllocs is the pinned allocation count of one smoke sweep: 8
// tiny replications through the section runner (no results store) and the
// simulator, on one worker. Allocation counts are deterministic, so any increase is a real
// one; lower the pin together with the change that earns it.
const smokeSweepAllocs = 816

// runSmokeSweep runs one tiny load sweep end to end: two variants x loads
// 0.3/0.7 x 2 replications, 200 warm-up and 800 measured cycles.
func runSmokeSweep(tb testing.TB) {
	base := config.Tiny()
	base.WarmupCycles = 200
	base.MeasureCycles = 800
	variants := []Variant{
		{Label: "baseline", Apply: func(c *config.Config) {}},
		{Label: "flexvc", Apply: func(c *config.Config) { c.Scheme.Policy = core.FlexVC }},
	}
	series, err := Options{Seeds: 2}.NewRunner("smoke").RunSection("smoke", base, variants, []float64{0.3, 0.7})
	if err != nil {
		tb.Fatal(err)
	}
	if len(series) != 2 {
		tb.Fatalf("want 2 series, got %d", len(series))
	}
}

// BenchmarkSmokeSweep times the smoke sweep, the whole stack below a campaign
// at its cheapest.
func BenchmarkSmokeSweep(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		runSmokeSweep(b)
	}
}

// TestSmokeSweepAllocs fails when the smoke sweep allocates more than its
// pin. A single sweep now and then reads a few allocations more (the runtime's
// own, while goroutines start); the floored mean over 20 sweeps absorbs
// those and still moves with one allocation more per replication. The race
// detector's instrumentation allocates a few times more, so the pin holds only
// in plain builds. AllocsPerRun runs on one P, where a second worker starts
// only when the scheduler preempts the first, so its scratch set would come
// and go with preemption timing: the sweep runs on one worker.
func TestSmokeSweepAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	defer sim.SetWorkerBudget(sim.WorkerBudget())
	sim.SetWorkerBudget(1)
	if allocs := testing.AllocsPerRun(20, func() { runSmokeSweep(t) }); allocs > smokeSweepAllocs {
		t.Errorf("smoke sweep allocates %v times, more than its pin of %d", allocs, smokeSweepAllocs)
	}
}
