package sweep

import (
	"bytes"
	"os"
	"testing"

	"flexvc/internal/config"
	"flexvc/internal/core"
	"flexvc/internal/obs"
	"flexvc/internal/results"
	"flexvc/internal/routing"
	"flexvc/internal/sim"
)

// TestMetricsExportInvariant locks the observability zero-impact contract at
// the export layer: a run with a metrics registry attached must write results
// exports byte-identical to an uninstrumented run, across both topologies.
// Exports embed every record's config fingerprint, so this also pins that
// Metrics stays out of the experiment identity.
func TestMetricsExportInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates 2x2 small-scale sweeps")
	}
	variants := []Variant{
		{Label: "MIN", Apply: func(c *config.Config) { c.Routing = routing.MIN }},
		{Label: "VAL", Apply: func(c *config.Config) {
			c.Routing = routing.VAL
			c.Scheme.VCs = core.SingleClass(4, 2)
		}},
	}
	export := func(topo config.TopologyKind, reg *obs.Registry) []byte {
		t.Helper()
		store, err := results.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		o := Options{Scale: "small", Seeds: 1, Quick: true, Metrics: reg, Results: store}
		base, err := o.BaseConfig()
		if err != nil {
			t.Fatal(err)
		}
		base.Topology = topo
		runner := o.NewRunner("obs-invariant")
		if _, err := runner.RunSection("routing", base, variants, []float64{0.2}); err != nil {
			t.Fatal(err)
		}
		runner.Finish()
		path, err := store.WriteExport("obs-invariant", "metrics invariance probe")
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	for _, topo := range []config.TopologyKind{config.TopoDragonfly, config.TopoFlattenedButterfly} {
		want := export(topo, nil)
		reg := obs.NewRegistry()
		got := export(topo, reg)
		if !bytes.Equal(got, want) {
			t.Errorf("%s: metrics-on export differs from metrics-off\n--- off (%d bytes) ---\n%.2000s\n--- on (%d bytes) ---\n%.2000s",
				topo, len(want), want, len(got), got)
		}
		// The comparison only means something if instrumentation was live:
		// the registry must have seen the run it rode along with.
		snap := reg.Snapshot()
		if snap.Counters[MetricReplicationsSimulated] == 0 {
			t.Errorf("%s: registry recorded no simulated replications — instrumentation was never enabled", topo)
		}
		if snap.Counters[sim.MetricCycles] == 0 {
			t.Errorf("%s: registry recorded no simulated cycles", topo)
		}
		for _, series := range []string{
			sim.MetricAllocatorWork + `{kind="evals"}`,
			sim.MetricAllocatorWork + `{kind="timer_wakeups"}`,
			sim.MetricAllocatorWork + `{kind="xmit_visits"}`,
			sim.MetricAllocatorWork + `{kind="sends"}`,
			sim.MetricGeneratorWork + `{kind="lookaheads"}`,
			sim.MetricGeneratorWork + `{kind="emissions"}`,
		} {
			if snap.Counters[series] == 0 {
				t.Errorf("%s: registry recorded no %s", topo, series)
			}
		}
		for _, phase := range []string{"events", "inject", "pb_update", "step"} {
			if snap.Counters[sim.MetricPhaseWall+`{phase="`+phase+`"}`] == 0 {
				t.Errorf("%s: phase %q recorded no wall time", topo, phase)
			}
		}
		if snap.Gauges[sim.MetricWheelDepthHWM] == 0 {
			t.Errorf("%s: event-wheel depth high-water mark never sampled", topo)
		}
	}
}
