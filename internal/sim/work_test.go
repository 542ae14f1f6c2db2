package sim

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"flexvc/internal/config"
	"flexvc/internal/core"
	"flexvc/internal/routing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files with current output")

// TestCountedWork pins the cycle loop's work as exact counts: the routers'
// allocator and transmit counters with their grants, and the NIC's injection
// attempts, for the gated medium replication and two small Figure 5 points.
// The counts are simulated-domain quantities, independent of the host, so a
// change that claims less work shows it here, and a change that claims the
// same work must leave this file alone.
func TestCountedWork(t *testing.T) {
	fig5 := func(traffic config.TrafficKind, rt routing.Kind) config.Config {
		cfg := config.Small()
		cfg.Traffic, cfg.Routing = traffic, rt
		cfg.Scheme = core.Scheme{Policy: core.FlexVC, VCs: core.SingleClass(8, 4), Selection: core.JSQ}
		cfg.Load = 0.5
		return cfg
	}
	var b strings.Builder
	for _, tc := range []struct {
		name string
		cfg  config.Config
	}{
		{"medium pb-sat", pbSatConfig()},
		{"small UN/MIN FlexVC 8/4 @ 0.5", fig5(config.TrafficUniform, routing.MIN)},
		{"small ADV/VAL FlexVC 8/4 @ 0.5", fig5(config.TrafficAdversarial, routing.VAL)},
	} {
		n, err := New(tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		n.Run()
		w, grants := n.allocatorWork()
		fmt.Fprintf(&b, "%s: cycles=%d evals=%d sleeps=%d wakeups=%d wake_failed=%d timer_wakeups=%d xmit_visits=%d sends=%d grants=%d inject_tries=%d inject_no_vc=%d\n",
			tc.name, n.now, w.Evals, w.Sleeps, w.Wakeups, w.WakeFailed, w.TimerWakeups, w.XmitVisits, w.Sends, grants, n.injectTries, n.injectNoVC)
	}
	checkGolden(t, "counted-work.golden", b.String())
}

// checkGolden compares got with testdata/name, or rewrites the file under
// -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file %s (run go test ./internal/sim -run CountedWork -update to create it): %v", path, err)
	}
	if got != string(want) {
		t.Errorf("counts differ from %s (re-pin with -update only for a change meant to alter the work):\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}
