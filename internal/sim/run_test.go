package sim

import (
	"testing"

	"flexvc/internal/config"
	"flexvc/internal/packet"
)

// shortConfig returns a Small configuration with a shortened window so
// multi-replication tests stay fast.
func shortConfig() config.Config {
	cfg := config.Small()
	cfg.Load = 0.5
	cfg.WarmupCycles = 300
	cfg.MeasureCycles = 1200
	cfg.DeadlockCycles = 3000
	return cfg
}

// TestWorkerBudget checks the budget accessors.
func TestWorkerBudget(t *testing.T) {
	old := WorkerBudget()
	defer SetWorkerBudget(old)
	SetWorkerBudget(3)
	if WorkerBudget() != 3 {
		t.Fatalf("budget = %d, want 3", WorkerBudget())
	}
	SetWorkerBudget(0) // clamps to 1
	if WorkerBudget() != 1 {
		t.Fatalf("budget = %d, want 1 after clamping", WorkerBudget())
	}
}

// TestWatchdog drives the deadlock watchdog through its decision table by
// crafting the network state it inspects: in-flight packets, delivery
// history and the current cycle.
func TestWatchdog(t *testing.T) {
	build := func(deadlockCycles int64) *Network {
		cfg := config.Tiny()
		cfg.Load = 0
		cfg.DeadlockCycles = deadlockCycles
		n, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	deliverAt := func(n *Network, cycle int64) {
		// Feed the collector a delivery so LastDeliveryCycle advances.
		ref := n.store.Alloc(1, 0, 1, 8, packet.Request, cycle-10)
		n.store.Times(ref).Inject = cycle - 8
		save := n.now
		n.now = cycle
		n.inFlight++ // deliver decrements it
		n.deliver(ref)
		n.now = save
	}

	cases := []struct {
		name string
		prep func(n *Network)
		want bool
	}{
		{"disabled watchdog never fires", func(n *Network) {
			n.cfg.DeadlockCycles = 0
			n.inFlight = 5
			n.now = 100000
		}, false},
		{"no in-flight packets never fires", func(n *Network) {
			n.inFlight = 0
			n.now = 100000
		}, false},
		{"zero deliveries since start fires after the window", func(n *Network) {
			n.inFlight = 3
			n.now = 2001 // window is 2000 and no delivery ever happened
		}, true},
		{"zero deliveries within the window holds", func(n *Network) {
			n.inFlight = 3
			n.now = 1999
		}, false},
		{"stalled after earlier deliveries fires", func(n *Network) {
			deliverAt(n, 500)
			n.inFlight = 2
			n.now = 2600 // 2100 > 2000 cycles since the last delivery
		}, true},
		{"recent delivery holds the watchdog off", func(n *Network) {
			deliverAt(n, 500)
			deliverAt(n, 2400)
			n.inFlight = 2
			n.now = 2600
		}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n := build(2000)
			tc.prep(n)
			if got := n.watchdog(); got != tc.want {
				t.Fatalf("watchdog() = %v, want %v (now=%d inFlight=%d)", got, tc.want, n.now, n.inFlight)
			}
			if tc.want && !n.Deadlocked() {
				t.Fatal("watchdog fired but the deadlock flag was not set")
			}
		})
	}
}

// TestWatchdogRecovery checks end to end that a healthy full-load run is
// never flagged while a watchdog window shorter than the first delivery
// latency aborts the run.
func TestWatchdogRecovery(t *testing.T) {
	cfg := shortConfig()
	cfg.Load = 0.8
	res, err := RunOne(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Deadlock {
		t.Fatalf("healthy run flagged as deadlocked: %+v", res)
	}
	// A pathologically short window must abort: the first packets need the
	// injection + pipeline + link latency before anything is delivered.
	cfg.DeadlockCycles = 1
	res, err = RunOne(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Deadlock {
		t.Fatal("one-cycle watchdog window did not abort the run")
	}
}
