package sim

import (
	"strings"
	"testing"

	"flexvc/internal/config"
	"flexvc/internal/core"
	"flexvc/internal/routing"
)

// TestSmokeUniformMIN checks that the simulator moves traffic end to end with
// the baseline configuration on a small dragonfly.
func TestSmokeUniformMIN(t *testing.T) {
	cfg := config.Small()
	cfg.Load = 0.2
	cfg.WarmupCycles = 500
	cfg.MeasureCycles = 2000
	res, err := RunOne(cfg)
	if err != nil {
		t.Fatalf("RunOne: %v", err)
	}
	t.Logf("result: %v", res)
	if res.Deadlock {
		t.Fatalf("unexpected deadlock: %+v", res)
	}
	if res.DeliveredPackets == 0 {
		t.Fatalf("no packets delivered: %+v", res)
	}
	if res.AcceptedLoad < 0.15 {
		t.Errorf("accepted load %.3f far below offered 0.2", res.AcceptedLoad)
	}
	if res.AvgLatency <= 0 {
		t.Errorf("non-positive average latency %.1f", res.AvgLatency)
	}
}

// TestSmokeFlexVCValiantADV exercises FlexVC with Valiant routing under
// adversarial traffic.
func TestSmokeFlexVCValiantADV(t *testing.T) {
	cfg := config.Small()
	cfg.Traffic = config.TrafficAdversarial
	cfg.Routing = routing.VAL
	cfg.Scheme = core.Scheme{Policy: core.FlexVC, VCs: core.SingleClass(4, 2), Selection: core.JSQ}
	cfg.Load = 0.2
	cfg.WarmupCycles = 500
	cfg.MeasureCycles = 2000
	res, err := RunOne(cfg)
	if err != nil {
		t.Fatalf("RunOne: %v", err)
	}
	t.Logf("result: %v", res)
	if res.Deadlock || res.DeliveredPackets == 0 {
		t.Fatalf("bad result: %+v", res)
	}
	if res.AcceptedLoad < 0.1 {
		t.Errorf("accepted load %.3f too low for offered 0.2", res.AcceptedLoad)
	}
}

// TestNewRejectsPortsBeyondMask: a scheme with more VCs on a port kind than
// the router's 64-bit occupancy mask holds is a configuration error reported
// by New (naming the kind and the count), not a slower code path.
func TestNewRejectsPortsBeyondMask(t *testing.T) {
	for _, tc := range []struct {
		name string
		edit func(*config.Config)
		want string // "" = accepted
	}{
		{"64 local and global", func(c *config.Config) { c.Scheme.VCs = core.SingleClass(64, 64) }, ""},
		{"65 local", func(c *config.Config) { c.Scheme.VCs = core.SingleClass(65, 2) }, "local ports have 65 VCs"},
		{"65 global", func(c *config.Config) { c.Scheme.VCs = core.SingleClass(4, 65) }, "global ports have 65 VCs"},
		{"65 injection queues", func(c *config.Config) { c.InjectionQueues = 65 }, "terminal ports have 65 VCs"},
	} {
		cfg := config.Small()
		cfg.Scheme.Policy = core.FlexVC
		tc.edit(&cfg)
		_, err := New(cfg)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: rejected: %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: error %v, want one containing %q", tc.name, err, tc.want)
		}
	}
}
