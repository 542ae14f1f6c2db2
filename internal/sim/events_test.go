package sim

import (
	"testing"
	"unsafe"

	"flexvc/internal/config"
)

// TestEventSize pins the wheel record at 24 bytes or less: the wheel slots of
// a saturated replication hold tens of thousands of events, and a field added
// at full width would silently regrow every one of them.
func TestEventSize(t *testing.T) {
	if size := unsafe.Sizeof(event{}); size > 24 {
		t.Errorf("event is %d bytes, want <= 24", size)
	}
}

// TestWheelHoldsSlowestLink: the wheel's horizon covers the longest delay
// the routers schedule, a packet's size plus the slowest link, injection and
// ejection included. An injection link slower than the global one used to
// panic with an event delay outside the horizon.
func TestWheelHoldsSlowestLink(t *testing.T) {
	for _, speedup := range []int{1, 2} {
		cfg := config.Tiny()
		cfg.InjectionLatency = cfg.GlobalLatency + cfg.LocalLatency + cfg.RouterPipeline + 40
		cfg.Speedup = speedup
		cfg.WarmupCycles, cfg.MeasureCycles = 200, 800
		res, err := RunOne(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.DeliveredPackets == 0 {
			t.Errorf("speedup %d: no packet delivered", speedup)
		}
	}
}
