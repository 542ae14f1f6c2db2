package config

import (
	"strings"
	"testing"

	"flexvc/internal/buffer"
	"flexvc/internal/core"
	"flexvc/internal/routing"
	"flexvc/internal/topology"
)

func TestPresetsValidate(t *testing.T) {
	for name, cfg := range map[string]Config{
		"paper": Paper(), "medium": Medium(), "small": Small(), "tiny": Tiny(),
	} {
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s preset invalid: %v", name, err)
		}
		topo, err := cfg.BuildTopology()
		if err != nil {
			t.Errorf("%s preset topology: %v", name, err)
			continue
		}
		if err := topology.Validate(topo); err != nil {
			t.Errorf("%s preset topology inconsistent: %v", name, err)
		}
	}
	paper := Paper()
	topo, _ := paper.BuildTopology()
	if topo.NumRouters() != 2064 || topo.NumNodes() != 16512 {
		t.Errorf("paper preset should be the full-scale system, got %d routers / %d nodes",
			topo.NumRouters(), topo.NumNodes())
	}
}

func TestValidationRejectsBadConfigs(t *testing.T) {
	cases := []struct {
		name  string
		mut   func(*Config)
		field string // the field the error must name; "" if not checked
	}{
		{"zero packet size", func(c *Config) { c.PacketSize = 0 }, ""},
		{"packet size past int16", func(c *Config) { c.PacketSize = MaxPacketSize + 1 }, "packet size"},
		{"radix past int16", func(c *Config) { c.P = MaxRadix }, "radix"},
		{"fbfly radix past int16", func(c *Config) {
			c.Topology, c.K, c.P = TopoFlattenedButterfly, 2, MaxRadix
		}, "radix"},
		{"negative load", func(c *Config) { c.Load = -0.1 }, ""},
		{"excess load", func(c *Config) { c.Load = 1.5 }, ""},
		{"zero speedup", func(c *Config) { c.Speedup = 0 }, ""},
		{"no injection queues", func(c *Config) { c.InjectionQueues = 0 }, ""},
		{"no measurement window", func(c *Config) { c.MeasureCycles = 0 }, ""},
		{"unknown topology", func(c *Config) { c.Topology = "torus" }, ""},
		{"VCs too small for MIN", func(c *Config) { c.Scheme.VCs = core.SingleClass(1, 1) }, ""},
		{"baseline VAL without VCs", func(c *Config) {
			c.Routing = routing.VAL
			c.Scheme = core.Scheme{Policy: core.Baseline, VCs: core.SingleClass(2, 1), Selection: core.JSQ}
		}, ""},
		{"FlexVC VAL with forbidden VCs", func(c *Config) {
			c.Routing = routing.VAL
			c.Scheme = core.Scheme{Policy: core.FlexVC, VCs: core.SingleClass(2, 2), Selection: core.JSQ}
		}, ""},
		{"reply VCs without reactive", func(c *Config) { c.Scheme.VCs = core.TwoClass(2, 1, 2, 1) }, ""},
	}
	for _, tc := range cases {
		cfg := Small()
		tc.mut(&cfg)
		err := cfg.Validate()
		switch {
		case err == nil:
			t.Errorf("%s: expected validation error", tc.name)
		case !strings.Contains(err.Error(), tc.field):
			t.Errorf("%s: error %q does not name the %s", tc.name, err, tc.field)
		}
	}
	// The largest packet the event records carry is accepted.
	cfg := Small()
	cfg.PacketSize = MaxPacketSize
	if err := cfg.Validate(); err != nil {
		t.Errorf("packet size %d should validate: %v", MaxPacketSize, err)
	}
	// FlexVC with 3/2 supports opportunistic Valiant and must be accepted.
	cfg = Small()
	cfg.Routing = routing.VAL
	cfg.Scheme = core.Scheme{Policy: core.FlexVC, VCs: core.SingleClass(3, 2), Selection: core.JSQ}
	if err := cfg.Validate(); err != nil {
		t.Errorf("FlexVC 3/2 with VAL should validate: %v", err)
	}
}

// TestValidatePortVCLimit: a port kind with more VCs than a router port holds
// fails validation, naming the kind, instead of failing later in router.New.
// Classes add up on a port.
func TestValidatePortVCLimit(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mut    func(*Config)
		reject string // the port kind the error names; "" if valid
	}{
		{"local at the limit", func(c *Config) { c.Scheme.VCs = core.SingleClass(64, 1) }, ""},
		{"local beyond", func(c *Config) { c.Scheme.VCs = core.SingleClass(66, 1) }, "local"},
		{"global beyond", func(c *Config) { c.Scheme.VCs = core.SingleClass(2, 65) }, "global"},
		{"classes add up", func(c *Config) {
			c.Reactive = true
			c.Scheme.VCs = core.TwoClass(33, 1, 32, 1)
		}, "local"},
		{"injection at the limit", func(c *Config) { c.InjectionQueues = 64 }, ""},
		{"injection beyond", func(c *Config) { c.InjectionQueues = 65 }, "terminal"},
	} {
		cfg := Small()
		tc.mut(&cfg)
		err := cfg.Validate()
		switch {
		case tc.reject == "" && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case tc.reject != "" && err == nil:
			t.Errorf("%s: validated, want an error", tc.name)
		case tc.reject != "" && !strings.Contains(err.Error(), tc.reject+" ports"):
			t.Errorf("%s: error %q does not name %s ports", tc.name, err, tc.reject)
		}
	}
}

func TestPortBufferConfig(t *testing.T) {
	cfg := Small()
	cfg.BufferOrg = buffer.Static
	b := cfg.PortBufferConfig(topology.Local, 2)
	if b.Org != buffer.Static || b.NumVCs != 2 || b.CapacityPerVC != cfg.LocalBufPerVC {
		t.Errorf("static local port config broken: %+v", b)
	}
	cfg.BufferOrg = buffer.DAMQ
	d := cfg.PortBufferConfig(topology.Global, 2)
	if d.Org != buffer.DAMQ || d.TotalCapacity() != 2*cfg.GlobalBufPerVC {
		t.Errorf("DAMQ global port should be iso-memory with static: %+v", d)
	}
	// Injection ports stay statically partitioned regardless of the
	// organisation (they are per-node queues).
	inj := cfg.PortBufferConfig(topology.Terminal, 3)
	if inj.Org != buffer.Static || inj.CapacityPerVC != cfg.InjBufPerVC {
		t.Errorf("terminal port config broken: %+v", inj)
	}
}

func TestLinkLatencyAndClasses(t *testing.T) {
	cfg := Small()
	if cfg.LinkLatency(topology.Global) != cfg.GlobalLatency ||
		cfg.LinkLatency(topology.Local) != cfg.LocalLatency ||
		cfg.LinkLatency(topology.Terminal) != cfg.InjectionLatency {
		t.Error("LinkLatency broken")
	}
	if cfg.NumClasses() != 1 {
		t.Error("single-class by default")
	}
	cfg.Reactive = true
	if cfg.NumClasses() != 2 {
		t.Error("reactive means two classes")
	}
	if cfg.Describe() == "" {
		t.Error("empty description")
	}
}

func TestFlattenedButterflyConfig(t *testing.T) {
	cfg := Small()
	cfg.Topology = TopoFlattenedButterfly
	cfg.K = 4
	if err := cfg.Validate(); err != nil {
		t.Fatalf("flattened butterfly config invalid: %v", err)
	}
	topo, err := cfg.BuildTopology()
	if err != nil {
		t.Fatal(err)
	}
	if topo.NumRouters() != 16 {
		t.Errorf("4x4 flattened butterfly should have 16 routers, got %d", topo.NumRouters())
	}
}

// TestValidateAdmitsEveryClass: admission checks the reply class too. A
// baseline reply subsequence too short for the Valiant path strands replies,
// so Small rejects baseline VAL, PAR and PB with reactive traffic at
// 4/2+2/1 (and PAR at 5/2+2/1) and admits them once replies hold the path.
// PB runs on a Dragonfly only, and Validate says so before anything runs.
func TestValidateAdmitsEveryClass(t *testing.T) {
	for _, tc := range []struct {
		routing routing.Kind
		vcs     core.VCConfig
		want    string // "" when admitted, else a fragment of the error
	}{
		{routing.VAL, core.TwoClass(4, 2, 2, 1), "cannot support val routing"},
		{routing.PAR, core.TwoClass(4, 2, 2, 1), "cannot support par routing"},
		{routing.PAR, core.TwoClass(5, 2, 2, 1), "cannot support par routing"},
		{routing.PB, core.TwoClass(4, 2, 2, 1), "cannot support val routing"},
		{routing.VAL, core.TwoClass(4, 2, 4, 2), ""},
		{routing.PAR, core.TwoClass(5, 2, 5, 2), ""},
		{routing.PB, core.TwoClass(4, 2, 4, 2), ""},
	} {
		cfg := Small()
		cfg.Routing, cfg.Reactive = tc.routing, true
		cfg.Scheme = core.Scheme{Policy: core.Baseline, VCs: tc.vcs, Selection: core.JSQ}
		err := cfg.Validate()
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("baseline %s %s: %v", tc.routing, tc.vcs, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("baseline %s %s: %v, want an error mentioning %q", tc.routing, tc.vcs, err, tc.want)
		}
	}
	cfg := Small()
	cfg.Topology, cfg.K, cfg.Routing = TopoFlattenedButterfly, 4, routing.PB
	cfg.Scheme.VCs = core.SingleClass(4, 0)
	if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), "requires a Dragonfly") {
		t.Errorf("PB on a flattened butterfly: %v, want a Dragonfly-only error", err)
	}
}

// TestValidateRejectsNegativeTiming: a negative link latency or router
// pipeline is an error, not a run with events scheduled into the past.
func TestValidateRejectsNegativeTiming(t *testing.T) {
	for name, mut := range map[string]func(*Config){
		"local latency":     func(c *Config) { c.LocalLatency = -1 },
		"global latency":    func(c *Config) { c.GlobalLatency = -1 },
		"injection latency": func(c *Config) { c.InjectionLatency = -1 },
		"router pipeline":   func(c *Config) { c.RouterPipeline = -1 },
	} {
		cfg := Small()
		mut(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("negative %s validated", name)
		}
	}
}
