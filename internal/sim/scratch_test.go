package sim

import (
	"encoding/json"
	"runtime"
	"testing"
	"time"
	"weak"

	"flexvc/internal/buffer"
	"flexvc/internal/config"
	"flexvc/internal/core"
	"flexvc/internal/routing"
	"flexvc/internal/scenario"
	"flexvc/internal/stats"
	"flexvc/internal/topology"
)

// saturatedSmall is a short saturated UN replication: it grows the NIC queues
// and wheel slots to their saturation depth.
func saturatedSmall() config.Config {
	cfg := shortConfig()
	cfg.Load = 1
	return cfg
}

// TestRecycledScratchMatchesFresh runs replications of different shapes back
// to back on one RunReplications worker, so every one of them is built in the
// scratch set of the ones before it — a saturated one that grows the queues, slots and
// VC rings, a tiny one with another node count, radix and wheel horizon, a
// bursty one, a multi-phase scenario with more VCs that draws more PRNG
// streams and a request-reply PB one over DAMQs — and requires every result
// to marshal byte-identical to the same configuration built fresh by New.
func TestRecycledScratchMatchesFresh(t *testing.T) {
	tiny := config.Tiny()
	tiny.WarmupCycles, tiny.MeasureCycles = 200, 800
	tiny.GlobalLatency += 3
	bursty := shortConfig()
	bursty.Traffic = config.TrafficBursty
	bursty.Load = 0.6
	phased := scenarioConfig(routing.MIN)
	phased.Scenario = scenario.UNToADV(0.4, 600, 800, 600, 200)
	phased.Load = phased.Scenario.MaxLoad()
	// Two message classes, DAMQs and a random VC selection change every router
	// array's shape and make the recycled router PRNGs draw.
	reactive := shortConfig()
	reactive.Routing, reactive.Reactive, reactive.BufferOrg = routing.PB, true, buffer.DAMQ
	reactive.Scheme = core.Scheme{Policy: core.FlexVC, VCs: core.TwoClass(4, 2, 4, 2), Selection: core.RandomVC}
	reactive.Load = 0.8
	cases := []struct {
		name string
		cfg  config.Config
	}{
		{"saturated-un", saturatedSmall()},
		{"bursty-un", bursty},
		{"tiny", tiny},
		{"scenario", phased},
		{"pb-reactive-damq-random", reactive},
	}

	want := make([][]byte, len(cases))
	for i, c := range cases {
		n, err := New(c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if want[i], err = json.Marshal(n.Run()); err != nil {
			t.Fatal(err)
		}
	}

	defer SetWorkerBudget(WorkerBudget())
	SetWorkerBudget(1)
	var reps []Replication
	for pass := 0; pass < 2; pass++ {
		for _, c := range cases {
			reps = append(reps, Replication{Config: c.cfg})
		}
	}
	err := RunReplications(reps, func(i int, r stats.Result, _ time.Duration) error {
		got, err := json.Marshal(r)
		if err != nil {
			return err
		}
		if c := i % len(cases); string(got) != string(want[c]) {
			t.Errorf("pass %d, %s: recycled result differs from a fresh network's", i/len(cases), cases[c].name)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestPooledScratchPinsNoNetwork checks that a scratch set a worker keeps
// between replications holds no finished network alive: its routers held the network as their
// environment, its topology and its routing algorithm (Piggyback's refers back
// to the network), and the wheel slots it recycles held credit events pointing
// into the network's input buffers.
func TestPooledScratchPinsNoNetwork(t *testing.T) {
	sc := newScratch()
	cfg := saturatedSmall()
	cfg.Routing = routing.PB
	cfg.Scheme = core.Scheme{Policy: core.FlexVC, VCs: core.SingleClass(4, 2), Selection: core.JSQ}
	n, err := newNetwork(cfg, sc)
	if err != nil {
		t.Fatal(err)
	}
	n.RunCycles(600)
	credits := 0
	for _, s := range sc.slots {
		for _, ev := range s[:cap(s)] {
			if ev.buf != nil {
				credits++
			}
		}
	}
	if credits == 0 || len(sc.routers) == 0 {
		t.Fatal("no credit event in the wheel slots or no router in the set: the check would be vacuous")
	}
	topo, ok := n.topo.(*topology.Dragonfly)
	if !ok {
		t.Fatalf("topology %T, want a Dragonfly", n.topo)
	}
	wnet, wtopo := weak.Make(n), weak.Make(topo)
	n, topo = nil, nil
	sc.reclaim()
	runtime.GC()
	if wnet.Value() != nil || wtopo.Value() != nil {
		t.Error("a reclaimed scratch set keeps a finished network reachable")
	}
	for _, s := range sc.slots {
		for _, ev := range s[:cap(s)] {
			if ev.buf != nil {
				t.Fatal("a reclaimed wheel slot still holds a credit event")
			}
		}
	}
}
