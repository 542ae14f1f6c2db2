package sim

import (
	"testing"

	"flexvc/internal/config"
	"flexvc/internal/packet"
	"flexvc/internal/routing"
	"flexvc/internal/scenario"
	"flexvc/internal/traffic"
)

// emitRecorder is a generator that notes what the network asks its inner
// generator to emit, and the cycles of the network's clock it asks at.
type emitRecorder struct {
	traffic.Generator
	clock *int64
	got   []generatedPacket
	at    []int64
}

type generatedPacket struct {
	cycle int64
	node  packet.NodeID
	dst   packet.NodeID
}

func (g *emitRecorder) Emit(now int64, node packet.NodeID) packet.NodeID {
	dst := g.Generator.Emit(now, node)
	g.got = append(g.got, generatedPacket{now, node, dst})
	g.at = append(g.at, *g.clock)
	return dst
}

// TestInjectSchedulesWhatPollingGenerates checks the NIC model's generator
// schedule against its specification, node by node: the requests a node of
// a live network takes from its source are, cycle for cycle and in order, a
// prefix of those a twin generator yields when every node is polled every
// cycle, and a node whose prefix is shorter than its twin's sequence holds a
// waiting request at the end — its NIC has pulled as far as injection let it.
// The low loads are low enough that most look-ahead windows end without an
// emission and resume, high enough that emissions cut others short; the
// loads of 1.0 leave most nodes backlogged, so requests are pulled long after
// their generation cycles; the scenarios add phase boundaries and a stateful
// source, and the last crosses a boundary while backlogged.
func TestInjectSchedulesWhatPollingGenerates(t *testing.T) {
	const cycles = 10*genWindow - 60
	const switchAt = 3 * genWindow
	for _, tc := range []struct {
		name string
		mut  func(*config.Config)
	}{
		{"uniform 0.02", func(c *config.Config) { c.Load = 0.02 }},
		{"uniform 0.5", func(c *config.Config) { c.Load = 0.5 }},
		{"uniform 1.0", func(c *config.Config) { c.Load = 1.0 }},
		{"bursty 0.05", func(c *config.Config) { c.Traffic, c.Load = config.TrafficBursty, 0.05 }},
		{"bursty 1.0", func(c *config.Config) { c.Traffic, c.Load = config.TrafficBursty, 1.0 }},
		{"silent", func(c *config.Config) { c.Load = 0 }},
		{"scenario", func(c *config.Config) {
			*c = scenarioConfig(routing.MIN)
			// Boundaries one past the end of a window started at cycle 0, and
			// inside a later one.
			c.Scenario = scenario.UNToADV(0.05, genWindow+1, 2*genWindow+7, 1500, 1)
		}},
		{"scenario backlogged", func(c *config.Config) {
			*c = scenarioConfig(routing.MIN)
			// Saturating UN, then ADV: requests generated before the switch
			// are still being pulled after it.
			c.Scenario = scenario.UNToADV(1.0, switchAt, 4*genWindow, 1500, 1)
			c.Load = 1.0
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := config.Small()
			tc.mut(&cfg)
			n, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			rec := &emitRecorder{Generator: n.gen, clock: &n.now}
			n.gen = rec
			n.RunCycles(cycles)

			// The twin is the network's own generator, built again.
			twinNet, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			twin, store := twinNet.gen, twinNet.store
			want := make([][]generatedPacket, len(n.nodes))
			var polled int
			for now := int64(0); now < cycles; now++ {
				for node := range want {
					if ref := twin.Generate(now, packet.NodeID(node)); ref != packet.NilRef {
						h := store.Hdr(ref)
						want[node] = append(want[node], generatedPacket{now, packet.NodeID(node), h.Dst})
						polled++
						store.Free(ref)
					}
				}
			}
			if cfg.Load > 0 && polled == 0 {
				t.Fatal("the polled twin generated nothing; the comparison is vacuous")
			}
			if int64(len(rec.got)) != n.generated || n.generated != n.collector.TotalGenerated() {
				t.Fatalf("recorded %d packets, network counts %d generated, collector %d", len(rec.got), n.generated, n.collector.TotalGenerated())
			}
			got := make([][]generatedPacket, len(n.nodes))
			for _, p := range rec.got {
				got[p.node] = append(got[p.node], p)
			}
			var short int
			for node := range got {
				g, w := got[node], want[node]
				if len(g) > len(w) {
					t.Fatalf("node %d took %d requests from its source, polling gives %d", node, len(g), len(w))
				}
				for i := range g {
					if g[i] != w[i] {
						t.Fatalf("node %d, request %d of %d: network generated %+v, polling gives %+v", node, i, len(w), g[i], w[i])
					}
				}
				if len(g) < len(w) {
					short++
					if !n.nodes[node].hasReq {
						t.Fatalf("node %d took %d of its source's %d requests but holds none", node, len(g), len(w))
					}
				}
			}
			if cfg.Load == 1 && 2*short < len(n.nodes) {
				t.Errorf("only %d of %d nodes are behind their sources; the run is not backlogged", short, len(n.nodes))
			}
			if cfg.Scenario != nil && cfg.Load == 1 {
				var across int
				for i, p := range rec.got {
					if p.cycle < switchAt && rec.at[i] >= switchAt {
						across++
					}
				}
				if across == 0 {
					t.Error("no request generated before the phase switch was pulled after it")
				}
			}
			if n.lookaheads == 0 || n.lookaheads >= cycles*int64(len(n.nodes)) {
				t.Fatalf("%d look-ahead calls for %d node-cycles", n.lookaheads, cycles*int64(len(n.nodes)))
			}
		})
	}
}
