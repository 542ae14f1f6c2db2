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
// generator to emit.
type emitRecorder struct {
	traffic.Generator
	store *packet.Store
	got   []generatedPacket
}

type generatedPacket struct {
	cycle int64
	node  packet.NodeID
	dst   packet.NodeID
	id    uint64
}

func (g *emitRecorder) Emit(now int64, node packet.NodeID) packet.Ref {
	ref := g.Generator.Emit(now, node)
	h := g.store.Hdr(ref)
	g.got = append(g.got, generatedPacket{now, node, h.Dst, h.ID})
	return ref
}

// TestInjectSchedulesWhatPollingGenerates checks the NIC model's generator
// schedule against its specification: the packets a live network generates
// are, cycle for cycle and in order, the ones a twin generator yields when
// every node is polled every cycle. The loads are low enough that most
// look-ahead windows end without an emission and resume, high enough that
// emissions cut others short; the scenario adds phase boundaries and a
// stateful source.
func TestInjectSchedulesWhatPollingGenerates(t *testing.T) {
	const cycles = 10*genWindow - 60
	for _, tc := range []struct {
		name string
		mut  func(*config.Config)
	}{
		{"uniform 0.02", func(c *config.Config) { c.Load = 0.02 }},
		{"uniform 0.5", func(c *config.Config) { c.Load = 0.5 }},
		{"bursty 0.05", func(c *config.Config) { c.Traffic, c.Load = config.TrafficBursty, 0.05 }},
		{"silent", func(c *config.Config) { c.Load = 0 }},
		{"scenario", func(c *config.Config) {
			*c = scenarioConfig(routing.MIN)
			// Boundaries one past the end of a window started at cycle 0, and
			// inside a later one.
			c.Scenario = scenario.UNToADV(0.05, genWindow+1, 2*genWindow+7, 1500, 1)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := config.Small()
			tc.mut(&cfg)
			n, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			rec := &emitRecorder{Generator: n.gen, store: n.store}
			n.gen = rec
			n.RunCycles(cycles)

			// The twin is the network's own generator, built again.
			twinNet, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			twin, store := twinNet.gen, twinNet.store
			var want []generatedPacket
			for now := int64(0); now < cycles; now++ {
				for node := 0; node < len(n.nodes); node++ {
					if ref := twin.Generate(now, packet.NodeID(node)); ref != packet.NilRef {
						h := store.Hdr(ref)
						want = append(want, generatedPacket{now, packet.NodeID(node), h.Dst, h.ID})
						store.Free(ref)
					}
				}
			}
			if cfg.Load > 0 && len(want) == 0 {
				t.Fatal("the polled twin generated nothing; the comparison is vacuous")
			}
			if int64(len(rec.got)) != n.generated || n.generated != n.collector.TotalGenerated() {
				t.Fatalf("recorded %d packets, network counts %d generated, collector %d", len(rec.got), n.generated, n.collector.TotalGenerated())
			}
			if len(rec.got) != len(want) {
				t.Errorf("network generated %d packets, polling gives %d", len(rec.got), len(want))
			}
			for i := 0; i < min(len(rec.got), len(want)); i++ {
				if rec.got[i] != want[i] {
					t.Fatalf("packet %d of %d: network generated %+v, polling gives %+v", i, len(want), rec.got[i], want[i])
				}
			}
			if n.lookaheads == 0 || n.lookaheads >= cycles*int64(len(n.nodes)) {
				t.Fatalf("%d look-ahead calls for %d node-cycles", n.lookaheads, cycles*int64(len(n.nodes)))
			}
		})
	}
}
