package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"flexvc/internal/buffer"
	"flexvc/internal/campaign"
	"flexvc/internal/config"
	"flexvc/internal/core"
	"flexvc/internal/obs"
	"flexvc/internal/packet"
	"flexvc/internal/results"
	"flexvc/internal/router"
	"flexvc/internal/routing"
	"flexvc/internal/sim"
	"flexvc/internal/stats"
	"flexvc/internal/sweep"
	"flexvc/internal/topology"
	"flexvc/internal/traffic"
)

// THE BENCHMARK'S CONTRACT WITH THE PROGRAM.
//
// A change that claims a performance gain may not edit bench/, so the harness
// has to keep compiling against whatever the program becomes. These are the
// exact public identifiers, with their signatures, that it calls. A future
// change may rework anything behind them; if it must change one of them, it
// keeps a function of the old name and signature beside the new one. This
// file compiles or fails — it runs nothing.
//
// Deliberately NOT in the contract, because ROADMAP.md slates them for
// redesign or deletion: the intra-replication shard knob and its flags, the
// embedded campaign specs and their lookup functions, the Go-coded figure
// runners and their registry, and the legacy CLI modes. TestNoReferenceTo-
// RetiringAPIs below keeps the harness away from them.
var (
	// sim: one replication, whole or in chunks.
	_ func(config.Config) (*sim.Network, error)                     = sim.New
	_ func(config.Config, int) (stats.Result, time.Duration, error) = sim.RunReplication
	_ func(int)                                                     = sim.SetWorkerBudget
	_ func(*sim.Network, int64)                                     = (*sim.Network).RunCycles
	_ func(*sim.Network) *stats.Collector                           = (*sim.Network).Collector
	_ func(*sim.Network) int64                                      = (*sim.Network).Now
	_ func(*sim.Network) bool                                       = (*sim.Network).Deadlocked
	_ func(*stats.Collector, float64, int64, bool) stats.Result     = (*stats.Collector).Summarize
	_ func(*stats.Collector) int64                                  = (*stats.Collector).TotalDelivered
	_ func(*stats.Collector) int64                                  = (*stats.Collector).TotalGenerated
	_ func(*stats.Collector, *packet.Store, packet.Ref, int64)      = (*stats.Collector).Delivered
	_ func(int, int64, int64) *stats.Collector                      = stats.NewCollector
	_ func([]stats.Result) stats.Result                             = stats.Aggregate
	_                                                               = stats.Result{}.AcceptedLoad + stats.Result{}.AvgLatency + stats.Result{}.P99 + stats.Result{}.MinimalFraction + stats.Result{}.OfferedLoad
	_                                                               = stats.Result{}.DeliveredPackets + stats.Result{}.SimulatedCycles
	_                                                               = stats.Result{}.Deadlock
	_ func(string) (config.Config, error)                           = config.AtScale
	_ func(config.Config) (topology.Topology, error)                = config.Config.BuildTopology
	_ func(config.Config, topology.PortKind, int) buffer.Config     = config.Config.PortBufferConfig
	_ func(config.Config) int                                       = config.Config.NumClasses
	_ *obs.Registry                                                 = config.Config{}.Metrics
	_ func() *obs.Registry                                          = obs.NewRegistry
	_ func(*obs.Registry, io.Writer) error                          = (*obs.Registry).WriteJSON

	// campaign, sweep, results: one figure, spec to rendered report.
	_ func([]byte) (*campaign.Campaign, error)                       = campaign.Parse
	_ func(*campaign.Campaign, sweep.Options) (*sweep.Report, error) = campaign.Run
	_ func(*campaign.Campaign) ([]campaign.CompiledSection, error)   = (*campaign.Campaign).Compile
	_ func(*campaign.Campaign) string                                = (*campaign.Campaign).ReportTitle
	_ []float64                                                      = campaign.Campaign{}.Loads
	_ []float64                                                      = campaign.SectionSpec{}.Loads
	_ []float64                                                      = campaign.CompiledSection{}.Loads
	_ func(*config.Config)                                           = sweep.Variant{}.Apply
	_                                                                = sweep.Options{Seeds: 1, Results: (*results.Store)(nil), Metrics: (*obs.Registry)(nil), Progress: func(sweep.Progress) {}}
	_                                                                = sweep.Progress{}.Done + sweep.Progress{}.Skipped
	_ func(*results.File) (string, error)                            = sweep.RenderResultsMarkdown
	_ func(string) (*results.Store, error)                           = results.Open
	_ func(string) (*results.File, error)                            = results.LoadFile
	_ func(*results.Store, string, string) (string, error)           = (*results.Store).WriteExport
	_ func(*results.Store, results.Record, time.Duration) error      = (*results.Store).Put
	_ func(*results.Store) error                                     = (*results.Store).Flush
	_ func(*results.Store) time.Duration                             = (*results.Store).WallTotal
	_ func(*results.Store, *obs.Registry)                            = (*results.Store).SetMetrics
	_ []results.Record                                               = results.File{}.Records
	_ int                                                            = results.SchemaVersion

	// The layers below sim, for the micro-kernels.
	_ func(packet.RouterID, topology.Topology, core.Scheme, routing.Algorithm, router.Params, int64) (*router.Router, error) = router.New
	_ func(*router.Router, router.Env)                                                                                       = (*router.Router).SetEnv
	_ func(*router.Router, int, int, packet.Ref, int64, packet.RouteKind)                                                    = (*router.Router).EnqueueArrival
	_ func(*router.Router, int64)                                                                                            = (*router.Router).Step
	_ func(*router.Router) bool                                                                                              = (*router.Router).Busy
	_ func(*router.Router, int) *buffer.InputBuffer                                                                          = (*router.Router).Input
	_ router.Env                                                                                                             = (*kernelEnv)(nil)
	_ func(buffer.Config) *buffer.InputBuffer                                                                                = buffer.NewInputBuffer
	_ func(int, int) buffer.Config                                                                                           = buffer.StaticConfig
	_ func(int, int, float64) buffer.Config                                                                                  = buffer.DAMQConfig
	_ func(*buffer.InputBuffer, int, int, packet.RouteKind) bool                                                             = (*buffer.InputBuffer).Reserve
	_ func(*buffer.InputBuffer, int, packet.Ref, int64, packet.RouteKind)                                                    = (*buffer.InputBuffer).Enqueue
	_ func(*buffer.InputBuffer, int, int64) packet.Ref                                                                       = (*buffer.InputBuffer).Head
	_ func(*buffer.InputBuffer, int) (packet.Ref, packet.RouteKind)                                                          = (*buffer.InputBuffer).Dequeue
	_ func(*buffer.InputBuffer, int, int, packet.RouteKind)                                                                  = (*buffer.InputBuffer).ReleaseCredit
	_ func(*buffer.InputBuffer, int) int                                                                                     = (*buffer.InputBuffer).FreeFor
	_ func(*buffer.InputBuffer, int) int                                                                                     = (*buffer.InputBuffer).QueueLen
	_ func(*buffer.InputBuffer, int) int                                                                                     = (*buffer.InputBuffer).CommittedOf
	_ func(*buffer.InputBuffer) int                                                                                          = (*buffer.InputBuffer).NumVCs
	_ func() *packet.Store                                                                                                   = packet.NewStore
	_ func(*packet.Store, uint64, packet.NodeID, packet.NodeID, int, packet.Class, int64) packet.Ref                         = (*packet.Store).Alloc
	_ func(*packet.Store, packet.Ref)                                                                                        = (*packet.Store).Free
	_ func(*packet.Store, packet.Ref) *packet.Header                                                                         = (*packet.Store).Hdr
	_ func(*packet.Store, packet.Ref) *packet.RouteState                                                                     = (*packet.Store).Route
	_ func(*packet.Store, packet.Ref) *packet.Times                                                                          = (*packet.Store).Times
	_ func(core.Scheme) *core.Manager                                                                                        = core.NewManager
	_ func(*core.Manager, core.HopContext) core.VCRange                                                                      = (*core.Manager).AllowedVCs
	_ func(core.VCConfig, topology.PortKind) int                                                                             = core.VCConfig.TotalOf
	_ func(...topology.PortKind) topology.PathSeq                                                                            = topology.SeqOf
	_ func(topology.Precomputer, int) bool                                                                                   = topology.Precomputer.PrecomputeTables
	_ func(topology.Topology) *routing.Minimal                                                                               = routing.NewMinimal
	_ func(string, traffic.Params, bool) (traffic.Generator, error)                                                          = traffic.New
)

// TestNoReferenceToRetiringAPIs greps the harness's own Go files for the
// program surfaces ROADMAP.md slates for redesign or deletion. This file is
// skipped: it has to name them.
func TestNoReferenceToRetiringAPIs(t *testing.T) {
	retiring := []string{
		"Shards", "-shards", // the intra-replication shard knob
		"campaign.Builtin", "campaign.Resolve", "BuiltinNames", // embedded spec names
		"sweep.Run(", "sweep.Registry", "sweep.IDs", "LoadSweep", "MaxThroughput", // Go-coded figure runners
		"legacyCmd", "-exp ", // legacy CLI modes
	}
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if f == "api_test.go" {
			continue
		}
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, word := range retiring {
			if strings.Contains(string(b), word) {
				t.Errorf("%s mentions %q, which ROADMAP.md slates for redesign or deletion", f, word)
			}
		}
	}
}
