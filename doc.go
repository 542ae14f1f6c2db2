// Package flexvc is a from-scratch Go reproduction of "FlexVC: Flexible
// Virtual Channel Management in Low-Diameter Networks" (Fuentes, Vallejo,
// Beivide, Minkenberg, Valero — IPDPS 2017).
//
// The repository contains a cycle-level Dragonfly/Flattened-Butterfly network
// simulator (internal/sim, internal/router, internal/topology, ...), the
// FlexVC and FlexVC-minCred buffer-management mechanisms together with the
// classic distance-based baseline (internal/core), the routing algorithms and
// traffic patterns of the paper's evaluation (internal/routing,
// internal/traffic — extended with permutation/hotspot destinations and
// phased workloads), a declarative scenario engine for transient experiments
// (internal/scenario: JSON-loadable phase sequences, windowed telemetry,
// adaptation-lag analysis) and an experiment harness that regenerates every
// table and figure of the evaluation section plus the transient family. Every
// simulated experiment is a JSON campaign spec (internal/campaign; Figures
// 5-11 and the transient experiment are the embedded specs) run by the
// checkpointed sweep layer (internal/sweep) through cmd/figures.
//
// # Execution model
//
// One replication is one goroutine running one serial cycle loop
// (sim.Network.Step is its only body, metered or not). Parallelism lives in
// one layer, bit-identical to serial execution: sim.RunAveraged runs
// replications concurrently, and a sweep section
// (sweep.SectionRunner.RunSection) schedules every point of every series at
// once, with all work draining through one process-wide worker budget
// (sim.SetWorkerBudget, default GOMAXPROCS; `figures run -workers N`). Each
// replication is fully self-contained and results aggregate in replication
// order. Sweeps with many points and seeds saturate the machine without any
// knobs. Every finished replication is checkpointed into the results
// directory, so a killed `figures run` resumes where it stopped when the
// same command is run again, and its export is byte-identical to an
// uninterrupted run's.
//
// The per-cycle hot path avoids both scans and steady-state allocation:
// routers holding no packets are skipped (active-router list), injection
// arbitration only visits nodes with queued NIC work (pending-node queue),
// buffer FIFOs are rings, packets are recycled through a per-network
// free-list, and the allocator caches the routing-stable part of each head
// packet's request (output port, allowed VC range, escape fallback) so only
// occupancy checks are re-evaluated every cycle. Routing queries are
// answered from precomputed flat tables (internal/topology/routetable.go,
// memory-gated so paper-scale networks fall back to on-the-fly arithmetic),
// the allocator batches proposals over occupancy bitmasks instead of probing
// every VC, and the statistics collector records latencies into a fixed-size
// histogram (internal/stats) so its memory never grows with the measurement
// window. BENCHMARKS.md records the per-layer and end-to-end numbers and how
// to reproduce them.
//
// Experiments run at four scales — "tiny" (6 routers, tests), "small"
// (36-router Dragonfly, seconds), "medium" (264 routers) and "paper" (the
// full 2,064-router system of Table V, hours) — selected by a spec's "scale",
// sweep.Options.Scale or the -scale flag of cmd/figures and cmd/flexvcsim.
// The fig6, fig11 and transient specs write small-scale buffer capacities and
// scenario phases as concrete values, so other scales need their own spec.
//
// See README.md for a tour, DESIGN.md for the system inventory and
// EXPERIMENTS.md for paper-versus-measured results. Performance is measured
// by the repository benchmark under bench/ (BENCHMARKS.md has the record);
// allocation counts are pinned by the tests named *Allocs beside the code.
package flexvc
