package sim

import (
	"time"

	"flexvc/internal/obs"
	"flexvc/internal/router"
)

// Metric names exported by the sim layer (the full inventory is documented in
// DESIGN.md "Observability"). Names are Prometheus families.
const (
	// MetricPhaseWall is the cycle loop's wall-time breakdown, labeled
	// phase="events"|"inject"|"pb_update"|"step".
	MetricPhaseWall = "flexvc_sim_phase_wall_ns_total"
	// MetricCycles counts simulated cycles.
	MetricCycles = "flexvc_sim_cycles_total"
	// MetricReplications counts completed replications.
	MetricReplications = "flexvc_sim_replications_total"
	// MetricReplicationWall is the per-replication wall-time histogram.
	MetricReplicationWall = "flexvc_sim_replication_wall_ns"
	// MetricWheelDepthHWM is the event-wheel depth high-water mark.
	MetricWheelDepthHWM = "flexvc_sim_event_wheel_depth_hwm"
	// MetricAllocatorWork is what the routers did to VC heads and staged
	// packets, summed over routers, labeled kind="evals"|"sleeps"|"wakeups"|
	// "wake_failed"|"grants"|"timer_wakeups"|"xmit_visits"|"sends"
	// (router.Work). The counts are simulated-domain: exact and repeatable
	// for a configuration and seed.
	MetricAllocatorWork = "flexvc_router_allocator_work_total"
	// MetricGeneratorWork is what the NIC model asked of the traffic
	// generators, labeled kind="lookaheads"|"emissions": look-ahead calls,
	// and requests the NICs have taken from their sources (the
	// stats.Collector's TotalGenerated). A NIC takes a request when it has
	// none waiting, so past saturation emissions trail what the sources have
	// offered. Simulated-domain, like the allocator work.
	MetricGeneratorWork = "flexvc_sim_generator_work_total"
)

// simMetrics holds the pre-resolved metric handles the cycle loop updates, so
// the metered path never formats a name or takes the registry lock. It is nil
// when the configuration carries no registry: Step's only cost in that state
// is a pointer comparison per phase.
type simMetrics struct {
	phaseEvents *obs.Counter
	phaseInject *obs.Counter
	phasePB     *obs.Counter
	phaseStep   *obs.Counter
	cycles      *obs.Counter
	wheelHWM    *obs.Gauge
}

// newSimMetrics resolves the cycle-loop metric handles against reg, returning
// nil (instrumentation fully disabled) when reg is nil. Counters are shared
// by name, so concurrent replications reporting into one registry aggregate
// naturally.
func newSimMetrics(reg *obs.Registry) *simMetrics {
	if reg == nil {
		return nil
	}
	return &simMetrics{
		phaseEvents: reg.Counter(MetricPhaseWall + `{phase="events"}`),
		phaseInject: reg.Counter(MetricPhaseWall + `{phase="inject"}`),
		phasePB:     reg.Counter(MetricPhaseWall + `{phase="pb_update"}`),
		phaseStep:   reg.Counter(MetricPhaseWall + `{phase="step"}`),
		cycles:      reg.Counter(MetricCycles),
		wheelHWM:    reg.Gauge(MetricWheelDepthHWM),
	}
}

// lap adds the wall time elapsed since `since` to a phase counter and returns
// the new reading, so consecutive phases abut without a second clock read.
func lap(phase *obs.Counter, since time.Time) time.Time {
	now := time.Now()
	phase.Add(now.Sub(since).Nanoseconds())
	return now
}

// allocatorWork sums the routers' plain work counters and grants.
func (n *Network) allocatorWork() (w router.Work, grants int64) {
	for _, r := range n.routers {
		x := r.Work()
		w.Evals += x.Evals
		w.Sleeps += x.Sleeps
		w.Wakeups += x.Wakeups
		w.WakeFailed += x.WakeFailed
		w.TimerWakeups += x.TimerWakeups
		w.XmitVisits += x.XmitVisits
		w.Sends += x.Sends
		grants += r.Grants()
	}
	return w, grants
}

// publishWork adds the replication's exact work counts — the routers' and the
// generator schedule's — to the registry. RunOne calls it once, when the
// replication has ended: no hot path ever sees the registry.
func (n *Network) publishWork() {
	reg := n.cfg.Metrics
	if reg == nil {
		return
	}
	w, grants := n.allocatorWork()
	for _, c := range []struct {
		series string
		v      int64
	}{
		{MetricAllocatorWork + `{kind="evals"}`, w.Evals},
		{MetricAllocatorWork + `{kind="sleeps"}`, w.Sleeps},
		{MetricAllocatorWork + `{kind="wakeups"}`, w.Wakeups},
		{MetricAllocatorWork + `{kind="wake_failed"}`, w.WakeFailed},
		{MetricAllocatorWork + `{kind="grants"}`, grants},
		{MetricAllocatorWork + `{kind="timer_wakeups"}`, w.TimerWakeups},
		{MetricAllocatorWork + `{kind="xmit_visits"}`, w.XmitVisits},
		{MetricAllocatorWork + `{kind="sends"}`, w.Sends},
		{MetricGeneratorWork + `{kind="lookaheads"}`, n.lookaheads},
		{MetricGeneratorWork + `{kind="emissions"}`, n.generated},
	} {
		reg.Counter(c.series).Add(c.v)
	}
}
