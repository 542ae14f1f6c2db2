package sweep

import (
	"fmt"
	"math"
	"strings"

	"flexvc/internal/scenario"
	"flexvc/internal/stats"
)

// Rendering for transient sections: a section whose experiment runs a phased
// scenario (campaign specs with a "scenario", e.g. the embedded transient
// spec) records one point per variant carrying windowed telemetry
// (stats.TimeSeries). RenderTransientMarkdown turns that telemetry into a
// per-window table and the adaptation-lag summary of internal/scenario.

// transientSeriesOf extracts the windowed telemetry of a rendered series:
// its single point's time series, or nil when the series is not a transient
// run (multi-point sweeps, legacy results).
func transientSeriesOf(s Series) *stats.TimeSeries {
	if len(s.Points) != 1 {
		return nil
	}
	return s.Points[0].Result.Series
}

// firstTransientSeries returns the first series' windowed telemetry, which
// the renderer uses as the reference for window geometry and phase marks
// (every series of one section shares them); nil when none carries any.
func firstTransientSeries(series []Series) *stats.TimeSeries {
	for _, s := range series {
		if ts := transientSeriesOf(s); ts != nil {
			return ts
		}
	}
	return nil
}

// RenderTransientMarkdown writes the windowed-telemetry table (one row per
// window; per series the accepted load, mean latency and minimally-routed
// percentage) and the adaptation-lag summary of a transient section, as
// markdown; series without telemetry render as dashes and sections without
// any render nothing.
func RenderTransientMarkdown(b *strings.Builder, series []Series) {
	ref := firstTransientSeries(series)
	if ref == nil {
		return
	}
	fmt.Fprintf(b, "#### Windowed telemetry (window %d cycles)\n\n", ref.Window)
	if len(ref.Marks) > 0 {
		parts := make([]string, len(ref.Marks))
		for i, m := range ref.Marks {
			parts[i] = fmt.Sprintf("`%s` @ %d", m.Label, m.Cycle)
		}
		fmt.Fprintf(b, "Phases: %s.\n\n", strings.Join(parts, ", "))
	}
	fmt.Fprintf(b, "| cycle |")
	for _, s := range series {
		fmt.Fprintf(b, " %s acc | lat | min%% |", s.Label)
	}
	fmt.Fprintf(b, "\n|---|")
	for range series {
		fmt.Fprintf(b, "---|---|---|")
	}
	fmt.Fprintln(b)
	for w := 0; w < ref.Windows(); w++ {
		fmt.Fprintf(b, "| %d |", ref.WindowStart(w))
		for _, s := range series {
			ts := transientSeriesOf(s)
			if ts == nil || w >= ts.Windows() {
				fmt.Fprintf(b, " - | - | - |")
				continue
			}
			fmt.Fprintf(b, " %.3f | %s | %s |", ts.Accepted(w),
				fmtOr(ts.MeanLatency(w), "%.1f", "-"), fmtOr(100*ts.MinimalFraction(w), "%.1f", "-"))
		}
		fmt.Fprintln(b)
	}
	fmt.Fprintln(b)

	var rows strings.Builder
	for _, s := range series {
		for _, l := range scenario.AdaptationLags(transientSeriesOf(s)) {
			lag := "no shift"
			switch {
			case l.Shifted && l.Crossed:
				lag = fmt.Sprintf("%d", l.Cycles)
			case l.Shifted:
				lag = fmt.Sprintf("> %d", l.Cycles)
			}
			fmt.Fprintf(&rows, "| %s | %s | %d | %s | %s | %s |\n", s.Label, l.Label, l.At,
				fmtOr(100*l.Pre, "%.1f", "-"), fmtOr(100*l.Post, "%.1f", "-"), lag)
		}
	}
	if rows.Len() == 0 {
		// Single-phase scenarios have no switches to analyse.
		return
	}
	fmt.Fprintf(b, "#### Adaptation lag\n\n")
	fmt.Fprintf(b, "Cycles from a phase switch until the settled minimal-fraction midpoint is crossed (shift threshold %.2f).\n\n", scenario.LagShiftThreshold)
	fmt.Fprintf(b, "| variant | switch | at cycle | min%% before | min%% after | lag (cycles) |\n|---|---|---|---|---|---|\n")
	b.WriteString(rows.String())
	fmt.Fprintln(b)
}

// fmtOr formats v with format, or returns alt when v is NaN (empty window).
func fmtOr(v float64, format, alt string) string {
	if math.IsNaN(v) {
		return alt
	}
	return strings.TrimSpace(fmt.Sprintf(format, v))
}
