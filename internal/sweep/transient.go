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
// (stats.TimeSeries). These renderers turn that telemetry into per-window
// tables and the adaptation-lag summary of internal/scenario.

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
// the renderers use as the reference for window geometry and phase marks
// (every series of one section shares them); nil when none carries any.
func firstTransientSeries(series []Series) *stats.TimeSeries {
	for _, s := range series {
		if ts := transientSeriesOf(s); ts != nil {
			return ts
		}
	}
	return nil
}

// RenderTransientText renders the windowed telemetry of a transient section
// as a fixed-width table (one row per window; per series the accepted load,
// mean latency and minimally-routed percentage) followed by the phase marks
// and the adaptation-lag summary. Series without telemetry render as dashes.
func RenderTransientText(series []Series) string {
	ref := firstTransientSeries(series)
	if ref == nil {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "\nwindowed telemetry (window %d cycles; acc = phits/node/cycle, min%% = minimally routed)\n", ref.Window)
	fmt.Fprintf(&b, "%-8s", "cycle")
	for _, s := range series {
		fmt.Fprintf(&b, " | %-24s", truncate(s.Label, 24))
	}
	fmt.Fprintf(&b, "\n%-8s", "")
	for range series {
		fmt.Fprintf(&b, " | %7s %9s %6s", "acc", "avg-lat", "min%")
	}
	b.WriteByte('\n')
	for w := 0; w < ref.Windows(); w++ {
		fmt.Fprintf(&b, "%-8d", ref.WindowStart(w))
		for _, s := range series {
			ts := transientSeriesOf(s)
			if ts == nil || w >= ts.Windows() {
				fmt.Fprintf(&b, " | %7s %9s %6s", "-", "-", "-")
				continue
			}
			fmt.Fprintf(&b, " | %7.3f %9s %6s", ts.Accepted(w), fmtOr(ts.MeanLatency(w), "%9.1f", "-"), fmtOr(100*ts.MinimalFraction(w), "%6.1f", "-"))
		}
		b.WriteByte('\n')
	}
	if len(ref.Marks) > 0 {
		parts := make([]string, len(ref.Marks))
		for i, m := range ref.Marks {
			parts[i] = fmt.Sprintf("%d %s", m.Cycle, m.Label)
		}
		fmt.Fprintf(&b, "phases: %s\n", strings.Join(parts, " | "))
	}
	b.WriteString(renderLagsText(series))
	return b.String()
}

// renderLagsText renders the per-variant adaptation lags.
func renderLagsText(series []Series) string {
	var b strings.Builder
	wrote := false
	for _, s := range series {
		ts := transientSeriesOf(s)
		lags := scenario.AdaptationLags(ts)
		if len(lags) == 0 {
			continue
		}
		if !wrote {
			fmt.Fprintf(&b, "adaptation lag (settled minimal-fraction midpoint crossing, shift threshold %.2f):\n", scenario.LagShiftThreshold)
			wrote = true
		}
		for _, l := range lags {
			fmt.Fprintf(&b, "  %-26s @%-7d -> %-18s %s\n", truncate(s.Label, 26), l.At, truncate(l.Label, 18), lagText(l))
		}
	}
	return b.String()
}

func lagText(l scenario.Lag) string {
	fracs := fmt.Sprintf("(min%% %s -> %s)", fmtOr(100*l.Pre, "%.1f", "-"), fmtOr(100*l.Post, "%.1f", "-"))
	switch {
	case !l.Shifted:
		return "no shift " + fracs
	case !l.Crossed:
		return fmt.Sprintf("lag > %d cycles %s", l.Cycles, fracs)
	default:
		return fmt.Sprintf("lag %d cycles %s", l.Cycles, fracs)
	}
}

// fmtOr formats v with format, or returns alt when v is NaN (empty window).
func fmtOr(v float64, format, alt string) string {
	if math.IsNaN(v) {
		return alt
	}
	return strings.TrimSpace(fmt.Sprintf(format, v))
}
