package sweep

import (
	"fmt"
	"sort"
	"strings"

	"flexvc/internal/results"
	"flexvc/internal/stats"
)

// Report is the outcome of one experiment run (one paper figure): its
// sections' series, in run order. The rendered form of a run is the markdown
// of its exported results (RenderResultsMarkdown).
type Report struct {
	ID       string
	Title    string
	Sections []Section
}

// Section is one panel of a report (e.g. Figure 5 has UN, BURSTY-UN and ADV
// panels).
type Section struct {
	Title  string
	Series []Series
}

// The rest of this file renders exported results files (internal/results) so
// `figures render` can regenerate every table — including the
// paper-vs-measured summaries in EXPERIMENTS.md — without re-simulating.

// rebuiltSection is one section of an experiment reassembled from records.
type rebuiltSection struct {
	index  int
	title  string
	series []Series
	// seeds is the replication count of the section's fullest point; points
	// with fewer are flagged incomplete.
	seeds int
	// incomplete lists human-readable descriptions of missing replications
	// (e.g. a sweep that was interrupted and never resumed).
	incomplete []string
}

// rebuildSections groups an exported results file back into ordered sections,
// variants and points, aggregating the per-seed records of every point in
// replication order — exactly the aggregation the live sweep performs, so the
// rebuilt series equal the ones the run itself returned.
func rebuildSections(f *results.File) ([]rebuiltSection, error) {
	type pointKey struct{ si, vi, pi int }
	points := map[pointKey][]results.Record{}
	secTitle := map[int]string{}
	varLabel := map[[2]int]string{}
	for _, r := range f.Records {
		k := pointKey{r.SectionIndex, r.VariantIndex, r.PointIndex}
		points[k] = append(points[k], r)
		if prev, ok := secTitle[r.SectionIndex]; ok && prev != r.Section {
			return nil, fmt.Errorf("sweep: results file %s: section %d named both %q and %q", f.Experiment, r.SectionIndex, prev, r.Section)
		}
		secTitle[r.SectionIndex] = r.Section
		vk := [2]int{r.SectionIndex, r.VariantIndex}
		if prev, ok := varLabel[vk]; ok && prev != r.Variant {
			return nil, fmt.Errorf("sweep: results file %s: variant %d of section %d labelled both %q and %q", f.Experiment, r.VariantIndex, r.SectionIndex, prev, r.Variant)
		}
		varLabel[vk] = r.Variant
	}

	secIdx := make([]int, 0, len(secTitle))
	for si := range secTitle {
		secIdx = append(secIdx, si)
	}
	sort.Ints(secIdx)

	var sections []rebuiltSection
	for _, si := range secIdx {
		sec := rebuiltSection{index: si, title: secTitle[si]}
		// A point is incomplete when its seeds are not 0..n-1 (interior gap)
		// or when it has fewer replications than the fullest point of its
		// section (trailing gap, e.g. an interrupted sweep never resumed).
		type pointMeta struct {
			label string
			load  float64
			seeds int
		}
		var metas []pointMeta
		varIdx := []int{}
		for vk := range varLabel {
			if vk[0] == si {
				varIdx = append(varIdx, vk[1])
			}
		}
		sort.Ints(varIdx)
		for _, vi := range varIdx {
			s := Series{Label: varLabel[[2]int{si, vi}]}
			pointIdx := []int{}
			for k := range points {
				if k.si == si && k.vi == vi {
					pointIdx = append(pointIdx, k.pi)
				}
			}
			sort.Ints(pointIdx)
			for _, pi := range pointIdx {
				recs := points[pointKey{si, vi, pi}]
				sort.Slice(recs, func(a, b int) bool { return recs[a].Seed < recs[b].Seed })
				present := map[int]bool{}
				maxSeed := 0
				per := make([]stats.Result, 0, len(recs))
				for _, r := range recs {
					if present[r.Seed] {
						sec.incomplete = append(sec.incomplete,
							fmt.Sprintf("%s / %s @ load %.2f: duplicate seed %d", sec.title, s.Label, r.Load, r.Seed))
					}
					present[r.Seed] = true
					if r.Seed > maxSeed {
						maxSeed = r.Seed
					}
					per = append(per, r.Result)
				}
				for i := 0; i <= maxSeed; i++ {
					if !present[i] {
						sec.incomplete = append(sec.incomplete,
							fmt.Sprintf("%s / %s @ load %.2f: missing seed %d", sec.title, s.Label, recs[0].Load, i))
					}
				}
				if len(present) > sec.seeds {
					sec.seeds = len(present)
				}
				metas = append(metas, pointMeta{label: s.Label, load: recs[0].Load, seeds: len(present)})
				s.Points = append(s.Points, Point{Load: recs[0].Load, Result: stats.Aggregate(per)})
			}
			sec.series = append(sec.series, s)
		}
		for _, m := range metas {
			if m.seeds < sec.seeds {
				sec.incomplete = append(sec.incomplete,
					fmt.Sprintf("%s / %s @ load %.2f: %d of %d replications recorded", sec.title, m.label, m.load, m.seeds, sec.seeds))
			}
		}
		sections = append(sections, sec)
	}
	return sections, nil
}

// RenderResultsMarkdown renders an exported results file as the markdown
// EXPERIMENTS.md embeds: per section, the full load/latency table plus a
// saturation-throughput summary with paper-vs-measured delta columns (where
// the paper reference table carries a value for the variant).
func RenderResultsMarkdown(f *results.File) (string, error) {
	sections, err := rebuildSections(f)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "## %s: %s\n\n", f.Experiment, exportTitle(f))
	// The revision is deliberately omitted here (it lives in the results
	// file): the nightly drift gate diffs this rendering against a committed
	// report, and only simulation-output drift should trip it.
	fmt.Fprintf(&b, "Scale `%s`, %d seed(s) per point; rendered from `%s.results.json` by `figures render` — no re-simulation.\n",
		f.Scale, f.Seeds, f.Experiment)
	fmt.Fprintf(&b, "Latency percentiles carry at most %.2f%% relative error (see `stats.PercentileErrorBound`); means and throughput are exact.\n",
		100*stats.PercentileErrorBound)

	for _, sec := range sections {
		fmt.Fprintf(&b, "\n### %s\n\n", sec.title)
		for _, inc := range sec.incomplete {
			fmt.Fprintf(&b, "**INCOMPLETE:** %s\n\n", inc)
		}
		renderLoadTableMarkdown(&b, sec.series)
		renderSaturationMarkdown(&b, f.Experiment, sec)
		RenderTransientMarkdown(&b, sec.series)
	}
	return b.String(), nil
}

// renderLoadTableMarkdown writes the offered-load table: per variant, the
// accepted load and average latency at each offered load. Sections with a
// single load point (the bar-chart figures) skip it — the saturation summary
// carries all of their information.
func renderLoadTableMarkdown(b *strings.Builder, series []Series) {
	loadSet := map[float64]bool{}
	for _, s := range series {
		for _, p := range s.Points {
			loadSet[p.Load] = true
		}
	}
	if len(loadSet) <= 1 {
		return
	}
	loads := make([]float64, 0, len(loadSet))
	for l := range loadSet {
		loads = append(loads, l)
	}
	sort.Float64s(loads)

	fmt.Fprintf(b, "| offered |")
	for _, s := range series {
		fmt.Fprintf(b, " %s acc | lat |", s.Label)
	}
	fmt.Fprintf(b, "\n|---|")
	for range series {
		fmt.Fprintf(b, "---|---|")
	}
	fmt.Fprintln(b)
	for _, load := range loads {
		fmt.Fprintf(b, "| %.2f |", load)
		for _, s := range series {
			found := false
			for _, p := range s.Points {
				if p.Load == load {
					mark := ""
					if p.Result.Deadlock {
						mark = " *DL*"
					}
					fmt.Fprintf(b, " %.3f%s | %.1f |", p.Result.AcceptedLoad, mark, p.Result.AvgLatency)
					found = true
					break
				}
			}
			if !found {
				fmt.Fprintf(b, " - | - |")
			}
		}
		fmt.Fprintln(b)
	}
	fmt.Fprintln(b)
}

// renderSaturationMarkdown writes the saturation-throughput summary: measured
// max accepted load with the latency percentiles at that point (recomputed
// from the point's merged histogram where recorded), improvement relative to
// the section's first variant (the baseline), the paper's improvement for
// that variant where the reference table has one, and the measured-minus-
// paper delta in percentage points.
func renderSaturationMarkdown(b *strings.Builder, experiment string, sec rebuiltSection) {
	if len(sec.series) == 0 {
		return
	}
	baseline := sec.series[0].MaxAccepted()
	fmt.Fprintf(b, "| variant | max accepted | p50 | p95 | p99 | vs %s | paper (approx) | delta (pp) |\n|---|---|---|---|---|---|---|---|\n",
		sec.series[0].Label)
	anyRef := false
	for i, s := range sec.series {
		v := s.MaxAccepted()
		rel := 0.0
		if baseline > 0 {
			rel = v/baseline - 1
		}
		relCol := "—"
		if i > 0 {
			relCol = fmt.Sprintf("%+.1f%%", 100*rel)
		}
		paperCol, deltaCol := "-", "-"
		if ref, ok := PaperImprovement(experiment, sec.title, s.Label); ok && i > 0 {
			anyRef = true
			paperCol = fmt.Sprintf("%+.1f%%", 100*ref)
			deltaCol = fmt.Sprintf("%+.1f", 100*(rel-ref))
		}
		flag := ""
		if len(s.Points) > 0 && s.Points[len(s.Points)-1].Result.Deadlock {
			flag = " (deadlock)"
		}
		p50, p95, p99 := percentilesAtMax(s)
		fmt.Fprintf(b, "| %s | %.3f%s | %.1f | %.1f | %.1f | %s | %s | %s |\n",
			s.Label, v, flag, p50, p95, p99, relCol, paperCol, deltaCol)
	}
	if anyRef {
		fmt.Fprintf(b, "\n%s\n", paperReferenceCaveat)
	}
	fmt.Fprintln(b)
}

// percentilesAtMax returns the latency percentiles of the series' point with
// the highest accepted load: recomputed from the point's serialized histogram
// where one was recorded (the pooled percentiles of all merged replications,
// within stats.PercentileErrorBound), falling back to the averaged fields on
// legacy results.
func percentilesAtMax(s Series) (p50, p95, p99 float64) {
	var best *Point
	for i := range s.Points {
		if best == nil || s.Points[i].Result.AcceptedLoad > best.Result.AcceptedLoad {
			best = &s.Points[i]
		}
	}
	if best == nil {
		return 0, 0, 0
	}
	r := best.Result
	if r.Hist != nil && r.Hist.Total() > 0 {
		return r.Hist.Quantile(0.50), r.Hist.Quantile(0.95), r.Hist.Quantile(0.99)
	}
	return r.P50, r.P95, r.P99
}

// exportTitle is the export's title; untitled (schema v1) exports fall back
// to their experiment id.
func exportTitle(f *results.File) string {
	if f.Title == "" {
		return f.Experiment
	}
	return f.Title
}
