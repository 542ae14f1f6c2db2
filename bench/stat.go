package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (q in [0,1]) of xs by linear interpolation
// between order statistics (the "inclusive" method: q=0 is the minimum, q=1
// the maximum). It sorts a copy; an empty input yields 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo]*(1-frac) + s[lo+1]*frac
}

// median is the 0.5-quantile.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quietQuantile is the order statistic the time metrics report. The reference
// host is shared: neighbours slow the same code down by 10-40% for
// milliseconds to minutes at a time and never speed it up, so the low end of
// repeated identical samples is the program's own cost and the rest is the
// neighbours'. A tenth, not the minimum, so that one freak sample decides
// nothing and the number of samples hardly matters.
const quietQuantile = 0.1

// quietSum estimates what one repetition costs on an undisturbed host.
// reps[r][i] is the cost of slice i in repetition r; every repetition does
// the same work slice by slice, so slice i of all repetitions are samples of
// one quantity. The estimate is the sum over slices of the quietQuantile of
// those samples: a disturbance that lasts shorter than a repetition spoils
// some slices of it, not the whole of it.
func quietSum(reps [][]float64) float64 {
	if len(reps) == 0 {
		return 0
	}
	var total float64
	col := make([]float64, len(reps))
	for i := range reps[0] {
		for r := range reps {
			col[r] = reps[r][i]
		}
		total += quantile(col, quietQuantile)
	}
	return total
}

// sum adds xs up.
func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// mean returns the arithmetic mean (0 for an empty input).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

// cv returns the coefficient of variation (sample standard deviation over the
// mean); 0 when fewer than two samples or a zero mean make it undefined.
func cv(xs []float64) float64 {
	m := mean(xs)
	if len(xs) < 2 || m == 0 {
		return 0
	}
	var ss float64
	for _, x := range xs {
		ss += (x - m) * (x - m)
	}
	return math.Sqrt(ss/float64(len(xs)-1)) / math.Abs(m)
}

// relDiff is |a-b|/a, the selfcheck's distance between two runs of one
// metric; two zeros agree exactly, a zero base against a non-zero value is
// infinitely far.
func relDiff(a, b float64) float64 {
	if a == b {
		return 0
	}
	if a == 0 {
		return math.Inf(1)
	}
	return math.Abs(a-b) / math.Abs(a)
}
