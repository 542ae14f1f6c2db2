package main

import (
	"math"
	"testing"
)

func TestQuantile(t *testing.T) {
	cases := []struct {
		xs   []float64
		q    float64
		want float64
	}{
		{nil, 0.5, 0},
		{[]float64{7}, 0.5, 7},
		{[]float64{3, 1, 2}, 0.5, 2},        // unsorted input, odd count
		{[]float64{4, 1, 3, 2}, 0.5, 2.5},   // even count interpolates
		{[]float64{1, 2, 3, 4, 5}, 0, 1},    // minimum
		{[]float64{1, 2, 3, 4, 5}, 1, 5},    // maximum
		{[]float64{1, 2, 3, 4, 5}, 0.25, 2}, // exact order statistic
		{[]float64{10, 20}, 0.9, 19},        // interpolation weight
		{[]float64{1, 2, 3}, -1, 1},         // q clamps low
		{[]float64{1, 2, 3}, 2, 3},          // q clamps high
	}
	for _, c := range cases {
		if got := quantile(c.xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v, %v) = %v, want %v", c.xs, c.q, got, c.want)
		}
	}
}

func TestQuantileLeavesInputUnsorted(t *testing.T) {
	xs := []float64{3, 1, 2}
	median(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("median reordered its input: %v", xs)
	}
}

func TestMedianResistsOneOutlier(t *testing.T) {
	if got := median([]float64{1.0, 1.01, 0.99, 1.02, 9.0}); got != 1.01 {
		t.Errorf("median = %v, want 1.01", got)
	}
}

func TestCV(t *testing.T) {
	if got := cv([]float64{5}); got != 0 {
		t.Errorf("cv of one sample = %v, want 0", got)
	}
	if got := cv([]float64{2, 2, 2}); got != 0 {
		t.Errorf("cv of equal samples = %v, want 0", got)
	}
	// mean 2, sample sd 1
	if got := cv([]float64{1, 2, 3}); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("cv = %v, want 0.5", got)
	}
}

func TestRelDiff(t *testing.T) {
	if got := relDiff(10, 11); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("relDiff(10, 11) = %v, want 0.1", got)
	}
	if got := relDiff(0, 0); got != 0 {
		t.Errorf("relDiff(0, 0) = %v, want 0", got)
	}
	if got := relDiff(0, 1); !math.IsInf(got, 1) {
		t.Errorf("relDiff(0, 1) = %v, want +Inf", got)
	}
}

// A disturbance that hits different slices in different repetitions must not
// reach the estimate; one that hits the same slice in every repetition must.
func TestQuietSumTakesEverySliceFromItsQuietRepetitions(t *testing.T) {
	if got := quietSum(nil); got != 0 {
		t.Errorf("quietSum of no repetitions = %v, want 0", got)
	}
	reps := make([][]float64, 11)
	for r := range reps {
		reps[r] = []float64{1, 2, 3}
		reps[r][r%3] *= 5 // every repetition is disturbed somewhere
	}
	if got := quietSum(reps); got != 6 {
		t.Errorf("quietSum = %v, want 6: every slice has undisturbed samples", got)
	}
	if lowest := quantile(totals(reps), 0); lowest <= 6 {
		t.Errorf("fastest whole repetition = %v, want it above 6: no repetition ran undisturbed", lowest)
	}
	for r := range reps {
		reps[r] = []float64{1, 4, 3}
	}
	if got := quietSum(reps); got != 8 {
		t.Errorf("quietSum = %v, want 8: a slice that costs more in every repetition counts", got)
	}
	// One pass per repetition (the sweep): the quietQuantile of the passes.
	if got, want := quietSum([][]float64{{12}, {10}, {11}, {30}}), quantile([]float64{12, 10, 11, 30}, quietQuantile); got != want {
		t.Errorf("quietSum of single-slice repetitions = %v, want %v", got, want)
	}
}
