package main

import (
	"math"
	"testing"
)

func TestPercentileKnownInputs(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3} // unsorted on purpose
	for _, tc := range []struct {
		p, want float64
	}{
		{0, 1}, {25, 2}, {50, 3}, {75, 4}, {100, 5}, {10, 1.4}, {99, 4.96},
	} {
		if got := percentile(xs, tc.p); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("percentile(%v, %v) = %v, want %v", xs, tc.p, got, tc.want)
		}
	}
	if xs[0] != 5 {
		t.Fatal("percentile sorted its input in place")
	}
}

func TestMedianKnownInputs(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{7}, 7},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{-1, 1}, 0},
	} {
		if got := median(tc.xs); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
}

func TestEmptyAndInvalidAreNaN(t *testing.T) {
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing is not NaN")
	}
	if !math.IsNaN(percentile([]float64{1}, 101)) || !math.IsNaN(percentile([]float64{1}, -1)) {
		t.Error("out-of-range percentile is not NaN")
	}
}

func TestMedianOfSlices(t *testing.T) {
	// Three slices; the middle one is disturbed. Its p99 must not move
	// the estimate, and samples after the last cut are ignored.
	xs := []float64{1, 2, 3, 4, 100, 200, 300, 400, 1, 2, 3, 5, 9999}
	cuts := []int{4, 8, 12}
	if got, want := medianOfSlices(xs, cuts, 100, nil), 5.0; got != want {
		t.Errorf("median of slice maxima = %v, want %v", got, want)
	}
	if got, want := medianOfSlices(xs, cuts, 0, nil), 1.0; got != want {
		t.Errorf("median of slice minima = %v, want %v", got, want)
	}
	// Dropping the two undisturbed slices leaves the disturbed one.
	if got, want := medianOfSlices(xs, cuts, 100, []bool{false, true, false}), 400.0; got != want {
		t.Errorf("median of the kept slice's maximum = %v, want %v", got, want)
	}
}

func TestCalmKeepsTheLeastStolenSlices(t *testing.T) {
	for _, tc := range []struct {
		steal []uint64
		want  []bool
	}{
		{[]uint64{0, 0, 0}, []bool{true, true, true}},
		{[]uint64{3, 0, 9, 1}, []bool{false, true, false, true}},
		{[]uint64{2, 2, 5}, []bool{true, true, false}},
	} {
		got := calm(tc.steal)
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("calm(%v) = %v, want %v", tc.steal, got, tc.want)
				break
			}
		}
	}
	if got := kept([]float64{1, 2, 3}, []bool{true, false, true}); len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Errorf("kept = %v", got)
	}
}
