package main

import (
	"math"
	"sort"
)

// median returns the middle of xs (the mean of the two middles for an
// even count), NaN when empty. xs is not modified.
func median(xs []float64) float64 {
	return percentile(xs, 50)
}

// percentile returns the p-th percentile of xs by linear interpolation
// between closest ranks (the "inclusive" definition: percentile 0 is the
// minimum, 100 the maximum). NaN when xs is empty. xs is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 || p < 0 || p > 100 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return sortedPercentile(s, p)
}

// sortedPercentile is percentile over an already ascending slice.
func sortedPercentile(s []float64, p float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	rank := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s[lo]
	}
	return s[lo] + (s[hi]-s[lo])*(rank-float64(lo))
}

// medianOfSlices cuts xs at the ascending end indices cuts, takes the
// p-th percentile within each slice, and returns the median of those over
// the slices keep marks (all slices when keep is nil): a tail estimate
// that one disturbed slice cannot move. Samples after the last cut are
// ignored.
func medianOfSlices(xs []float64, cuts []int, p float64, keep []bool) float64 {
	var per []float64
	start := 0
	for i, end := range cuts {
		if end > start && (keep == nil || keep[i]) {
			per = append(per, percentile(xs[start:end], p))
		}
		start = end
	}
	return median(per)
}

// calm marks the measurement slices whose stolen CPU time is at most the
// median slice's: the half (or more, with ties) of the run in which the
// hypervisor took the least time from this VM. With no steal at all every
// slice is kept.
func calm(steal []uint64) []bool {
	s := make([]float64, len(steal))
	for i, v := range steal {
		s[i] = float64(v)
	}
	limit := median(s)
	keep := make([]bool, len(steal))
	for i, v := range s {
		keep[i] = v <= limit
	}
	return keep
}

// kept returns the elements of xs that keep marks.
func kept(xs []float64, keep []bool) []float64 {
	var out []float64
	for i, x := range xs {
		if keep[i] {
			out = append(out, x)
		}
	}
	return out
}
