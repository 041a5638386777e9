package main

import (
	"math"
	"slices"
	"sort"
)

// quantile returns the nearest-rank q-quantile (0 < q <= 1) of xs: the
// smallest sample with at least q of the samples at or below it. xs is
// sorted in place. An empty input yields NaN.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	if !sort.Float64sAreSorted(xs) {
		slices.Sort(xs)
	}
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[max(0, min(i, len(xs)-1))]
}

// median of xs (sorted in place).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// span is one timed interval of a traced request. Spans of one request
// share ID; times are nanoseconds on the tracer's clock.
type span struct {
	ID         uint64
	Name       string
	Start, End int64
}

func (s span) dur() int64 { return s.End - s.Start }

// selfTime is the parent's duration minus the part of it that its
// children cover (overlapping children count once; the parts of a child
// outside the parent do not count).
func selfTime(parent span, children []span) int64 {
	type iv struct{ lo, hi int64 }
	var ivs []iv
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	slices.SortFunc(ivs, func(a, b iv) int {
		switch {
		case a.lo < b.lo:
			return -1
		case a.lo > b.lo:
			return 1
		}
		return 0
	})
	var covered int64
	cur := iv{-1, -1}
	for _, v := range ivs {
		if v.lo > cur.hi {
			covered += cur.hi - cur.lo
			cur = v
			continue
		}
		cur.hi = max(cur.hi, v.hi)
	}
	covered += cur.hi - cur.lo
	return parent.dur() - covered
}
