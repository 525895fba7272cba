package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must rank above a named percentile for
// it to be trusted: a p99 needs at least 1000 samples, a p90 at least 100.
const minBeyond = 10

// quantile is one nearest-rank percentile of an exact sample set, with
// the sample count it rests on.
type quantile struct {
	Value  float64 // the sample at rank ceil(q*N) for the requested q
	N      int     // samples
	Beyond int     // samples ranked strictly above Value's rank
}

// Enough reports whether at least minBeyond samples rank above the
// percentile; a percentile without them is flagged in the report.
func (q quantile) Enough() bool { return q.Beyond >= minBeyond }

// percentile returns the nearest-rank q-quantile of xs. xs is not
// modified. An empty sample set yields a zero quantile with N == 0.
func percentile(xs []float64, q float64) quantile {
	n := len(xs)
	if n == 0 {
		return quantile{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q * float64(n)))
	rank = max(1, min(rank, n))
	return quantile{Value: s[rank-1], N: n, Beyond: n - rank}
}

// median is the nearest-rank median of xs, 0 for no samples.
func median(xs []float64) float64 { return percentile(xs, 0.5).Value }

// geomean is the geometric mean of xs, 0 for no samples or a sample
// that is not positive.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// describe renders a percentile with its sample count, flagging one
// that has fewer than minBeyond samples above it.
func (q quantile) describe() string {
	s := fmt.Sprintf("n=%d beyond=%d", q.N, q.Beyond)
	if !q.Enough() {
		s += " FEW-SAMPLES"
	}
	return s
}

// ratio returns num/den, or 0 when den is 0 (a layer the workload does
// not exercise).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// ms converts nanoseconds to milliseconds.
func ms(ns int64) float64 { return float64(ns) / 1e6 }
