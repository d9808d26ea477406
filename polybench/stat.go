package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs (the mean of the middle two for an
// even count), 0 for no samples.
func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// nearestRank returns the nearest-rank q-quantile of ascending xs and its
// 1-based rank.
func nearestRank(s []float64, q float64) (float64, int) {
	n := len(s)
	if n == 0 {
		return 0, 0
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return s[rank-1], rank
}

// tailLadder lists the percentiles a tail latency may report, highest first.
var tailLadder = []float64{0.999, 0.99, 0.95, 0.9, 0.75, 0.5}

// minBeyond is how many samples must lie above a reported percentile.
const minBeyond = 10

// tail is a latency percentile chosen by the ten-samples-beyond rule.
type tail struct {
	Q      float64 // the percentile reported (1 = the maximum)
	Value  float64
	Beyond int // samples ranked above it
	N      int // samples in total
}

// tailPercentile returns the highest ladder percentile that has at least
// minBeyond samples ranked above it. With too few samples for any ladder
// step it reports the maximum (Q = 1, Beyond = 0), so the caller can say
// that the tail is unresolved.
func tailPercentile(xs []float64) tail {
	s := sorted(xs)
	n := len(s)
	for _, q := range tailLadder {
		v, rank := nearestRank(s, q)
		if n-rank >= minBeyond {
			return tail{Q: q, Value: v, Beyond: n - rank, N: n}
		}
	}
	if n == 0 {
		return tail{}
	}
	return tail{Q: 1, Value: s[n-1], N: n}
}

// quartiles returns the first, second and third quartile of xs by the
// "exclusive" method of Python's statistics.quantiles(xs, n=4), the
// method the steadiness gate is defined with. It needs two samples.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	ld := len(s)
	if ld < 2 {
		if ld == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	const n = 4
	m := ld + 1
	var out [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		out[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return out[0], out[1], out[2]
}

// spread is the interquartile distance of xs as a share of its median.
func spread(xs []float64) float64 {
	q1, _, q3 := quartiles(xs)
	med := median(xs)
	if med == 0 {
		return 0
	}
	return math.Abs(q3-q1) / math.Abs(med)
}

// hmean is the harmonic mean of the positive values of xs. It sums in
// ascending order, so cells reported in a different order (parallel shards
// finish in any order) give a bit-identical result.
func hmean(xs []float64) float64 {
	var inv float64
	n := 0
	for _, v := range sorted(xs) {
		if v > 0 {
			inv += 1 / v
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return float64(n) / inv
}
