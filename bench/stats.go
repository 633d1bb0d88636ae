package main

import (
	"math"
	"sort"

	"github.com/defragdht/d2/internal/stats"
)

// quantile returns the q-th quantile (0 ≤ q ≤ 1) by linear interpolation
// between closest ranks.
func quantile(v []float64, q float64) float64 { return stats.Percentile(v, 100*q) }

func median(v []float64) float64 { return stats.Percentile(v, 50) }

// quartiles returns Q1, median and Q3 the way Python's
// statistics.quantiles(values, n=4) does (the "exclusive" method), which
// is what the benchmark contract's spread check uses.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// spread is the interquartile range as a share of the median.
func spread(v []float64) float64 {
	q1, q2, q3 := quartiles(v)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}

// durationsMs converts nanosecond samples to sorted milliseconds.
func durationsMs(ns []int64) []float64 {
	out := make([]float64, len(ns))
	for i, d := range ns {
		out[i] = float64(d) / 1e6
	}
	sort.Float64s(out)
	return out
}

// done is one completed unit of closed-loop work: when it finished
// (ns since the phase began) and what it delivered.
type done struct {
	at         int64
	ops, bytes int64
}

// windowMedians cuts a phase into whole one-second windows, sums what
// completed in each, and returns the median window's ops/s and bytes/s.
// A median of windows rides out a slow second (a GC cycle, a noisy
// neighbour, a journal commit) that a mean over the whole phase would
// fold into the result. With no whole window it falls back to the mean.
func windowMedians(events []done, seconds float64) (opsPerS, bytesPerS float64) {
	n := int(seconds)
	if n < 1 {
		var ops, bytes int64
		for _, e := range events {
			ops += e.ops
			bytes += e.bytes
		}
		return float64(ops) / seconds, float64(bytes) / seconds
	}
	ops, bytes := make([]float64, n), make([]float64, n)
	for _, e := range events {
		if w := int(e.at / 1e9); w >= 0 && w < n {
			ops[w] += float64(e.ops)
			bytes[w] += float64(e.bytes)
		}
	}
	return median(ops), median(bytes)
}
