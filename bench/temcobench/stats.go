package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// candidatePercentiles are the percentiles a timing may be reported at,
// ascending.
var candidatePercentiles = []float64{50, 90, 95, 99, 99.9, 99.99}

// highestPercentile picks the highest candidate percentile that still has at
// least ten samples beyond it: a p99 read off 200 samples is the mean of two
// outliers, not a percentile. It returns 50 when even the median has fewer
// than ten samples above it (n < 20), so callers always have a value.
func highestPercentile(n int) float64 {
	best := candidatePercentiles[0]
	for _, p := range candidatePercentiles {
		// The small epsilon keeps 200 samples at p95 (exactly ten beyond)
		// from being lost to 0.05 not being representable.
		if float64(n)*(100-p)/100+1e-9 >= 10 {
			best = p
		}
	}
	return best
}

// percentile returns the p-th percentile (0..100) of an ascending slice by
// linear interpolation between closest ranks; 0 on an empty slice.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if hi >= len(sorted) {
		hi = len(sorted) - 1
	}
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

// tailNote describes a whole-window latency distribution by its median and
// the highest percentile that still has ten samples beyond it, with the
// sample count.
func tailNote(what string, sortedMS []float64) string {
	p := highestPercentile(len(sortedMS))
	return fmt.Sprintf("%s over the whole untraced window: n=%d, p50 %.3f ms, p%g %.3f ms (highest percentile with >= 10 samples beyond it)",
		what, len(sortedMS), percentile(sortedMS, 50), p, percentile(sortedMS, p))
}

// clientTail reports the tail of the untraced window's latencies (ascending,
// in milliseconds) under the per-layer client.* names. They are taken in the
// untraced run too, so that the A/A mode can show the spread that keeps
// latency_p95_ms from being an end-to-end metric.
func clientTail(m metricSet, sortedMS []float64) {
	m.set("client.latency_p95_ms", percentile(sortedMS, 95), len(sortedMS))
	m.set("client.latency_p99_ms", percentile(sortedMS, 99), len(sortedMS))
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 { return percentile(sortedCopy(v), 50) }

// quartiles returns the first and third quartile exactly as Python's
// statistics.quantiles(v, n=4) does (the "exclusive" method), because that is
// what the benchmark's acceptance rule is written in. It needs two values.
func quartiles(v []float64) (q1, q3 float64) {
	s := sortedCopy(v)
	ld := len(s)
	if ld < 2 {
		if ld == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	cut := func(i int) float64 {
		m := ld + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(3)
}

// spread is the distance between the quartiles as a share of the median.
func spread(v []float64) float64 {
	med := median(v)
	if med == 0 {
		return 0
	}
	q1, q3 := quartiles(v)
	return (q3 - q1) / math.Abs(med)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// sample is one timed operation of a measured window.
type sample struct {
	lat time.Duration // its client-observed latency
	ok  bool          // completed, correct, and (where one applies) within the latency limit
}

// latenciesMS returns the latencies of the ok samples, ascending.
func latenciesMS(s []sample) []float64 {
	out := make([]float64, 0, len(s))
	for _, x := range s {
		if x.ok {
			out = append(out, ms(x.lat))
		}
	}
	sort.Float64s(out)
	return out
}

// rate is rowsPerOp for every ok sample divided by seconds: rows completed
// correctly per second over the whole window.
func rate(s []sample, rowsPerOp int, seconds float64) float64 {
	if seconds <= 0 {
		return 0
	}
	rows := 0
	for _, x := range s {
		if x.ok {
			rows += rowsPerOp
		}
	}
	return float64(rows) / seconds
}

// timeSpent is the seconds the samples themselves took, failed ones included.
func timeSpent(s []sample) float64 {
	var d time.Duration
	for _, x := range s {
		d += x.lat
	}
	return d.Seconds()
}
