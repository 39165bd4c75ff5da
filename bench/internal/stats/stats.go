// Package stats holds the few order statistics the benchmark reports:
// medians, ranges and the quartile spread used to decide whether two sets
// of runs can be told apart.
package stats

import "sort"

func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// Median returns the middle value of v (mean of the two middle values for
// an even count); 0 for an empty slice.
func Median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sorted(v)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// MinMax returns the smallest and largest value of v.
func MinMax(v []float64) (lo, hi float64) {
	if len(v) == 0 {
		return 0, 0
	}
	s := sorted(v)
	return s[0], s[len(s)-1]
}

// Quartiles returns the first and third quartile of v exactly as Python's
// statistics.quantiles(v, n=4) does (exclusive method), so the spread
// computed here is the one the PR driver computes. It needs two values.
func Quartiles(v []float64) (q1, q3 float64) {
	if len(v) < 2 {
		m := Median(v)
		return m, m
	}
	s := sorted(v)
	return quartile(s, 1), quartile(s, 3)
}

func quartile(s []float64, i int) float64 {
	const n = 4
	ld := len(s)
	m := ld + 1
	j := i * m / n
	if j < 1 {
		j = 1
	}
	if j > ld-1 {
		j = ld - 1
	}
	delta := float64(i*m - j*n)
	return (s[j-1]*(n-delta) + s[j]*delta) / n
}

// Spread is the distance between the quartiles as a share of the median:
// the run-to-run noise figure every bound is compared against.
func Spread(v []float64) float64 {
	m := Median(v)
	if m == 0 {
		return 0
	}
	q1, q3 := Quartiles(v)
	d := (q3 - q1) / m
	if d < 0 {
		d = -d
	}
	return d
}
