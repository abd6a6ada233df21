// Package stats provides the descriptive statistics the experiment harness
// reports: a streaming (Welford) accumulator for mean/variance/min/max, the
// columns of the paper's tables over 50 repetitions, and quantiles.
package stats

import (
	"math"
	"sort"
)

// Acc is a streaming accumulator using Welford's algorithm. The zero value
// is ready to use.
type Acc struct {
	n        int64
	mean, m2 float64
	min, max float64
}

// Add incorporates x into the accumulator.
func (a *Acc) Add(x float64) {
	a.n++
	if a.n == 1 {
		a.min, a.max = x, x
	} else {
		if x < a.min {
			a.min = x
		}
		if x > a.max {
			a.max = x
		}
	}
	d := x - a.mean
	a.mean += d / float64(a.n)
	a.m2 += d * (x - a.mean)
}

// N returns the number of samples.
func (a *Acc) N() int64 { return a.n }

// Mean returns the sample mean (0 if empty).
func (a *Acc) Mean() float64 { return a.mean }

// Min returns the smallest sample (0 if empty).
func (a *Acc) Min() float64 { return a.min }

// Max returns the largest sample (0 if empty).
func (a *Acc) Max() float64 { return a.max }

// Var returns the unbiased sample variance (0 for n < 2).
func (a *Acc) Var() float64 {
	if a.n < 2 {
		return 0
	}
	return a.m2 / float64(a.n-1)
}

// Std returns the sample standard deviation.
func (a *Acc) Std() float64 { return math.Sqrt(a.Var()) }

// Quantile returns the q-quantile (0 <= q <= 1) of samples using linear
// interpolation between order statistics. It panics on an empty slice.
func Quantile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		panic("stats: Quantile of empty slice")
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	pos := min(max(q, 0), 1) * float64(len(s)-1)
	i := int(pos)
	if frac := pos - float64(i); frac > 0 {
		return s[i]*(1-frac) + s[i+1]*frac
	}
	return s[i]
}

// Median returns the 0.5-quantile of samples.
func Median(samples []float64) float64 { return Quantile(samples, 0.5) }
