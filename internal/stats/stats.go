// Package stats provides the descriptive statistics the experiment harness
// reports: streaming (Welford) accumulators for mean/variance/min/max,
// quantiles, and the standard error of the mean. The paper's tables report
// avg/min/max/Var over 50 repetitions; Summary reproduces exactly those
// columns.
package stats

import (
	"fmt"
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

// StdErr returns the standard error of the mean.
func (a *Acc) StdErr() float64 {
	if a.n == 0 {
		return 0
	}
	return a.Std() / math.Sqrt(float64(a.n))
}

// Summary is one row of a paper table: avg, min, max, Var.
type Summary struct {
	N                  int64
	Avg, Min, Max, Var float64
}

// Summarize computes the paper's table columns over samples.
func Summarize(samples []float64) Summary {
	var a Acc
	for _, x := range samples {
		a.Add(x)
	}
	return Summary{N: a.N(), Avg: a.Mean(), Min: a.Min(), Max: a.Max(), Var: a.Var()}
}

// String formats the summary the way the paper's tables print rows.
func (s Summary) String() string {
	return fmt.Sprintf("avg=%.5g min=%.5g max=%.5g var=%.5g (n=%d)",
		s.Avg, s.Min, s.Max, s.Var, s.N)
}

// Quantile returns the q-quantile (0 <= q <= 1) of samples using linear
// interpolation between order statistics. It panics on an empty slice.
func Quantile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		panic("stats: Quantile of empty slice")
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	pos := q * float64(len(s)-1)
	i := int(pos)
	frac := pos - float64(i)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i]*(1-frac) + s[i+1]*frac
}

// Median returns the 0.5-quantile of samples.
func Median(samples []float64) float64 { return Quantile(samples, 0.5) }
