// Package vec provides small dense-vector helpers used by the optimization
// services: copying, allocation-free arithmetic on []float64 and clamping.
// All binary operations require equal lengths and panic otherwise; length
// mismatches are programming errors, not runtime conditions.
package vec

// Clone returns a fresh copy of v.
func Clone(v []float64) []float64 {
	out := make([]float64, len(v))
	copy(out, v)
	return out
}

func assertSameLen(a, b []float64) {
	if len(a) != len(b) {
		panic("vec: dimension mismatch")
	}
}

// Add stores a+b into dst and returns dst. dst may alias a or b.
func Add(dst, a, b []float64) []float64 {
	assertSameLen(a, b)
	assertSameLen(dst, a)
	for i := range dst {
		dst[i] = a[i] + b[i]
	}
	return dst
}

// Sub stores a-b into dst and returns dst. dst may alias a or b.
func Sub(dst, a, b []float64) []float64 {
	assertSameLen(a, b)
	assertSameLen(dst, a)
	for i := range dst {
		dst[i] = a[i] - b[i]
	}
	return dst
}

// Dot returns the inner product of a and b.
func Dot(a, b []float64) float64 {
	assertSameLen(a, b)
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// Clamp limits every component of v to [lo, hi] in place and returns v.
func Clamp(v []float64, lo, hi float64) []float64 {
	for i := range v {
		if v[i] < lo {
			v[i] = lo
		} else if v[i] > hi {
			v[i] = hi
		}
	}
	return v
}

// ClampAbs limits every component of v to [-m, m] in place and returns v.
// This is the velocity-clamping rule used by PSO (per-dimension vmax).
func ClampAbs(v []float64, m float64) []float64 { return Clamp(v, -m, m) }
