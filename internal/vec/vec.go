// Package vec provides the small dense-vector helpers the optimization
// services share: copying and clamping []float64 in place.
package vec

// Clone returns a fresh copy of v.
func Clone(v []float64) []float64 {
	out := make([]float64, len(v))
	copy(out, v)
	return out
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
