package funcs

import "fmt"

// Shifted returns f with its landscape translated so the global optimum
// moves to `at` (which must lie inside the domain and have the function's
// dimension). Shifting is standard practice in optimization benchmarking:
// it defeats origin-biased solvers. The domain box is unchanged; regions
// shifted outside simply become unreachable, as is conventional.
func Shifted(f Function, at []float64) (Function, error) {
	d := f.Dim(len(at))
	if len(at) != d {
		return Function{}, fmt.Errorf("funcs: shift point has dim %d, function wants %d", len(at), d)
	}
	for _, xi := range at {
		if xi < f.Lo || xi > f.Hi {
			return Function{}, fmt.Errorf("funcs: shift point %v outside domain [%g, %g]", xi, f.Lo, f.Hi)
		}
	}
	orig := f.OptimumAt(d)
	delta := make([]float64, d)
	for i := range delta {
		delta[i] = at[i] - orig[i]
	}
	inner := f.Eval
	shifted := f
	shifted.Name = f.Name + "+shift"
	shifted.FixedDim = d
	shifted.Eval = func(x []float64) float64 {
		tmp := make([]float64, len(x))
		for i := range x {
			tmp[i] = x[i] - delta[i]
		}
		return inner(tmp)
	}
	atCopy := append([]float64(nil), at...)
	shifted.OptimumAt = func(int) []float64 {
		return append([]float64(nil), atCopy...)
	}
	return shifted, nil
}
