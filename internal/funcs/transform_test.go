package funcs

import (
	"math"
	"testing"

	"gossipopt/internal/rng"
)

func TestShiftedMovesOptimum(t *testing.T) {
	at := make([]float64, 10)
	for i := range at {
		at[i] = float64(i) - 4.5
	}
	sh, err := Shifted(Rastrigin, at)
	if err != nil {
		t.Fatal(err)
	}
	if got := sh.Eval(at); math.Abs(got) > 1e-9 {
		t.Fatalf("f(new optimum) = %g", got)
	}
	opt := sh.OptimumAt(10)
	for i := range opt {
		if opt[i] != at[i] {
			t.Fatalf("OptimumAt = %v", opt)
		}
	}
	// The origin is no longer optimal.
	if sh.Eval(make([]float64, 10)) < 1 {
		t.Fatal("origin still near-optimal after shift")
	}
}

func TestShiftedPreservesValuesUpToTranslation(t *testing.T) {
	at := []float64{1, -2, 3, 0, 1, -1, 2, 0.5, -0.5, 1.5}
	sh, err := Shifted(Sphere, at)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(1)
	for i := 0; i < 100; i++ {
		x := make([]float64, 10)
		for j := range x {
			x[j] = r.UniformIn(-5, 5)
		}
		moved := make([]float64, 10)
		for j := range x {
			moved[j] = x[j] + at[j]
		}
		if d := math.Abs(sh.Eval(moved) - Sphere.Eval(x)); d > 1e-9 {
			t.Fatalf("translation broken: delta %g", d)
		}
	}
}

func TestShiftedRejectsBadInput(t *testing.T) {
	if _, err := Shifted(F2, []float64{1, 2, 3}); err == nil {
		t.Fatal("dimension mismatch accepted (F2 is fixed 2-D)")
	}
	out := make([]float64, 10)
	out[0] = 1e9
	if _, err := Shifted(Sphere, out); err == nil {
		t.Fatal("out-of-domain shift accepted")
	}
}

func TestShiftedDimFromPoint(t *testing.T) {
	// Sphere has no FixedDim; a 2-D shift point pins the result to 2-D.
	sh, err := Shifted(Sphere, []float64{1, 2})
	if err == nil {
		if sh.Dim(0) != 2 {
			t.Fatalf("dim = %d", sh.Dim(0))
		}
	}
}
