package vec

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"gossipopt/internal/rng"
)

func randVec(r *rng.RNG, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = r.UniformIn(-10, 10)
	}
	return v
}

func TestCloneIndependent(t *testing.T) {
	a := []float64{1, 2, 3}
	b := Clone(a)
	b[0] = 99
	if a[0] != 1 {
		t.Fatal("Clone aliases source")
	}
	if !slices.Equal(Clone(a), a) {
		t.Fatal("Clone not equal to source")
	}
}

func TestClamp(t *testing.T) {
	v := []float64{-5, 0, 5}
	Clamp(v, -1, 1)
	if !slices.Equal(v, []float64{-1, 0, 1}) {
		t.Fatalf("Clamp = %v", v)
	}
}

// Property: after Clamp(v, -m, m), the symmetric box a velocity clamp
// uses, every |v_i| <= m, and components already inside the box are
// untouched.
func TestClampAbsProperty(t *testing.T) {
	r := rng.New(3)
	if err := quick.Check(func(seed uint32) bool {
		rr := rng.New(uint64(seed) ^ r.Uint64())
		v := randVec(rr, 10)
		orig := Clone(v)
		m := rr.UniformIn(0.1, 5)
		Clamp(v, -m, m)
		for i := range v {
			if math.Abs(v[i]) > m {
				return false
			}
			if math.Abs(orig[i]) <= m && v[i] != orig[i] {
				return false
			}
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}
