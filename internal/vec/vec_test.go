package vec

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"gossipopt/internal/rng"
)

// norm is the Euclidean norm of v, through Dot.
func norm(v []float64) float64 { return math.Sqrt(Dot(v, v)) }

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

func TestAddSub(t *testing.T) {
	a := []float64{1, 2, 3}
	b := []float64{4, 5, 6}
	dst := make([]float64, 3)
	Add(dst, a, b)
	if !slices.Equal(dst, []float64{5, 7, 9}) {
		t.Fatalf("Add = %v", dst)
	}
	Sub(dst, dst, b)
	if !slices.Equal(dst, a) {
		t.Fatalf("Sub = %v", dst)
	}
}

func TestAddAliasing(t *testing.T) {
	a := []float64{1, 2}
	Add(a, a, a)
	if !slices.Equal(a, []float64{2, 4}) {
		t.Fatalf("aliased Add = %v", a)
	}
}

func TestDotNorm(t *testing.T) {
	a := []float64{3, 4}
	if got := Dot(a, a); got != 25 {
		t.Fatalf("Dot = %v", got)
	}
	if got := norm(a); got != 5 {
		t.Fatalf("norm = %v", got)
	}
}

func TestClamp(t *testing.T) {
	v := []float64{-5, 0, 5}
	Clamp(v, -1, 1)
	if !slices.Equal(v, []float64{-1, 0, 1}) {
		t.Fatalf("Clamp = %v", v)
	}
	w := []float64{-3, 3}
	ClampAbs(w, 2)
	if !slices.Equal(w, []float64{-2, 2}) {
		t.Fatalf("ClampAbs = %v", w)
	}
}

func TestDimensionMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Add with mismatched dims did not panic")
		}
	}()
	Add(make([]float64, 2), make([]float64, 2), make([]float64, 3))
}

// Property: ||a+b|| <= ||a|| + ||b|| (triangle inequality).
func TestTriangleInequality(t *testing.T) {
	r := rng.New(1)
	if err := quick.Check(func(seed uint32) bool {
		rr := rng.New(uint64(seed) ^ r.Uint64())
		a := randVec(rr, 8)
		b := randVec(rr, 8)
		sum := Add(make([]float64, 8), a, b)
		return norm(sum) <= norm(a)+norm(b)+1e-9
	}, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Dot is symmetric and bilinear in the first argument.
func TestDotProperties(t *testing.T) {
	r := rng.New(2)
	if err := quick.Check(func(seed uint32) bool {
		rr := rng.New(uint64(seed) ^ r.Uint64())
		a := randVec(rr, 6)
		b := randVec(rr, 6)
		if math.Abs(Dot(a, b)-Dot(b, a)) > 1e-9 {
			return false
		}
		s := rr.UniformIn(-2, 2)
		sa := make([]float64, len(a))
		for i := range a {
			sa[i] = s * a[i]
		}
		return math.Abs(Dot(sa, b)-s*Dot(a, b)) < 1e-6
	}, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: after ClampAbs(v, m), every |v_i| <= m, and components already
// inside the box are untouched.
func TestClampAbsProperty(t *testing.T) {
	r := rng.New(3)
	if err := quick.Check(func(seed uint32) bool {
		rr := rng.New(uint64(seed) ^ r.Uint64())
		v := randVec(rr, 10)
		orig := Clone(v)
		m := rr.UniformIn(0.1, 5)
		ClampAbs(v, m)
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
