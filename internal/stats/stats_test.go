package stats

import (
	"math"
	"testing"
	"testing/quick"

	"gossipopt/internal/rng"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestAccBasics(t *testing.T) {
	var a Acc
	for _, x := range []float64{1, 2, 3, 4, 5} {
		a.Add(x)
	}
	if a.N() != 5 {
		t.Fatalf("N = %d", a.N())
	}
	if !almostEq(a.Mean(), 3, 1e-12) {
		t.Fatalf("Mean = %v", a.Mean())
	}
	if a.Min() != 1 || a.Max() != 5 {
		t.Fatalf("Min/Max = %v/%v", a.Min(), a.Max())
	}
	if !almostEq(a.Var(), 2.5, 1e-12) {
		t.Fatalf("Var = %v", a.Var())
	}
}

func TestAccEmpty(t *testing.T) {
	var a Acc
	if a.Mean() != 0 || a.Var() != 0 || a.Std() != 0 {
		t.Fatal("empty accumulator not zero")
	}
}

func TestAccSingle(t *testing.T) {
	var a Acc
	a.Add(7)
	if a.Mean() != 7 || a.Min() != 7 || a.Max() != 7 || a.Var() != 0 {
		t.Fatal("single-sample accumulator wrong")
	}
}

func TestQuantile(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5}
	cases := []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5},
	}
	for _, c := range cases {
		if got := Quantile(s, c.q); !almostEq(got, c.want, 1e-12) {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if Median(s) != 3 {
		t.Fatal("Median wrong")
	}
}

func TestQuantileUnsortedInput(t *testing.T) {
	s := []float64{5, 1, 3, 2, 4}
	if got := Quantile(s, 0.5); got != 3 {
		t.Fatalf("Quantile of unsorted = %v", got)
	}
	// The input slice must not be reordered.
	if s[0] != 5 {
		t.Fatal("Quantile mutated input")
	}
}

func TestQuantilePanicsEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on empty slice")
		}
	}()
	Quantile(nil, 0.5)
}

// Property: variance is never negative and mean lies in [min, max].
func TestAccInvariants(t *testing.T) {
	r := rng.New(11)
	if err := quick.Check(func(seed uint32, nRaw uint8) bool {
		rr := rng.New(uint64(seed) ^ r.Uint64())
		n := int(nRaw%50) + 1
		var a Acc
		for i := 0; i < n; i++ {
			a.Add(rr.UniformIn(-1e6, 1e6))
		}
		return a.Var() >= 0 && a.Mean() >= a.Min()-1e-9 && a.Mean() <= a.Max()+1e-9
	}, nil); err != nil {
		t.Fatal(err)
	}
}
