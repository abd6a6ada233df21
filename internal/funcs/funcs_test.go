package funcs

import (
	"math"
	"testing"
	"testing/quick"

	"gossipopt/internal/rng"
)

func TestOptimumValues(t *testing.T) {
	for _, f := range ExtendedSuite {
		d := f.Dim(0)
		x := f.OptimumAt(d)
		if len(x) != d {
			t.Fatalf("%s: OptimumAt(%d) has dim %d", f.Name, d, len(x))
		}
		got := f.Eval(x)
		if math.Abs(got-f.OptimumValue) > 1e-6 {
			t.Errorf("%s: f(x*) = %g, want %g", f.Name, got, f.OptimumValue)
		}
	}
}

func TestOptimumInsideDomain(t *testing.T) {
	for _, f := range ExtendedSuite {
		for _, xi := range f.OptimumAt(f.Dim(0)) {
			if xi < f.Lo || xi > f.Hi {
				t.Errorf("%s: optimum coordinate %g outside [%g, %g]", f.Name, xi, f.Lo, f.Hi)
			}
		}
	}
}

// Property: every function is nonnegative over its domain (all are shifted
// to have minimum value 0).
func TestNonNegativeOverDomain(t *testing.T) {
	r := rng.New(99)
	for _, f := range ExtendedSuite {
		f := f
		d := f.Dim(0)
		if err := quick.Check(func(seed uint32) bool {
			rr := rng.New(uint64(seed) ^ r.Uint64())
			x := make([]float64, d)
			for i := range x {
				x[i] = rr.UniformIn(f.Lo, f.Hi)
			}
			v := f.Eval(x)
			return v >= -1e-9 && !math.IsNaN(v) && !math.IsInf(v, 0)
		}, &quick.Config{MaxCount: 200}); err != nil {
			t.Errorf("%s: %v", f.Name, err)
		}
	}
}

func TestSphereKnownValues(t *testing.T) {
	cases := []struct {
		x    []float64
		want float64
	}{
		{[]float64{0, 0}, 0},
		{[]float64{1, 2}, 5},
		{[]float64{-3}, 9},
	}
	for _, c := range cases {
		if got := Sphere.Eval(c.x); got != c.want {
			t.Errorf("Sphere(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}

func TestRosenbrockKnownValues(t *testing.T) {
	if got := Rosenbrock.Eval([]float64{1, 1, 1}); got != 0 {
		t.Errorf("Rosenbrock(1,1,1) = %v", got)
	}
	// f(0,0) = 100*0 + 1 = 1
	if got := Rosenbrock.Eval([]float64{0, 0}); got != 1 {
		t.Errorf("Rosenbrock(0,0) = %v", got)
	}
}

func TestF2MatchesRosenbrock2D(t *testing.T) {
	r := rng.New(5)
	for i := 0; i < 100; i++ {
		x := []float64{r.UniformIn(-2, 2), r.UniformIn(-2, 2)}
		if f2, rb := F2.Eval(x), Rosenbrock.Eval(x); math.Abs(f2-rb) > 1e-12 {
			t.Fatalf("F2(%v)=%v != Rosenbrock=%v", x, f2, rb)
		}
	}
}

func TestF2IsFixed2D(t *testing.T) {
	if F2.Dim(10) != 2 {
		t.Fatalf("F2.Dim(10) = %d, want 2", F2.Dim(10))
	}
}

func TestZakharovKnownValues(t *testing.T) {
	// x = (1, 0): s1 = 1, s2 = 0.5 -> 1 + 0.25 + 0.0625
	got := Zakharov.Eval([]float64{1, 0})
	want := 1 + 0.25 + 0.0625
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("Zakharov(1,0) = %v, want %v", got, want)
	}
}

func TestGriewankKnownValues(t *testing.T) {
	// Origin: 1 + 0 - 1 = 0.
	if got := Griewank.Eval(make([]float64, 10)); got != 0 {
		t.Errorf("Griewank(0) = %v", got)
	}
}

func TestSchafferRippleFloor(t *testing.T) {
	// The first local-minimum ring of Schaffer F6 sits at ||x|| = π (where
	// sin²||x|| = 0) with value 0.5·(1 − 1/(1+0.001π²)²) ≈ 0.0097. This
	// floor matches the paper's tables where Schaffer min = max = 0.00972.
	d := 10
	x := make([]float64, d)
	x[0] = math.Pi
	got := Schaffer.Eval(x)
	if got < 0.008 || got > 0.011 {
		t.Errorf("Schaffer ring value = %v, want ≈ 0.0097", got)
	}
}

func TestRastriginKnownValues(t *testing.T) {
	// x_i = 1 for all i: each term is 1 - 10*cos(2π) = 1 - 10, plus 10d.
	d := 4
	x := make([]float64, d)
	for i := range x {
		x[i] = 1
	}
	got := Rastrigin.Eval(x)
	want := float64(d) // 10d + d(1-10) = d
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("Rastrigin(1...) = %v, want %v", got, want)
	}
}

func TestAckleyOrigin(t *testing.T) {
	if got := Ackley.Eval(make([]float64, 10)); math.Abs(got) > 1e-12 {
		t.Errorf("Ackley(0) = %v", got)
	}
}

func TestByName(t *testing.T) {
	for _, want := range ExtendedSuite {
		name := want.Name
		f, err := ByName(name)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		if f.Name != name {
			t.Fatalf("ByName(%q) returned %q", name, f.Name)
		}
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("ByName accepted unknown name")
	}
}

func TestPaperSuiteOrder(t *testing.T) {
	want := []string{"F2", "Zakharov", "Rosenbrock", "Sphere", "Schaffer", "Griewank"}
	if len(PaperSuite) != len(want) {
		t.Fatalf("PaperSuite has %d functions", len(PaperSuite))
	}
	for i, f := range PaperSuite {
		if f.Name != want[i] {
			t.Errorf("PaperSuite[%d] = %s, want %s", i, f.Name, want[i])
		}
	}
}

func TestDimResolution(t *testing.T) {
	if Sphere.Dim(0) != 10 {
		t.Errorf("Sphere.Dim(0) = %d", Sphere.Dim(0))
	}
	if Sphere.Dim(5) != 5 {
		t.Errorf("Sphere.Dim(5) = %d", Sphere.Dim(5))
	}
}

func TestQualityEqualsEvalForZeroOptima(t *testing.T) {
	x := []float64{1, 2, 3}
	if Sphere.Quality(x) != Sphere.Eval(x) {
		t.Fatal("Quality != Eval for zero-optimum function")
	}
}

// BenchmarkEval times one evaluation of each objective at its default
// dimension, cycling through 4096 points drawn uniformly from its domain:
// more arguments than a branch predictor learns, so the branches an
// objective's math takes vary as they do in a search. (Over a few dozen
// points the predictor learns math.Cos's octant branches, and that
// benchmark would time a case a search never presents.)
func BenchmarkEval(b *testing.B) {
	for _, f := range ExtendedSuite {
		b.Run(f.Name, func(b *testing.B) {
			r := rng.New(1)
			xs := make([][]float64, 4096)
			for i := range xs {
				xs[i] = make([]float64, f.Dim(0))
				for j := range xs[i] {
					xs[i][j] = r.UniformIn(f.Lo, f.Hi)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			var sink float64
			for i := 0; i < b.N; i++ {
				sink = f.Eval(xs[i%len(xs)])
			}
			_ = sink
		})
	}
}

// Property: all origin-optimum paper functions are invariant under
// coordinate sign flips at the origin-symmetric ones (Sphere, Schaffer,
// Rastrigin, Ackley are even functions).
func TestEvenFunctions(t *testing.T) {
	even := []Function{Sphere, Schaffer, Rastrigin, Ackley}
	r := rng.New(77)
	if err := quick.Check(func(seed uint32) bool {
		rr := rng.New(uint64(seed) ^ r.Uint64())
		for _, f := range even {
			d := f.Dim(0)
			x := make([]float64, d)
			neg := make([]float64, d)
			for i := range x {
				x[i] = rr.UniformIn(f.Lo/2, f.Hi/2)
				neg[i] = -x[i]
			}
			if math.Abs(f.Eval(x)-f.Eval(neg)) > 1e-9*(1+math.Abs(f.Eval(x))) {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: Sphere and Rastrigin are permutation-symmetric.
func TestPermutationSymmetry(t *testing.T) {
	r := rng.New(78)
	if err := quick.Check(func(seed uint32) bool {
		rr := rng.New(uint64(seed) ^ r.Uint64())
		for _, f := range []Function{Sphere, Rastrigin, Griewank} {
			if f.Name == "Griewank" {
				continue // Griewank's cos(x_i/sqrt(i)) is NOT symmetric
			}
			d := f.Dim(0)
			x := make([]float64, d)
			for i := range x {
				x[i] = rr.UniformIn(f.Lo/2, f.Hi/2)
			}
			perm := rr.Perm(d)
			y := make([]float64, d)
			for i, p := range perm {
				y[i] = x[p]
			}
			if math.Abs(f.Eval(x)-f.Eval(y)) > 1e-9*(1+math.Abs(f.Eval(x))) {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSchwefelPenaltyOutsideDomain(t *testing.T) {
	// Outside the box, Schwefel must never fall below its optimum value —
	// the quadratic penalty guarantees it.
	r := rng.New(79)
	for i := 0; i < 1000; i++ {
		x := make([]float64, 10)
		for j := range x {
			x[j] = r.UniformIn(-5000, 5000)
		}
		if v := Schwefel.Eval(x); v < -1e-9 {
			t.Fatalf("Schwefel(%v...) = %g below optimum", x[0], v)
		}
	}
}

func TestGriewankProductTermMatters(t *testing.T) {
	// Regression: the product index must start at 1 (cos(x_i/sqrt(i+1))).
	// At x = (π·sqrt(1), 0, ..., 0) the first cos term is cos(π) = -1.
	x := make([]float64, 10)
	x[0] = math.Pi
	got := Griewank.Eval(x)
	want := 1 + math.Pi*math.Pi/4000 + 1 // prod = -1
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("Griewank = %v, want %v", got, want)
	}
}

// TestObjectiveBitsPinned records the exact bits of every objective at
// three points of its default dimension — the origin, all ones, and the
// asymmetric x_i = 0.75i - 1.3 — so a change to an objective's arithmetic,
// or to a math routine it calls, shows up as a changed bit pattern rather
// than as a drift in some later trace.
func TestObjectiveBitsPinned(t *testing.T) {
	want := []struct {
		name string
		bits [3]uint64 // origin, all ones, asymmetric
	}{
		{"F2", [3]uint64{0x3ff0000000000000, 0x0000000000000000, 0x407fb0cccccccccf}},
		{"Zakharov", [3]uint64{0x0000000000000000, 0x41217a10a0000000, 0x418c9974cbb33338}},
		{"Rosenbrock", [3]uint64{0x4022000000000000, 0x0000000000000000, 0x40e5fbfeccccccce}},
		{"Sphere", [3]uint64{0x0000000000000000, 0x4024000000000000, 0x40565d999999999a}},
		{"Schaffer", [3]uint64{0x0000000000000000, 0x3f850925d4ebbd20, 0x3fb4673b7b8b0f1c}},
		{"Griewank", [3]uint64{0x0000000000000000, 0x3fe9d0f893292b38, 0x3ff05b9f82e2b5a1}},
		{"Rastrigin", [3]uint64{0x0000000000000000, 0x4024000000000000, 0x4069420605a167ae}},
		{"Ackley", [3]uint64{0x3cc0000000000000, 0x400d00c9d1901941, 0x4025ae73e1cbba48}},
		{"Levy", [3]uint64{0x3ff714e4c5c91a7d, 0x395377ce858a5d39, 0x4029dba8c8b2e1ab}},
		{"StyblinskiTang", [3]uint64{0x40787a9625b0a269, 0x40755a9625b0a269, 0x408319490ebfbdc0}},
		{"Schwefel", [3]uint64{0x40b05dd43100bb95, 0x40b0556a069408c5, 0x40b04bdc2f28f8d3}},
	}
	if len(want) != len(ExtendedSuite) {
		t.Fatalf("%d objectives pinned, ExtendedSuite has %d", len(want), len(ExtendedSuite))
	}
	for i, w := range want {
		f := ExtendedSuite[i]
		if f.Name != w.name {
			t.Fatalf("ExtendedSuite[%d] is %s, pinned %s", i, f.Name, w.name)
		}
		d := f.Dim(0)
		asym := make([]float64, d)
		for j := range asym {
			asym[j] = 0.75*float64(j) - 1.3
		}
		for p, x := range [3][]float64{origin(d), ones(d), asym} {
			got := f.Eval(x)
			if math.Float64bits(got) != w.bits[p] {
				t.Errorf("%s at point %d: %v (%#016x), pinned %v (%#016x)",
					f.Name, p, got, math.Float64bits(got), math.Float64frombits(w.bits[p]), w.bits[p])
			}
		}
	}
}
