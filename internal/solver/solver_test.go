package solver

import (
	"math"
	"testing"
	"testing/quick"

	"gossipopt/internal/funcs"
	"gossipopt/internal/rng"
)

// evalN spends n evaluations of s.
func evalN(s Solver, n int) {
	for range n {
		s.EvalOne()
	}
}

// all solver constructors under test, as factories.
func factories() map[string]Factory {
	return map[string]Factory{
		"de": func(f funcs.Function, dim int, _ int64, r *rng.RNG) Solver {
			return NewDE(f, dim, 20, r)
		},
		"es": func(f funcs.Function, dim int, _ int64, r *rng.RNG) Solver {
			return NewES(f, dim, r)
		},
	}
}

func TestEvalAccounting(t *testing.T) {
	for name, mk := range factories() {
		s := mk(funcs.Sphere, 10, 0, rng.New(1))
		for i := 0; i < 57; i++ {
			s.EvalOne()
		}
		if s.Evals() != 57 {
			t.Errorf("%s: Evals = %d, want 57", name, s.Evals())
		}
	}
}

func TestBestMonotone(t *testing.T) {
	for name, mk := range factories() {
		s := mk(funcs.Rastrigin, 10, 0, rng.New(2))
		prev := math.Inf(1)
		for i := 0; i < 3000; i++ {
			s.EvalOne()
			_, f := s.Best()
			if f > prev {
				t.Fatalf("%s: best regressed %v -> %v", name, prev, f)
			}
			prev = f
		}
	}
}

func TestAllImproveOverInitial(t *testing.T) {
	for name, mk := range factories() {
		s := mk(funcs.Sphere, 10, 0, rng.New(3))
		s.EvalOne()
		_, first := s.Best()
		evalN(s, 5000)
		_, final := s.Best()
		if final >= first {
			t.Errorf("%s: no improvement (%g -> %g)", name, first, final)
		}
	}
}

func TestDEConvergesOnSphere(t *testing.T) {
	de := NewDE(funcs.Sphere, 10, 30, rng.New(4))
	evalN(de, 60000)
	if _, f := de.Best(); f > 1e-6 {
		t.Fatalf("DE best %g after 60k evals", f)
	}
}

func TestESConvergesOnSphere(t *testing.T) {
	es := NewES(funcs.Sphere, 10, rng.New(5))
	evalN(es, 20000)
	if _, f := es.Best(); f > 1e-8 {
		t.Fatalf("ES best %g after 20k evals", f)
	}
}

func TestInjectSemanticsAll(t *testing.T) {
	star := make([]float64, 10)
	for name, mk := range factories() {
		s := mk(funcs.Sphere, 10, 0, rng.New(8))
		evalN(s, 200)
		if !s.Inject(star, 0) {
			t.Errorf("%s: rejected perfect injection", name)
			continue
		}
		if _, f := s.Best(); f != 0 {
			t.Errorf("%s: best %g after perfect injection", name, f)
		}
		_, cur := s.Best()
		if s.Inject(make([]float64, 10), cur+5) {
			t.Errorf("%s: adopted worse injection", name)
		}
		if s.Inject(make([]float64, 3), -1) {
			t.Errorf("%s: adopted dimension-mismatched injection", name)
		}
	}
}

func TestInjectSteersSearch(t *testing.T) {
	// After injecting a near-optimal point, ES should refine beyond it.
	es := NewES(funcs.Sphere, 10, rng.New(9))
	near := make([]float64, 10)
	for i := range near {
		near[i] = 0.01
	}
	es.EvalOne()
	es.Inject(near, funcs.Sphere.Eval(near))
	evalN(es, 5000)
	if _, f := es.Best(); f >= funcs.Sphere.Eval(near) {
		t.Fatalf("ES did not refine injected point: %g", f)
	}
}

func TestDEPopulationFloor(t *testing.T) {
	de := NewDE(funcs.Sphere, 10, 1, rng.New(11)) // silently raised to 4
	evalN(de, 100)
	if _, f := de.Best(); math.IsInf(f, 0) {
		t.Fatal("tiny DE population never evaluated")
	}
}

func TestESSigmaAdapts(t *testing.T) {
	es := NewES(funcs.Sphere, 10, rng.New(12))
	initial := es.sigma
	evalN(es, 10000)
	if es.sigma >= initial {
		t.Fatalf("sigma did not shrink near optimum: %g -> %g", initial, es.sigma)
	}
}

// Property: solvers stay deterministic given the seed.
func TestSolversDeterministic(t *testing.T) {
	for name, mk := range factories() {
		name, mk := name, mk
		run := func(seed uint64) float64 {
			s := mk(funcs.Griewank, 10, 0, rng.New(seed))
			evalN(s, 1000)
			_, f := s.Best()
			return f
		}
		if err := quick.Check(func(seed uint16) bool {
			return run(uint64(seed)) == run(uint64(seed))
		}, &quick.Config{MaxCount: 5}); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// Property: best fitness is always finite and >= 0 after at least one eval.
func TestBestSound(t *testing.T) {
	for name, mk := range factories() {
		s := mk(funcs.Ackley, 10, 0, rng.New(13))
		evalN(s, 500)
		if _, f := s.Best(); f < 0 || math.IsNaN(f) || math.IsInf(f, 0) {
			t.Errorf("%s: unsound best %v", name, f)
		}
	}
}

func BenchmarkDEEvalOne(b *testing.B) {
	de := NewDE(funcs.Sphere, 10, 20, rng.New(1))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		de.EvalOne()
	}
}

func BenchmarkESEvalOne(b *testing.B) {
	es := NewES(funcs.Sphere, 10, rng.New(1))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		es.EvalOne()
	}
}
