package solver

import (
	"math"
	"testing"

	"gossipopt/internal/funcs"
	"gossipopt/internal/rng"
)

func TestGAEvalAccounting(t *testing.T) {
	g := NewGA(funcs.Sphere, 10, 20, rng.New(1))
	for i := 0; i < 77; i++ {
		g.EvalOne()
	}
	if g.Evals() != 77 {
		t.Fatalf("Evals = %d", g.Evals())
	}
}

func TestGAConvergesOnSphere(t *testing.T) {
	g := NewGA(funcs.Sphere, 10, 30, rng.New(2))
	evalN(g, 60000)
	if _, f := g.Best(); f > 1e-3 {
		t.Fatalf("GA best %g after 60k evals", f)
	}
}

func TestGABestMonotone(t *testing.T) {
	g := NewGA(funcs.Rastrigin, 10, 20, rng.New(3))
	prev := math.Inf(1)
	for i := 0; i < 5000; i++ {
		g.EvalOne()
		if _, f := g.Best(); f > prev {
			t.Fatalf("best regressed at %d", i)
		} else {
			prev = f
		}
	}
}

func TestGAPopulationStaysInBox(t *testing.T) {
	g := NewGA(funcs.Rastrigin, 10, 10, rng.New(4))
	evalN(g, 2000)
	for i, ind := range g.pop {
		for _, x := range ind {
			if x < funcs.Rastrigin.Lo || x > funcs.Rastrigin.Hi {
				t.Fatalf("individual %d escaped the domain: %v", i, x)
			}
		}
	}
}

func TestGAInject(t *testing.T) {
	g := NewGA(funcs.Sphere, 10, 10, rng.New(5))
	evalN(g, 100)
	star := make([]float64, 10)
	if !g.Inject(star, 0) {
		t.Fatal("perfect injection rejected")
	}
	if _, f := g.Best(); f != 0 {
		t.Fatalf("best %g after injection", f)
	}
	// The injected point must be present in the population (replaced the
	// worst), so offspring can exploit it.
	found := false
	for i := range g.pop {
		if g.fit[i] == 0 {
			found = true
		}
	}
	if !found {
		t.Fatal("injected point did not enter the population")
	}
	if g.Inject(make([]float64, 3), -1) {
		t.Fatal("dimension mismatch accepted")
	}
}

func TestGABeatsRandomSearch(t *testing.T) {
	g := NewGA(funcs.Sphere, 10, 20, rng.New(6))
	rs := NewRandomSearch(funcs.Sphere, 10, rng.New(6))
	evalN(g, 20000)
	evalN(rs, 20000)
	_, fg := g.Best()
	_, fr := rs.Best()
	if fg >= fr {
		t.Fatalf("GA (%g) did not beat random search (%g)", fg, fr)
	}
}

func TestGADeterministic(t *testing.T) {
	run := func() float64 {
		g := NewGA(funcs.Griewank, 10, 16, rng.New(7))
		evalN(g, 3000)
		_, f := g.Best()
		return f
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("non-deterministic: %g vs %g", a, b)
	}
}

func TestGAMinPopulation(t *testing.T) {
	g := NewGA(funcs.Sphere, 10, 1, rng.New(8))
	if len(g.pop) != 4 {
		t.Fatalf("population = %d, want floor of 4", len(g.pop))
	}
	evalN(g, 100)
	if _, f := g.Best(); math.IsInf(f, 0) {
		t.Fatal("no evaluations")
	}
}

func BenchmarkGAEvalOne(b *testing.B) {
	g := NewGA(funcs.Sphere, 10, 20, rng.New(1))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.EvalOne()
	}
}
