package pso

import (
	"math"
	"testing"
	"testing/quick"

	"gossipopt/internal/funcs"
	"gossipopt/internal/rng"
	"gossipopt/internal/vec"
)

func TestEvalOneCountsEvaluations(t *testing.T) {
	s := New(funcs.Sphere, 10, 8, Config{}, rng.New(1))
	for i := 0; i < 25; i++ {
		s.EvalOne()
	}
	if s.Evals() != 25 {
		t.Fatalf("Evals = %d, want 25", s.Evals())
	}
}

func TestStepEqualsKEvals(t *testing.T) {
	s := New(funcs.Sphere, 10, 16, Config{}, rng.New(2))
	s.Step()
	if s.Evals() != 16 {
		t.Fatalf("Step performed %d evals, want 16", s.Evals())
	}
}

func TestBestImprovesMonotonically(t *testing.T) {
	s := New(funcs.Rastrigin, 10, 16, Config{}, rng.New(3))
	prev := math.Inf(1)
	for i := 0; i < 2000; i++ {
		s.EvalOne()
		_, fg := s.Best()
		if fg > prev {
			t.Fatalf("swarm best regressed at eval %d: %v -> %v", i, prev, fg)
		}
		prev = fg
	}
}

func TestConvergesOnSphere(t *testing.T) {
	s := New(funcs.Sphere, 10, 20, Config{}, rng.New(4))
	s.Run(40000, -1)
	if _, fg := s.Best(); fg > 1e-10 {
		t.Fatalf("Sphere best %g after 40k evals, want < 1e-10", fg)
	}
}

func TestConvergesOnF2(t *testing.T) {
	s := New(funcs.F2, 0, 20, Config{}, rng.New(5))
	s.Run(30000, -1)
	if _, fg := s.Best(); fg > 1e-8 {
		t.Fatalf("F2 best %g after 30k evals", fg)
	}
}

func TestRunStopsAtThreshold(t *testing.T) {
	s := New(funcs.Sphere, 10, 20, Config{}, rng.New(6))
	spent := s.Run(1_000_000, 1e-3)
	if _, fg := s.Best(); fg > 1e-3 {
		t.Fatalf("threshold not reached: %g", fg)
	}
	if spent >= 1_000_000 {
		t.Fatal("Run consumed full budget despite threshold")
	}
}

func TestInjectAdoptsOnlyBetter(t *testing.T) {
	s := New(funcs.Sphere, 10, 4, Config{}, rng.New(7))
	s.Run(100, -1)
	_, cur := s.Best()
	if s.Inject(make([]float64, 10), cur+1) {
		t.Fatal("worse injection adopted")
	}
	star := make([]float64, 10)
	if !s.Inject(star, 0) {
		t.Fatal("perfect injection rejected")
	}
	g, fg := s.Best()
	if fg != 0 || !vec.Equal(g, star) {
		t.Fatalf("Best after injection = %v, %v", g, fg)
	}
	// The injected best must be copied, not aliased.
	star[0] = 123
	g, _ = s.Best()
	if g[0] == 123 {
		t.Fatal("Inject aliased caller slice")
	}
}

// TestInjectRejectsNonFiniteFitness plants the two fitness values one lying
// peer could own a swarm with: NaN, which no later comparison displaces,
// and -Inf, which beats everything. Both are refused, before and after the
// swarm has an optimum of its own, and leave Best untouched.
func TestInjectRejectsNonFiniteFitness(t *testing.T) {
	s := New(funcs.Sphere, 10, 4, Config{}, rng.New(9))
	x := make([]float64, 10)
	for _, fx := range []float64{math.NaN(), math.Inf(-1)} {
		if s.Inject(x, fx) {
			t.Fatalf("a fresh swarm adopted fitness %v", fx)
		}
	}
	if g, _ := s.Best(); g != nil {
		t.Fatalf("a refused injection left a best position: %v", g)
	}
	s.Run(100, -1)
	g0, f0 := s.Best()
	g0 = vec.Clone(g0)
	for _, fx := range []float64{math.NaN(), math.Inf(-1)} {
		if s.Inject(x, fx) {
			t.Fatalf("injection with fitness %v adopted", fx)
		}
	}
	if g, fg := s.Best(); fg != f0 || !vec.Equal(g, g0) {
		t.Fatalf("Best moved from %v, %v to %v, %v", g0, f0, g, fg)
	}
	if !s.Inject(x, 0) {
		t.Fatal("a finite better injection was refused afterwards")
	}
}

func TestInjectRejectsDimensionMismatch(t *testing.T) {
	s := New(funcs.Sphere, 10, 4, Config{}, rng.New(8))
	if s.Inject(make([]float64, 3), -1) {
		t.Fatal("dimension-mismatched injection adopted")
	}
}

func TestInjectionGuidesSwarm(t *testing.T) {
	// A swarm given the location of the optimum early should converge much
	// faster than an identical swarm without it.
	run := func(inject bool) float64 {
		s := New(funcs.Rosenbrock, 10, 16, Config{}, rng.New(9))
		if inject {
			near := make([]float64, 10)
			for i := range near {
				near[i] = 1.01
			}
			s.Inject(near, funcs.Rosenbrock.Eval(near))
		}
		s.Run(5000, -1)
		_, fg := s.Best()
		return fg
	}
	with, without := run(true), run(false)
	if with >= without {
		t.Fatalf("injection did not help: with=%g without=%g", with, without)
	}
}

func TestVelocityClamped(t *testing.T) {
	s := New(funcs.Sphere, 10, 8, Config{VMaxFrac: 0.1}, rng.New(10))
	vmax := 0.1 * (funcs.Sphere.Hi - funcs.Sphere.Lo)
	for i := 0; i < 500; i++ {
		s.EvalOne()
	}
	for i := range s.parts {
		for _, vj := range s.parts[i].v {
			if math.Abs(vj) > vmax+1e-12 {
				t.Fatalf("velocity %v exceeds vmax %v", vj, vmax)
			}
		}
	}
}

func TestDefaultsApplied(t *testing.T) {
	cfg := Config{}.withDefaults()
	if cfg.C1 != DefaultC1 || cfg.C2 != DefaultC2 || cfg.Inertia != DefaultInertia || cfg.VMaxFrac != 0.5 {
		t.Fatalf("defaults = %+v", cfg)
	}
}

func TestVariantsAllConverge(t *testing.T) {
	for _, v := range []Variant{GBest, LBestRing, VonNeumann, FIPS} {
		v := v
		t.Run(v.String(), func(t *testing.T) {
			s := New(funcs.Sphere, 10, 20, Config{Variant: v, Constriction: true}, rng.New(11))
			s.Run(30000, -1)
			if _, fg := s.Best(); fg > 1e-3 {
				t.Fatalf("%s best %g after 30k evals", v, fg)
			}
		})
	}
}

func TestVariantString(t *testing.T) {
	names := map[Variant]string{
		GBest: "gbest", LBestRing: "lbest-ring",
		VonNeumann: "von-neumann", FIPS: "fips", Variant(99): "unknown",
	}
	for v, want := range names {
		if v.String() != want {
			t.Fatalf("%d.String() = %s", v, v.String())
		}
	}
}

func TestNeighborhoodsRing(t *testing.T) {
	nb := neighborhoods(LBestRing, 5)
	if len(nb) != 5 {
		t.Fatalf("len = %d", len(nb))
	}
	want := []int{4, 0, 1}
	for i, j := range want {
		if nb[0][i] != j {
			t.Fatalf("nb[0] = %v, want %v", nb[0], want)
		}
	}
}

func TestNeighborhoodsVonNeumannValid(t *testing.T) {
	for _, k := range []int{1, 2, 4, 9, 16, 17} {
		nb := neighborhoods(VonNeumann, k)
		for i, ns := range nb {
			if len(ns) == 0 || ns[0] != i {
				t.Fatalf("k=%d: particle %d neighborhood %v must start with self", k, i, ns)
			}
			for _, j := range ns {
				if j < 0 || j >= k {
					t.Fatalf("k=%d: neighbor %d out of range", k, j)
				}
			}
		}
	}
}

func TestInertiaDecaySchedule(t *testing.T) {
	s := New(funcs.Sphere, 10, 4, Config{
		Inertia: 0.9, InertiaFinal: 0.4, InertiaDecayEvals: 1000,
	}, rng.New(20))
	if w := s.inertia(); w != 0.9 {
		t.Fatalf("initial inertia %v", w)
	}
	s.Run(500, -1)
	if w := s.inertia(); w < 0.6 || w > 0.7 {
		t.Fatalf("midpoint inertia %v, want ≈ 0.65", w)
	}
	s.Run(2000, -1)
	if w := s.inertia(); w != 0.4 {
		t.Fatalf("final inertia %v, want clamped at 0.4", w)
	}
}

func TestInertiaDecayVariantConverges(t *testing.T) {
	s := New(funcs.Sphere, 10, 20, Config{
		Inertia: 0.9, C1: 2, C2: 2, InertiaFinal: 0.4, InertiaDecayEvals: 20000,
	}, rng.New(21))
	s.Run(30000, -1)
	if _, fg := s.Best(); fg > 1e-3 {
		t.Fatalf("w-decay PSO best %g", fg)
	}
}

func TestClampPositionKeepsParticlesInBox(t *testing.T) {
	s := New(funcs.Rastrigin, 10, 8, Config{ClampPosition: true}, rng.New(22))
	for i := 0; i < 1000; i++ {
		s.EvalOne()
	}
	for i := range s.parts {
		for _, xj := range s.parts[i].x {
			if xj < funcs.Rastrigin.Lo || xj > funcs.Rastrigin.Hi {
				t.Fatalf("particle escaped box: %v", xj)
			}
		}
	}
}

func TestNoClampAllowsFlight(t *testing.T) {
	// With a huge vmax and no clamping, at least one particle should leave
	// the box at some point on a wide domain.
	s := New(funcs.Sphere, 10, 8, Config{VMaxFrac: 1}, rng.New(23))
	escaped := false
	for i := 0; i < 2000 && !escaped; i++ {
		s.EvalOne()
		for j := range s.parts {
			for _, xj := range s.parts[j].x {
				if xj < funcs.Sphere.Lo || xj > funcs.Sphere.Hi {
					escaped = true
				}
			}
		}
	}
	if !escaped {
		t.Skip("no particle left the box on this seed (acceptable)")
	}
}

func TestConstrictionConvergesFasterOnSphere(t *testing.T) {
	run := func(constrict bool) float64 {
		s := New(funcs.Sphere, 10, 20, Config{Constriction: constrict}, rng.New(12))
		s.Run(10000, -1)
		_, fg := s.Best()
		return fg
	}
	if c, p := run(true), run(false); c > p {
		t.Skipf("constriction slower on this seed: %g vs %g", c, p)
	}
}

// Property: swarm best always corresponds to a real evaluation — it is
// finite and nonnegative for our shifted-to-zero benchmarks, and never
// below the function's true optimum.
func TestBestIsSound(t *testing.T) {
	if err := quick.Check(func(seed uint16, kRaw uint8) bool {
		k := int(kRaw%30) + 1
		s := New(funcs.Griewank, 10, k, Config{}, rng.New(uint64(seed)))
		s.Run(500, -1)
		_, fg := s.Best()
		return fg >= 0 && !math.IsInf(fg, 0) && !math.IsNaN(fg)
	}, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestSingleParticleSwarmWorks(t *testing.T) {
	// k = 1 is a degenerate but legal configuration in the paper's tables.
	s := New(funcs.Sphere, 10, 1, Config{}, rng.New(13))
	s.Run(1000, -1)
	if _, fg := s.Best(); math.IsInf(fg, 0) {
		t.Fatal("single-particle swarm never evaluated")
	}
}

func TestDeterministicGivenSeed(t *testing.T) {
	run := func() float64 {
		s := New(funcs.Rastrigin, 10, 16, Config{}, rng.New(99))
		s.Run(2000, -1)
		_, fg := s.Best()
		return fg
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("non-deterministic: %g vs %g", a, b)
	}
}

func BenchmarkEvalOne(b *testing.B) {
	s := New(funcs.Sphere, 10, 16, Config{}, rng.New(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.EvalOne()
	}
}

func BenchmarkStepGBest(b *testing.B) {
	s := New(funcs.Griewank, 10, 16, Config{}, rng.New(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
}
