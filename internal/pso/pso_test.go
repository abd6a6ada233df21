package pso

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"runtime"
	"slices"
	"testing"
	"testing/quick"
	"unsafe"

	"gossipopt/internal/funcs"
	"gossipopt/internal/rng"
	"gossipopt/internal/vec"
)

// evalN performs n evaluations.
func evalN(s *Swarm, n int) {
	for range n {
		s.EvalOne()
	}
}

func TestEvalOneCountsEvaluations(t *testing.T) {
	s := New(funcs.Sphere, 10, 8, Config{}, rng.New(1))
	for i := 0; i < 25; i++ {
		s.EvalOne()
	}
	if s.Evals() != 25 {
		t.Fatalf("Evals = %d, want 25", s.Evals())
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
	evalN(s, 40000)
	if _, fg := s.Best(); fg > 1e-10 {
		t.Fatalf("Sphere best %g after 40k evals, want < 1e-10", fg)
	}
}

func TestConvergesOnF2(t *testing.T) {
	s := New(funcs.F2, 0, 20, Config{}, rng.New(5))
	evalN(s, 30000)
	if _, fg := s.Best(); fg > 1e-8 {
		t.Fatalf("F2 best %g after 30k evals", fg)
	}
}

func TestInjectAdoptsOnlyBetter(t *testing.T) {
	s := New(funcs.Sphere, 10, 4, Config{}, rng.New(7))
	evalN(s, 100)
	_, cur := s.Best()
	if s.Inject(make([]float64, 10), cur+1) {
		t.Fatal("worse injection adopted")
	}
	star := make([]float64, 10)
	if !s.Inject(star, 0) {
		t.Fatal("perfect injection rejected")
	}
	g, fg := s.Best()
	if fg != 0 || !slices.Equal(g, star) {
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
	evalN(s, 100)
	g0, f0 := s.Best()
	g0 = vec.Clone(g0)
	for _, fx := range []float64{math.NaN(), math.Inf(-1)} {
		if s.Inject(x, fx) {
			t.Fatalf("injection with fitness %v adopted", fx)
		}
	}
	if g, fg := s.Best(); fg != f0 || !slices.Equal(g, g0) {
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
		evalN(s, 5000)
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
	for i := 0; i < s.k; i++ {
		_, v, _ := s.particle(i)
		for _, vj := range v {
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

func TestNoClampAllowsFlight(t *testing.T) {
	// With a huge vmax and no clamping, at least one particle should leave
	// the box at some point on a wide domain.
	s := New(funcs.Sphere, 10, 8, Config{VMaxFrac: 1}, rng.New(23))
	escaped := false
	for i := 0; i < 2000 && !escaped; i++ {
		s.EvalOne()
		for j := 0; j < s.k; j++ {
			x, _, _ := s.particle(j)
			for _, xj := range x {
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

// Property: swarm best always corresponds to a real evaluation — it is
// finite and nonnegative for our shifted-to-zero benchmarks, and never
// below the function's true optimum.
func TestBestIsSound(t *testing.T) {
	if err := quick.Check(func(seed uint16, kRaw uint8) bool {
		k := int(kRaw%30) + 1
		s := New(funcs.Griewank, 10, k, Config{}, rng.New(uint64(seed)))
		evalN(s, 500)
		_, fg := s.Best()
		return fg >= 0 && !math.IsInf(fg, 0) && !math.IsNaN(fg)
	}, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestSingleParticleSwarmWorks(t *testing.T) {
	// k = 1 is a degenerate but legal configuration in the paper's tables.
	s := New(funcs.Sphere, 10, 1, Config{}, rng.New(13))
	evalN(s, 1000)
	if _, fg := s.Best(); math.IsInf(fg, 0) {
		t.Fatal("single-particle swarm never evaluated")
	}
}

func TestDeterministicGivenSeed(t *testing.T) {
	run := func() float64 {
		s := New(funcs.Rastrigin, 10, 16, Config{}, rng.New(99))
		evalN(s, 2000)
		_, fg := s.Best()
		return fg
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("non-deterministic: %g vs %g", a, b)
	}
}

// TestTrajectoryPinned pins the bit pattern of the swarm optimum after
// 2 000 evaluations from a fixed seed: a wrong slab offset moves it.
func TestTrajectoryPinned(t *testing.T) {
	const wantFg, wantHash = 0x4030c38096980e9c, 0x7c7aa2b3ecce341c // Float64bits of the optimum's fitness; FNV-1a of its position's bits
	s := New(funcs.Rastrigin, 10, 16, Config{}, rng.New(700))
	evalN(s, 2000)
	g, fg := s.Best()
	h := fnv.New64a()
	var b [8]byte
	for _, x := range g {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		h.Write(b[:])
	}
	if got := math.Float64bits(fg); got != wantFg || h.Sum64() != wantHash {
		t.Errorf("best %v (bits %#x, position hash %#x), want bits %#x, hash %#x",
			fg, got, h.Sum64(), uint64(wantFg), uint64(wantHash))
	}
}

var (
	swarmSink *Swarm
	slabSink  []float64
)

// heapBytes returns the heap bytes the runtime accounts to one call of f:
// the least of three averages over 100 calls each.
func heapBytes(f func()) float64 {
	least := math.Inf(1)
	for trial := 0; trial < 3; trial++ {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := 0; i < 100; i++ {
			f()
		}
		runtime.ReadMemStats(&m1)
		least = math.Min(least, float64(m1.TotalAlloc-m0.TotalAlloc)/100)
	}
	return least
}

// TestSwarmMemory pins what a swarm costs: the Swarm struct is at most
// 160 B, so per-swarm configuration does not grow back into it; New makes
// two allocations, the Swarm and one slab of 3kd + k + d floats, and no
// more bytes than those two objects take in the runtime's size classes;
// and EvalOne and Inject never allocate, a fresh swarm's first
// improvement and first adoption included.
func TestSwarmMemory(t *testing.T) {
	if size := unsafe.Sizeof(Swarm{}); size > 160 {
		t.Errorf("Swarm is %d B, want at most 160", size)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, c := range []struct{ d, k int }{{10, 16}, {30, 16}, {2, 2}} {
		r := rng.New(1)
		mk := func() { swarmSink = New(funcs.Sphere, c.d, c.k, Config{}, r) }
		if a := testing.AllocsPerRun(100, mk); a != 2 {
			t.Errorf("d=%d k=%d: New makes %v allocations, want 2", c.d, c.k, a)
		}
		floats := 3*c.k*c.d + c.k + c.d
		limit := heapBytes(func() { swarmSink = new(Swarm) }) +
			heapBytes(func() { slabSink = make([]float64, floats) })
		if got := heapBytes(mk); got > limit {
			t.Errorf("d=%d k=%d: New allocates %v B, want at most %v B", c.d, c.k, got, limit)
		}

		// A stray allocation elsewhere in the process can land in one
		// window; one the swarm makes lands in every window.
		least := uint64(math.MaxUint64)
		for trial := uint64(0); trial < 3; trial++ {
			s := New(funcs.Sphere, c.d, c.k, Config{}, rng.New(2+trial))
			fresh := New(funcs.Sphere, c.d, c.k, Config{}, rng.New(5+trial))
			star := make([]float64, c.d)
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			fresh.Inject(star, funcs.Sphere.Eval(star))
			for i := 0; i < 10000; i++ {
				s.EvalOne()
				if i == 5000 {
					s.Inject(star, funcs.Sphere.Eval(star))
				}
			}
			runtime.ReadMemStats(&m1)
			least = min(least, m1.Mallocs-m0.Mallocs)
			if g, _ := fresh.Best(); g == nil {
				t.Fatalf("d=%d k=%d: a fresh swarm refused its first adoption", c.d, c.k)
			}
		}
		if least != 0 {
			t.Errorf("d=%d k=%d: 10 000 evaluations and two adoptions made %d allocations, want 0", c.d, c.k, least)
		}
	}
}

// BenchmarkEvalOne times one evaluation of solver-heavy's swarm
// (Rastrigin, d = 30, k = 16). The swarm is rebuilt every 3 200
// evaluations with the timer stopped: a swarm stepped for millions of
// evaluations converges until its arithmetic is subnormal, and the
// benchmark would time that instead.
func BenchmarkEvalOne(b *testing.B) {
	r := rng.New(1)
	var s *Swarm
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%3200 == 0 {
			b.StopTimer()
			s = New(funcs.Rastrigin, 30, 16, Config{}, r)
			b.StartTimer()
		}
		s.EvalOne()
	}
}

// TestMoveFitnessPinned pins an FNV-1a digest of the fitness bits of
// 2 000 evaluations for both branches of move — a swarm with an optimum,
// and one whose first 300 evaluations report +Inf, so its moves run with
// no swarm optimum to attract them — at dimensions 2, 30 and 70. Moves
// draw their randomness a block of dimensions at a time; 70 spans more
// than one block, so a block seam that reorders or drops a draw moves
// a digest.
func TestMoveFitnessPinned(t *testing.T) {
	dims := [3]int{2, 30, 70}
	cases := []struct {
		name   string
		blind  int       // leading evaluations reported to the swarm as +Inf
		digest [3]uint64 // per dimension in dims
	}{
		{"gbest", 0, [3]uint64{0x96a157ab9f2d49bd, 0x3886b133efca43ca, 0xb2bcbff56fdc645d}},
		{"gbest-no-optimum", 300, [3]uint64{0x1dc75c214ce5221a, 0x41cb7ab303fc3898, 0x06bcfccf796466db}},
	}
	for ci, c := range cases {
		for di, d := range dims {
			h := fnv.New64a()
			var b [8]byte
			calls := 0
			f := funcs.Rastrigin
			f.Eval = func(x []float64) float64 {
				fx := funcs.Rastrigin.Eval(x)
				binary.LittleEndian.PutUint64(b[:], math.Float64bits(fx))
				h.Write(b[:])
				if calls++; calls <= c.blind {
					return math.Inf(1)
				}
				return fx
			}
			s := New(f, d, 16, Config{}, rng.New(uint64(800+10*ci+di)))
			for range 2000 {
				s.EvalOne()
			}
			if got := h.Sum64(); got != c.digest[di] {
				t.Errorf("%s d=%d: fitness digest %#016x, pinned %#016x", c.name, d, got, c.digest[di])
			}
		}
	}
}
