package pso

import (
	"encoding/binary"
	"hash"
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
	for i := 0; i < len(s.fitness()); i++ {
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
		for j := 0; j < len(s.fitness()); j++ {
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
	swarmSink  *Swarm
	swarmsSink []Swarm
	slabSink   []float64
)

// streams returns n generators seeded seed, seed+1, ….
func streams(n int, seed uint64) []*rng.RNG {
	rs := make([]*rng.RNG, n)
	for j := range rs {
		rs[j] = rng.New(seed + uint64(j))
	}
	return rs
}

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
// 144 B, so per-swarm configuration does not grow back into it; New makes
// two allocations, the Swarm and one slab of 3kd + k + d floats, and no
// more bytes than those two objects take in the runtime's size classes; a
// population of any size is two allocations as well; and EvalOne and
// Inject never allocate, a fresh swarm's first improvement and first
// adoption included.
func TestSwarmMemory(t *testing.T) {
	if size := unsafe.Sizeof(Swarm{}); size > 144 {
		t.Errorf("Swarm is %d B, want at most 144", size)
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
		for _, n := range []int{1, 3, 64} {
			rs := streams(n, 1)
			if a := testing.AllocsPerRun(20, func() { swarmsSink = NewSwarms(funcs.Sphere, c.d, c.k, Config{}, rs) }); a != 2 {
				t.Errorf("d=%d k=%d: a population of %d makes %v allocations, want 2", c.d, c.k, n, a)
			}
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
// a digest. The swarms are built in populations of 1, 3 and 64 and
// stepped in turn, as a network steps them: swarm 0 must give the pinned
// digest, and every other swarm the digest of a swarm New builds from the
// same seed, so a population slab that mixes up two swarms' particles
// moves one.
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
	// digests steps the population built from seeds, swarm by swarm, and
	// returns each swarm's fitness digest.
	digests := func(blind, d int, seeds []uint64, build func(funcs.Function, []*rng.RNG) []*Swarm) []uint64 {
		hs := make([]hash.Hash64, len(seeds))
		calls := make([]int, len(seeds))
		cur := 0
		var b [8]byte
		f := funcs.Rastrigin
		f.Eval = func(x []float64) float64 {
			fx := funcs.Rastrigin.Eval(x)
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(fx))
			hs[cur].Write(b[:])
			if calls[cur]++; calls[cur] <= blind {
				return math.Inf(1)
			}
			return fx
		}
		rs := make([]*rng.RNG, len(seeds))
		for j, seed := range seeds {
			hs[j], rs[j] = fnv.New64a(), rng.New(seed)
		}
		swarms := build(f, rs)
		for range 2000 {
			for cur = range swarms {
				swarms[cur].EvalOne()
			}
		}
		out := make([]uint64, len(seeds))
		for j, h := range hs {
			out[j] = h.Sum64()
		}
		return out
	}
	one := func(d int) func(funcs.Function, []*rng.RNG) []*Swarm {
		return func(f funcs.Function, rs []*rng.RNG) []*Swarm {
			return []*Swarm{New(f, d, 16, Config{}, rs[0])}
		}
	}
	batch := func(d int) func(funcs.Function, []*rng.RNG) []*Swarm {
		return func(f funcs.Function, rs []*rng.RNG) []*Swarm {
			swarms := NewSwarms(f, d, 16, Config{}, rs)
			out := make([]*Swarm, len(swarms))
			for j := range swarms {
				out[j] = &swarms[j]
			}
			return out
		}
	}
	for ci, c := range cases {
		for di, d := range dims {
			seed := uint64(800 + 10*ci + di)
			for _, n := range []int{1, 3, 64} {
				seeds := make([]uint64, n)
				for j := range seeds {
					seeds[j] = seed + 1000*uint64(j)
				}
				got := digests(c.blind, d, seeds, batch(d))
				for j, g := range got {
					want := c.digest[di]
					if j > 0 {
						want = digests(c.blind, d, seeds[j:j+1], one(d))[0]
					}
					if g != want {
						t.Errorf("%s d=%d n=%d: swarm %d's fitness digest %#016x, want %#016x", c.name, d, n, j, g, want)
					}
				}
			}
		}
	}
}

// TestSwarmsLayout checks the population slab's interleave: particle i of
// swarm j+1 starts where swarm j's particle i ends, and particle i+1 of
// swarm 0 where swarm n−1's particle i ends; then come the swarms' tails,
// swarm by swarm.
func TestSwarmsLayout(t *testing.T) {
	const n, d, k = 5, 7, 4
	swarms := NewSwarms(funcs.Sphere, d, k, Config{}, streams(n, 1))
	end := func(run []float64) unsafe.Pointer {
		return unsafe.Add(unsafe.Pointer(unsafe.SliceData(run)), 8*len(run))
	}
	for i := 0; i < k; i++ {
		for j := range swarms {
			x, v, p := swarms[j].particle(i)
			if end(x) != unsafe.Pointer(&v[0]) || end(v) != unsafe.Pointer(&p[0]) {
				t.Fatalf("swarm %d particle %d: x, v and p are not adjacent", j, i)
			}
			var next []float64
			switch {
			case j+1 < n:
				next, _, _ = swarms[j+1].particle(i)
			case i+1 < k:
				next, _, _ = swarms[0].particle(i + 1)
			default:
				next = swarms[0].tail
			}
			if end(p) != unsafe.Pointer(&next[0]) {
				t.Errorf("swarm %d particle %d: what follows it does not start where it ends", j, i)
			}
		}
	}
	for j := 0; j+1 < n; j++ {
		if end(swarms[j].tail) != unsafe.Pointer(&swarms[j+1].tail[0]) {
			t.Errorf("swarm %d's tail does not end where swarm %d's starts", j, j+1)
		}
	}
}

// state returns a copy of everything swarm s keeps in its population's
// slab: its particles' runs, then its fitnesses and optimum.
func state(s *Swarm) []float64 {
	var out []float64
	for i := range s.fitness() {
		x, v, p := s.particle(i)
		out = append(append(append(out, x...), v...), p...)
	}
	return append(out, s.tail...)
}

// TestSwarmsRunsCapped appends to everything a swarm hands out — the
// position its objective receives, the optimum Best returns — in one of
// two identical populations, and checks that both evolve bit for bit
// alike: every run is capped at its end, so an append never writes into
// the slab, not into the swarm's own state and not into its neighbour's.
func TestSwarmsRunsCapped(t *testing.T) {
	const n, d, k = 3, 5, 4
	build := func(grow bool) []Swarm {
		f := funcs.Rastrigin
		f.Eval = func(x []float64) float64 {
			if grow {
				_ = append(x, math.Pi)
			}
			return funcs.Rastrigin.Eval(x)
		}
		return NewSwarms(f, d, k, Config{}, streams(n, 40))
	}
	a, b := build(true), build(false)
	for step := 0; step < 200; step++ {
		for j := range a {
			a[j].EvalOne()
			b[j].EvalOne()
			if g, _ := a[j].Best(); g != nil {
				if cap(g) != len(g) {
					t.Fatalf("swarm %d: Best has capacity %d beyond its %d floats", j, cap(g), len(g))
				}
				_ = append(g, math.Pi)
			}
		}
	}
	for j := range a {
		if x, y := state(&a[j]), state(&b[j]); !slices.Equal(x, y) {
			t.Errorf("swarm %d's state differs after its neighbours' appends", j)
		}
	}
}

// TestSwarmsBestNilUntilSet checks each swarm of a population on its own:
// Best stays nil until that swarm's first improvement or Inject, which is
// how OptNode.Load tells "no best yet".
func TestSwarmsBestNilUntilSet(t *testing.T) {
	blind := true
	f := funcs.Sphere
	f.Eval = func(x []float64) float64 {
		if blind {
			return math.Inf(1)
		}
		return funcs.Sphere.Eval(x)
	}
	swarms := NewSwarms(f, 4, 3, Config{}, streams(3, 60))
	for j := range swarms {
		swarms[j].EvalOne() // +Inf improves on nothing
	}
	swarms[1].Inject(make([]float64, 4), 0)
	for j := range swarms {
		if g, _ := swarms[j].Best(); (g != nil) != (j == 1) {
			t.Fatalf("after an +Inf evaluation each and an Inject into swarm 1, swarm %d's Best is %v", j, g)
		}
	}
	blind = false
	swarms[2].EvalOne()
	if g, _ := swarms[0].Best(); g != nil {
		t.Fatalf("swarm 0 has a best %v after its neighbour's improvement", g)
	}
	if g, fg := swarms[2].Best(); g == nil || math.IsInf(fg, 0) {
		t.Fatalf("swarm 2's first finite evaluation left Best = %v, %v", g, fg)
	}
}
