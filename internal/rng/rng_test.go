package rng

import (
	"math"
	"math/bits"
	"slices"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if av, bv := a.Uint64(), b.Uint64(); av != bv {
			t.Fatalf("streams diverge at %d: %d != %d", i, av, bv)
		}
	}
}

func TestDistinctSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("seeds 1 and 2 produced %d identical outputs of 100", same)
	}
}

func TestZeroSeedValid(t *testing.T) {
	r := New(0)
	seen := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		seen[r.Uint64()] = true
	}
	if len(seen) < 100 {
		t.Fatalf("seed 0 produced repeats: %d distinct of 100", len(seen))
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	child := parent.Split()
	// The child must not replay the parent's future outputs.
	parentOut := make([]uint64, 50)
	for i := range parentOut {
		parentOut[i] = parent.Uint64()
	}
	for i := 0; i < 50; i++ {
		c := child.Uint64()
		for _, p := range parentOut {
			if c == p {
				t.Fatalf("child output %d collides with parent stream", i)
			}
		}
	}
}

func TestSplitDeterministic(t *testing.T) {
	a := New(9).Split()
	b := New(9).Split()
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("split streams differ at %d", i)
		}
	}
}

// TestSplitIntoMatchesSplit: SplitInto leaves the parent where Split
// does and fills the value with the stream Split returns.
func TestSplitIntoMatchesSplit(t *testing.T) {
	pa, pb := New(12), New(12)
	var streams [3]RNG
	for i := range streams {
		a := pa.Split()
		pb.SplitInto(&streams[i])
		for k := 0; k < 50; k++ {
			if a.Uint64() != streams[i].Uint64() {
				t.Fatalf("split %d: streams differ at draw %d", i, k)
			}
		}
	}
	if pa.Uint64() != pb.Uint64() {
		t.Fatal("the parents are at different positions after the splits")
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

// TestFloat64sMatchesFloat64 checks that one Float64s fill yields the
// values of successive Float64 calls and leaves the same state, at the
// lengths around a 64-value fill, the most a particle move asks for.
func TestFloat64sMatchesFloat64(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65} {
		a, b := New(uint64(n)+5), New(uint64(n)+5)
		a.Uint64() // start mid-stream, not at a fresh seed's state
		b.Uint64()
		got := make([]float64, n)
		a.Float64s(got)
		for i, g := range got {
			if w := b.Float64(); math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("n=%d: value %d is %v, Float64 gives %v", n, i, g, w)
			}
		}
		if a.s != b.s {
			t.Fatalf("n=%d: state %x after Float64s, %x after %d Float64 calls", n, a.s, b.s, n)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(11)
	var sum float64
	const n = 100000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("mean of uniforms = %v, want ~0.5", mean)
	}
}

func TestIntnRange(t *testing.T) {
	r := New(5)
	for _, n := range []int{1, 2, 3, 7, 100, 1 << 20} {
		for i := 0; i < 1000; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnUniformity(t *testing.T) {
	r := New(13)
	const n, trials = 10, 100000
	counts := make([]int, n)
	for i := 0; i < trials; i++ {
		counts[r.Intn(n)]++
	}
	want := float64(trials) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Fatalf("bucket %d count %d deviates from %v", i, c, want)
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(17)
	const n = 200000
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		x := r.NormFloat64()
		sum += x
		sumsq += x * x
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Fatalf("normal variance = %v, want ~1", variance)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(23)
	for _, n := range []int{0, 1, 2, 10, 100} {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) has length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) not a permutation: %v", n, p)
			}
			seen[v] = true
		}
	}
}

func TestSampleDistinct(t *testing.T) {
	r := New(29)
	if err := quick.Check(func(nRaw, kRaw uint8) bool {
		n := int(nRaw%50) + 1
		k := int(kRaw % 60)
		s := r.AppendSample(nil, n, k)
		wantLen := k
		if k >= n {
			wantLen = n
		}
		if len(s) != wantLen {
			return false
		}
		seen := map[int]bool{}
		for _, v := range s {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSampleCoverage(t *testing.T) {
	// Over many draws of AppendSample(_, 10, 3), every index must appear.
	r := New(31)
	seen := map[int]int{}
	var buf []int
	for i := 0; i < 2000; i++ {
		buf = r.AppendSample(buf[:0], 10, 3)
		for _, v := range buf {
			seen[v]++
		}
	}
	for i := 0; i < 10; i++ {
		if seen[i] == 0 {
			t.Fatalf("index %d never sampled", i)
		}
	}
}

// mapSample is the map-based Sample AppendSample replaced, kept as the
// reference its draws must match.
func mapSample(r *RNG, n, k int) []int {
	if k >= n {
		return r.Perm(n)
	}
	chosen := make(map[int]struct{}, k)
	out := make([]int, 0, k)
	for j := n - k; j < n; j++ {
		t := r.Intn(j + 1)
		if _, dup := chosen[t]; dup {
			t = j
		}
		chosen[t] = struct{}{}
		out = append(out, t)
	}
	r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// TestAppendSampleMatchesFloyd checks AppendSample against the map-based
// reference over a grid of (n, k) — empty ranges, k = 0, k = n - 1,
// k >= n — appending onto an empty and a non-empty dst: the same indices
// in the same order, the prefix untouched, and both streams in step
// afterwards. With a stack dst it allocates nothing.
func TestAppendSampleMatchesFloyd(t *testing.T) {
	ns := []int{0, 1, 2, 3, 5, 10, 21, 64, 1000}
	for _, n := range ns {
		ks := []int{0, 1, 2, n / 2, n - 1, n, n + 1, 2*n + 3}
		for _, k := range ks {
			if k < 0 {
				continue
			}
			for _, prefix := range [][]int{nil, {-7, 42, -7}} {
				for seed := uint64(0); seed < 8; seed++ {
					a, b := New(seed), New(seed)
					want := mapSample(b, n, k)
					dst := append([]int(nil), prefix...)
					got := a.AppendSample(dst, n, k)
					if !slices.Equal(got[:len(prefix)], prefix) {
						t.Fatalf("n=%d k=%d seed=%d: prefix %v became %v", n, k, seed, prefix, got[:len(prefix)])
					}
					if !slices.Equal(got[len(prefix):], want) {
						t.Fatalf("n=%d k=%d seed=%d prefix=%v: got %v, reference %v", n, k, seed, prefix, got[len(prefix):], want)
					}
					if a.Uint64() != b.Uint64() {
						t.Fatalf("n=%d k=%d seed=%d: AppendSample consumed a different number of outputs", n, k, seed)
					}
				}
			}
		}
	}

	r := New(59)
	var sink int
	allocs := testing.AllocsPerRun(100, func() {
		var buf [32]int
		out := r.AppendSample(buf[:0], 100, 21)
		out = r.AppendSample(out, 11, 11)
		sink += out[len(out)-1]
	})
	if allocs != 0 {
		t.Fatalf("AppendSample onto a stack buffer allocates %.1f times per call", allocs)
	}
	_ = sink
}

func TestUniformIn(t *testing.T) {
	r := New(37)
	for i := 0; i < 10000; i++ {
		x := r.UniformIn(-3, 5)
		if x < -3 || x >= 5 {
			t.Fatalf("UniformIn(-3,5) = %v out of range", x)
		}
	}
}

func TestBoolEdges(t *testing.T) {
	r := New(41)
	for i := 0; i < 100; i++ {
		if r.Bool(0) {
			t.Fatal("Bool(0) returned true")
		}
		if !r.Bool(1) {
			t.Fatal("Bool(1) returned false")
		}
	}
}

func TestBoolProbability(t *testing.T) {
	r := New(43)
	const n = 100000
	hits := 0
	for i := 0; i < n; i++ {
		if r.Bool(0.3) {
			hits++
		}
	}
	p := float64(hits) / n
	if math.Abs(p-0.3) > 0.01 {
		t.Fatalf("Bool(0.3) frequency %v", p)
	}
}

func TestShufflePreservesElements(t *testing.T) {
	r := New(47)
	s := []int{1, 2, 3, 4, 5, 6, 7, 8}
	sum := 0
	r.Shuffle(len(s), func(i, j int) { s[i], s[j] = s[j], s[i] })
	for _, v := range s {
		sum += v
	}
	if sum != 36 {
		t.Fatalf("shuffle lost elements: %v", s)
	}
}

// schoolbookMul64 is the hand-written 128-bit product Uint64n used before
// math/bits.Mul64, kept as the reference its draws must match.
func schoolbookMul64(a, b uint64) (hi, lo uint64) {
	const mask32 = 1<<32 - 1
	a0, a1 := a&mask32, a>>32
	b0, b1 := b&mask32, b>>32
	w0 := a0 * b0
	t := a1*b0 + w0>>32
	w1 := t & mask32
	w2 := t >> 32
	w1 += a0 * b1
	hi = a1*b1 + w2 + w1>>32
	lo = a * b
	return
}

// schoolbookUint64n is Uint64n over schoolbookMul64.
func schoolbookUint64n(r *RNG, n uint64) uint64 {
	hi, lo := schoolbookMul64(r.Uint64(), n)
	if lo < n {
		thresh := -n % n
		for lo < thresh {
			hi, lo = schoolbookMul64(r.Uint64(), n)
		}
	}
	return hi
}

// TestUint64nMatchesSchoolbookProduct checks that every Uint64n draw is
// bit-identical to the schoolbook product it replaced, on every pair of
// edge values and on random bounds, and that both streams stay in step.
func TestUint64nMatchesSchoolbookProduct(t *testing.T) {
	edges := []uint64{0, 1, 2, 1<<32 - 1, 1 << 32, 1<<32 + 1, 1<<63 - 1, 1 << 63, math.MaxUint64 - 1, math.MaxUint64}
	for _, a := range edges {
		for _, b := range edges {
			hi, lo := schoolbookMul64(a, b)
			if ghi, glo := bits.Mul64(a, b); ghi != hi || glo != lo {
				t.Fatalf("Mul64(%#x, %#x) = (%#x, %#x), schoolbook (%#x, %#x)", a, b, ghi, glo, hi, lo)
			}
		}
	}
	bounds := New(53)
	for i := 0; i < 200000; i++ {
		n := bounds.Uint64() >> (bounds.Uint64() % 64)
		if i < len(edges) {
			n = edges[i]
		}
		if n == 0 {
			continue
		}
		a, b := New(uint64(i)), New(uint64(i))
		for k := 0; k < 4; k++ {
			if got, want := a.Uint64n(n), schoolbookUint64n(b, n); got != want {
				t.Fatalf("Uint64n(%#x) draw %d = %#x, schoolbook %#x", n, k, got, want)
			}
		}
		if a.Uint64() != b.Uint64() {
			t.Fatalf("Uint64n(%#x) consumed a different number of outputs", n)
		}
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink = r.Uint64()
	}
	_ = sink
}

func BenchmarkFloat64(b *testing.B) {
	r := New(1)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink = r.Float64()
	}
	_ = sink
}

// BenchmarkFloat64s times Float64s per value, in fills of 64 (the most a
// particle move asks for at once), so its ns/op compares with
// BenchmarkFloat64's.
func BenchmarkFloat64s(b *testing.B) {
	r := New(1)
	var buf [64]float64
	for i := 0; i < b.N; i += len(buf) {
		r.Float64s(buf[:min(len(buf), b.N-i)])
	}
}

func BenchmarkIntn(b *testing.B) {
	r := New(1)
	var sink int
	for i := 0; i < b.N; i++ {
		sink = r.Intn(1000)
	}
	_ = sink
}
