// Package rng provides a deterministic, splittable pseudo-random number
// generator for reproducible simulations.
//
// The generator is xoshiro256++ (Blackman & Vigna), seeded through a
// SplitMix64 expander so that low-entropy seeds (0, 1, 2, ...) still yield
// well-distributed initial states. Every node, particle and protocol in a
// simulation receives its own stream via Split, which guarantees that adding
// or removing one consumer does not perturb the random sequence observed by
// the others — a property plain shared generators lack and which is essential
// for controlled experiments.
package rng

import (
	"math"
	"math/bits"
	"slices"
)

// RNG is a xoshiro256++ pseudo-random generator. The zero value is invalid;
// use New or Split to obtain an initialized stream.
type RNG struct {
	s [4]uint64
}

// splitmix64 advances *x and returns the next SplitMix64 output. It is used
// both for seeding and for deriving split streams.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a generator seeded from the given seed. Distinct seeds yield
// statistically independent streams.
func New(seed uint64) *RNG {
	r := &RNG{}
	r.seed(seed)
	return r
}

// seed sets r's state from seed, as New does.
func (r *RNG) seed(seed uint64) {
	sm := seed
	for i := range r.s {
		r.s[i] = splitmix64(&sm)
	}
	// A state of all zeros is the one fixed point of xoshiro; the SplitMix64
	// expansion cannot produce it for any seed, but guard anyway.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// next is one xoshiro256++ step on the state words s0..s3: it returns the
// output and the advanced words. It takes and returns the words as values
// so that a caller looping over many steps can keep them in registers.
func next(s0, s1, s2, s3 uint64) (out, n0, n1, n2, n3 uint64) {
	out = rotl(s0+s3, 23) + s0
	t := s1 << 17
	s2 ^= s0
	s3 ^= s1
	s1 ^= s2
	s0 ^= s3
	s2 ^= t
	s3 = rotl(s3, 45)
	return out, s0, s1, s2, s3
}

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
	out, s0, s1, s2, s3 := next(r.s[0], r.s[1], r.s[2], r.s[3])
	r.s = [4]uint64{s0, s1, s2, s3}
	return out
}

// Split derives a new, statistically independent stream from r. The parent
// stream advances by one output; the child is seeded from that output mixed
// with a distinguishing constant so parent and child sequences do not overlap
// in practice.
func (r *RNG) Split() *RNG {
	c := &RNG{}
	r.SplitInto(c)
	return c
}

// SplitInto is Split into a value the caller owns: r advances by the same
// one output and dst becomes the stream Split would have returned, so a
// population can hold its streams in one []RNG instead of one allocation
// each.
func (r *RNG) SplitInto(dst *RNG) { dst.seed(r.Uint64() ^ 0xd1b54a32d192ed03) }

// Float64 returns a uniform float64 in [0, 1) with 53 bits of precision.
// Here and below, float64(...) around a product forces its rounding, so
// that arm64, ppc64le and s390x, where gc fuses x*y + z into one
// instruction, give amd64's bits; the scaling is converted because gc
// turns it into a product that inlined callers would fuse.
func (r *RNG) Float64() float64 {
	return float64(float64(r.Uint64()>>11) / (1 << 53))
}

// Float64s fills dst with the next len(dst) Float64 values and leaves r
// where that many Float64 calls would: the same values, the same state.
// The state words stay in registers for the whole fill instead of being
// loaded and stored once per value.
func (r *RNG) Float64s(dst []float64) {
	s0, s1, s2, s3 := r.s[0], r.s[1], r.s[2], r.s[3]
	for i := range dst {
		var out uint64
		out, s0, s1, s2, s3 = next(s0, s1, s2, s3)
		dst[i] = float64(out>>11) / (1 << 53)
	}
	r.s = [4]uint64{s0, s1, s2, s3}
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
// Uses Lemire's multiply-shift rejection method to avoid modulo bias.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with n <= 0")
	}
	return int(r.Uint64n(uint64(n)))
}

// Uint64n returns a uniform uint64 in [0, n). It panics if n == 0.
func (r *RNG) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n called with n == 0")
	}
	// Lemire's nearly-divisionless method.
	hi, lo := bits.Mul64(r.Uint64(), n)
	if lo < n {
		thresh := -n % n
		for lo < thresh {
			hi, lo = bits.Mul64(r.Uint64(), n)
		}
	}
	return hi
}

// UniformIn returns a uniform float64 in [lo, hi).
func (r *RNG) UniformIn(lo, hi float64) float64 {
	return lo + float64((hi-lo)*r.Float64())
}

// NormFloat64 returns a standard normal variate using the polar
// (Marsaglia) method.
func (r *RNG) NormFloat64() float64 {
	for {
		u := float64(2*r.Float64()) - 1
		v := float64(2*r.Float64()) - 1
		s := float64(u*u) + float64(v*v)
		if s >= 1 || s == 0 {
			continue
		}
		return u * math.Sqrt(-2*math.Log(s)/s)
	}
}

// Perm returns a uniform random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// Shuffle pseudo-randomizes the order of n elements using the provided swap
// function (Fisher–Yates).
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// AppendSample appends k distinct uniform indices from [0, n), in random
// order, onto dst and returns the extended slice; if k >= n it appends a
// full permutation of [0, n). It panics if k < 0 or n < 0.
//
// The draws are Floyd's algorithm followed by a Fisher–Yates shuffle of
// the appended indices (Perm's draws when k >= n). Membership is a scan of
// the at most k indices already appended, so given the capacity for them
// the call allocates nothing.
func (r *RNG) AppendSample(dst []int, n, k int) []int {
	if k < 0 || n < 0 {
		panic("rng: AppendSample with negative argument")
	}
	base := len(dst)
	if k >= n {
		for i := 0; i < n; i++ {
			dst = append(dst, i)
		}
	} else {
		for j := n - k; j < n; j++ {
			t := r.Intn(j + 1)
			if slices.Contains(dst[base:], t) {
				t = j
			}
			dst = append(dst, t)
		}
	}
	out := dst[base:]
	for i := len(out) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		out[i], out[j] = out[j], out[i]
	}
	return dst
}
