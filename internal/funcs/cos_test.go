package funcs

import (
	"math"
	"testing"

	"gossipopt/internal/rng"
)

// TestCosMatchesMathCos checks cos against math.Cos bit for bit: 10⁷
// uniform arguments over each caller's reach, random bit patterns below
// the 2²⁹ fall-through bound and arguments just above it, the multiples
// of π/4 where the octant changes with the ulps either side of them, and
// the edge cases.
func TestCosMatchesMathCos(t *testing.T) {
	check := func(x float64) {
		t.Helper()
		if got, want := cos(x), math.Cos(x); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("cos(%v) = %v (%#016x), math.Cos = %v (%#016x)",
				x, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	r := rng.New(29)
	reach := []float64{
		2 * math.Pi * 5.12 * 4, // Rastrigin's 2πx, its domain widened ×4
		600 * 2,                // Griewank's x/√i, its domain ×2
		2 * math.Pi * 32.8,     // Ackley's 2πx
	}
	for _, half := range reach {
		for range 3_400_000 {
			check(r.UniformIn(-half, half))
		}
	}
	for range 1_000_000 {
		x := math.Float64frombits(r.Uint64())
		if math.Abs(x) < 1<<29 {
			check(x)
		}
	}
	for range 100_000 { // just past the fall-through bound
		check(r.UniformIn(1<<29, 1<<31))
	}
	for k := -100_000; k <= 100_000; k++ {
		x := float64(k) * (math.Pi / 4)
		check(x)
		up, down := x, x
		for range 4 {
			up, down = math.Nextafter(up, math.Inf(1)), math.Nextafter(down, math.Inf(-1))
			check(up)
			check(down)
		}
	}
	for _, x := range []float64{
		0, math.Copysign(0, -1), 1 << 29, -(1 << 29), math.Nextafter(1<<29, 0),
		-math.Nextafter(1<<29, 0), 1e300, -1e300, math.SmallestNonzeroFloat64,
		-math.SmallestNonzeroFloat64, math.Inf(1), math.Inf(-1), math.NaN(),
	} {
		check(x)
	}
}
