package solver

import (
	"math"

	"gossipopt/internal/funcs"
	"gossipopt/internal/rng"
	"gossipopt/internal/vec"
)

// GA is a steady-state real-coded genetic algorithm: binary-tournament
// parent selection, blend crossover (BLX-α), Gaussian mutation, and
// worst-replacement. Steady-state form means each EvalOne produces and
// evaluates exactly one offspring, matching the framework's one-evaluation
// time step.
type GA struct {
	// MutProb is the per-gene mutation probability (default 1/dim).
	// MutSigma is the mutation scale as a fraction of the domain width
	// (default 0.05). Alpha is the BLX blend parameter (default 0.3).
	MutProb, MutSigma, Alpha float64

	f     funcs.Function
	dim   int
	rng   *rng.RNG
	pop   [][]float64
	fit   []float64
	seed  int
	b     best
	child []float64
	evals int64
	width float64
}

// NewGA creates a population of np individuals (minimum 4).
func NewGA(f funcs.Function, dim, np int, r *rng.RNG) *GA {
	if np < 4 {
		np = 4
	}
	d := f.Dim(dim)
	g := &GA{
		MutSigma: 0.05, Alpha: 0.3,
		f: f, dim: d, rng: r,
		pop:   make([][]float64, np),
		fit:   make([]float64, np),
		b:     newBest(),
		child: make([]float64, d),
		width: f.Hi - f.Lo,
	}
	g.MutProb = 1 / float64(d)
	for i := range g.pop {
		g.pop[i] = make([]float64, d)
		for j := range g.pop[i] {
			g.pop[i][j] = r.UniformIn(f.Lo, f.Hi)
		}
		g.fit[i] = math.Inf(1)
	}
	return g
}

// tournament returns the index of the better of two random individuals.
func (g *GA) tournament() int {
	a, b := g.rng.Intn(len(g.pop)), g.rng.Intn(len(g.pop))
	if g.fit[a] <= g.fit[b] {
		return a
	}
	return b
}

// EvalOne implements Solver.
func (g *GA) EvalOne() float64 {
	if g.seed < len(g.pop) {
		i := g.seed
		g.seed++
		fx := g.f.Eval(g.pop[i])
		g.evals++
		g.fit[i] = fx
		g.b.offer(g.pop[i], fx)
		return fx
	}
	p1 := g.pop[g.tournament()]
	p2 := g.pop[g.tournament()]
	// BLX-α crossover: sample each gene uniformly from the parents' range
	// extended by α on both sides.
	for j := 0; j < g.dim; j++ {
		lo, hi := p1[j], p2[j]
		if lo > hi {
			lo, hi = hi, lo
		}
		span := hi - lo
		g.child[j] = g.rng.UniformIn(lo-g.Alpha*span, hi+g.Alpha*span)
		if g.rng.Bool(g.MutProb) {
			g.child[j] += g.MutSigma * g.width * g.rng.NormFloat64()
		}
	}
	vec.Clamp(g.child, g.f.Lo, g.f.Hi)
	fx := g.f.Eval(g.child)
	g.evals++
	// Replace the current worst if the child improves on it.
	worst := 0
	for i := range g.fit {
		if g.fit[i] > g.fit[worst] {
			worst = i
		}
	}
	if fx < g.fit[worst] {
		copy(g.pop[worst], g.child)
		g.fit[worst] = fx
		g.b.offer(g.child, fx)
	}
	return fx
}

// Best implements Solver.
func (g *GA) Best() ([]float64, float64) { return g.b.x, g.b.f }

// Inject implements Solver: a better remote point replaces the current
// worst individual. The return value reports whether the solver's best
// improved.
func (g *GA) Inject(x []float64, fx float64) bool {
	if len(x) != g.dim || !admissible(fx) {
		return false
	}
	adopted := g.b.offer(x, fx)
	worst := 0
	for i := range g.fit {
		if g.fit[i] > g.fit[worst] {
			worst = i
		}
	}
	if fx < g.fit[worst] {
		copy(g.pop[worst], x)
		g.fit[worst] = fx
	}
	return adopted
}

// Evals implements Solver.
func (g *GA) Evals() int64 { return g.evals }

var _ Solver = (*GA)(nil)
