package solver

import (
	"math"

	"gossipopt/internal/funcs"
	"gossipopt/internal/rng"
)

// DE/rand/1/bin's differential weight and crossover rate.
const (
	deF  = 0.5
	deCR = 0.9
)

// DE is differential evolution (Storn & Price), strategy DE/rand/1/bin.
// Each EvalOne processes one trial vector: pick the next target in
// round-robin order, build a mutant from three distinct random members,
// binomially cross it with the target, evaluate, and keep the better of
// trial and target.
type DE struct {
	f    funcs.Function
	dim  int
	rng  *rng.RNG
	pop  [][]float64
	fit  []float64
	seed int // members still awaiting their first evaluation
	next int
	b    best
	tmp  []float64

	evals int64
}

// NewDE creates a DE population of np members (minimum 4).
func NewDE(f funcs.Function, dim, np int, r *rng.RNG) *DE {
	if np < 4 {
		np = 4
	}
	d := f.Dim(dim)
	de := &DE{
		f: f, dim: d, rng: r,
		pop: make([][]float64, np),
		fit: make([]float64, np),
		b:   newBest(),
		tmp: make([]float64, d),
	}
	for i := range de.pop {
		de.pop[i] = make([]float64, d)
		for j := range de.pop[i] {
			de.pop[i][j] = r.UniformIn(f.Lo, f.Hi)
		}
		de.fit[i] = math.Inf(1)
	}
	return de
}

// EvalOne implements Solver.
func (de *DE) EvalOne() float64 {
	// First pass: evaluate initial members, one per call.
	if de.seed < len(de.pop) {
		i := de.seed
		de.seed++
		fx := de.f.Eval(de.pop[i])
		de.evals++
		de.fit[i] = fx
		de.b.offer(de.pop[i], fx)
		return fx
	}
	i := de.next
	de.next = (de.next + 1) % len(de.pop)

	// Three distinct members different from i.
	var a, b, c int
	for {
		a = de.rng.Intn(len(de.pop))
		if a != i {
			break
		}
	}
	for {
		b = de.rng.Intn(len(de.pop))
		if b != i && b != a {
			break
		}
	}
	for {
		c = de.rng.Intn(len(de.pop))
		if c != i && c != a && c != b {
			break
		}
	}

	// Mutant + binomial crossover into tmp.
	jrand := de.rng.Intn(de.dim)
	for j := 0; j < de.dim; j++ {
		if j == jrand || de.rng.Bool(deCR) {
			de.tmp[j] = de.pop[a][j] + deF*(de.pop[b][j]-de.pop[c][j])
		} else {
			de.tmp[j] = de.pop[i][j]
		}
	}
	fx := de.f.Eval(de.tmp)
	de.evals++
	if fx <= de.fit[i] {
		copy(de.pop[i], de.tmp)
		de.fit[i] = fx
		de.b.offer(de.tmp, fx)
	}
	return fx
}

// Best implements Solver.
func (de *DE) Best() ([]float64, float64) { return de.b.x, de.b.f }

// Inject implements Solver: the remote best replaces the current worst
// population member (if better than it), so gossip actively steers the
// population like the paper's swarm-optimum adoption does for PSO. The
// return value reports whether the solver's *best* improved, matching the
// other solvers' adoption semantics.
func (de *DE) Inject(x []float64, fx float64) bool {
	if len(x) != de.dim || !admissible(fx) {
		return false
	}
	adopted := de.b.offer(x, fx)
	worst := 0
	for i := range de.fit {
		if de.fit[i] > de.fit[worst] {
			worst = i
		}
	}
	if fx < de.fit[worst] {
		copy(de.pop[worst], x)
		de.fit[worst] = fx
	}
	return adopted
}

// Evals implements Solver.
func (de *DE) Evals() int64 { return de.evals }

var _ Solver = (*DE)(nil)
