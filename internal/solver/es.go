package solver

import (
	"gossipopt/internal/funcs"
	"gossipopt/internal/rng"
	"gossipopt/internal/vec"
)

// sigma0 is the ES's initial step size as a fraction of the domain width.
// Adaptation follows Rechenberg's 1/5 rule with the conventional factor
// 1.5 applied every 5·dim evaluations.
const sigma0 = 0.3

// ES is a (1+1) evolution strategy with the 1/5-success-rule step-size
// adaptation — a strong, cheap local-search baseline (a self-tuning hill
// climber).
type ES struct {
	f       funcs.Function
	dim     int
	rng     *rng.RNG
	cur     []float64
	fcur    float64
	cand    []float64
	b       best
	sigma   float64
	hits    int
	window  int
	evals   int64
	width   float64
	started bool
}

// NewES creates a (1+1)-ES starting from a uniform random point.
func NewES(f funcs.Function, dim int, r *rng.RNG) *ES {
	d := f.Dim(dim)
	e := &ES{
		f: f, dim: d, rng: r,
		cur:   make([]float64, d),
		cand:  make([]float64, d),
		b:     newBest(),
		width: f.Hi - f.Lo,
	}
	for i := range e.cur {
		e.cur[i] = r.UniformIn(f.Lo, f.Hi)
	}
	e.sigma = sigma0 * e.width
	return e
}

// EvalOne implements Solver.
func (e *ES) EvalOne() float64 {
	if !e.started {
		e.started = true
		e.fcur = e.f.Eval(e.cur)
		e.evals++
		e.b.offer(e.cur, e.fcur)
		return e.fcur
	}
	for i := range e.cand {
		e.cand[i] = e.cur[i] + e.sigma*e.rng.NormFloat64()
	}
	vec.Clamp(e.cand, e.f.Lo, e.f.Hi)
	fx := e.f.Eval(e.cand)
	e.evals++
	if fx <= e.fcur {
		copy(e.cur, e.cand)
		e.fcur = fx
		e.b.offer(e.cur, fx)
		e.hits++
	}
	e.window++
	if e.window >= 5*e.dim {
		// 1/5 rule: grow the step when more than 1/5 of trials succeed,
		// shrink it otherwise.
		if float64(e.hits) > float64(e.window)/5 {
			e.sigma *= 1.5
		} else {
			e.sigma /= 1.5
		}
		maxSigma := e.width
		minSigma := 1e-12 * e.width
		if e.sigma > maxSigma {
			e.sigma = maxSigma
		}
		if e.sigma < minSigma {
			e.sigma = minSigma
		}
		e.hits, e.window = 0, 0
	}
	return fx
}

// Best implements Solver.
func (e *ES) Best() ([]float64, float64) { return e.b.x, e.b.f }

// Inject implements Solver: a better remote point becomes the parent.
func (e *ES) Inject(x []float64, fx float64) bool {
	if len(x) != e.dim || !admissible(fx) {
		return false
	}
	if !e.b.offer(x, fx) {
		return false
	}
	copy(e.cur, x)
	e.fcur = fx
	e.started = true
	return true
}

// Evals implements Solver.
func (e *ES) Evals() int64 { return e.evals }

var _ Solver = (*ES)(nil)
