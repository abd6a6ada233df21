package solver

import (
	"math"

	"gossipopt/internal/funcs"
	"gossipopt/internal/rng"
	"gossipopt/internal/vec"
)

// SA is simulated annealing with Gaussian moves and a geometric cooling
// schedule indexed by evaluation count, so its notion of time matches the
// framework's (one EvalOne = one evaluation).
type SA struct {
	// T0 is the initial temperature (default: 10 % of a domain-scale
	// fitness probe). Alpha is the per-evaluation geometric cooling factor
	// (default 0.999). Sigma0 is the initial move scale as a fraction of
	// the domain width (default 0.1); the scale cools with temperature.
	T0, Alpha, Sigma0 float64

	f     funcs.Function
	dim   int
	rng   *rng.RNG
	cur   []float64
	fcur  float64
	cand  []float64
	b     best
	t     float64
	evals int64
	width float64
}

// NewSA creates an annealer starting from a uniform random point.
func NewSA(f funcs.Function, dim int, r *rng.RNG) *SA {
	d := f.Dim(dim)
	s := &SA{
		Alpha: 0.999, Sigma0: 0.1,
		f: f, dim: d, rng: r,
		cur:   make([]float64, d),
		cand:  make([]float64, d),
		b:     newBest(),
		width: f.Hi - f.Lo,
		fcur:  math.Inf(1),
	}
	for i := range s.cur {
		s.cur[i] = r.UniformIn(f.Lo, f.Hi)
	}
	return s
}

// EvalOne implements Solver.
func (s *SA) EvalOne() float64 {
	// Lazy first evaluation establishes fcur and T0.
	if math.IsInf(s.fcur, 1) {
		s.fcur = s.f.Eval(s.cur)
		s.evals++
		s.b.offer(s.cur, s.fcur)
		if s.T0 == 0 {
			s.T0 = 0.1 * (math.Abs(s.fcur) + 1)
		}
		s.t = s.T0
		return s.fcur
	}
	sigma := s.Sigma0 * s.width * (s.t / s.T0)
	if sigma < 1e-9*s.width {
		sigma = 1e-9 * s.width
	}
	for i := range s.cand {
		s.cand[i] = s.cur[i] + sigma*s.rng.NormFloat64()
	}
	vec.Clamp(s.cand, s.f.Lo, s.f.Hi)
	fx := s.f.Eval(s.cand)
	s.evals++
	if fx <= s.fcur || s.rng.Bool(math.Exp(-(fx-s.fcur)/s.t)) {
		copy(s.cur, s.cand)
		s.fcur = fx
		s.b.offer(s.cur, fx)
	}
	s.t *= s.Alpha
	return fx
}

// Best implements Solver.
func (s *SA) Best() ([]float64, float64) { return s.b.x, s.b.f }

// Inject implements Solver: a better remote point restarts the walk there.
func (s *SA) Inject(x []float64, fx float64) bool {
	if len(x) != s.dim || !admissible(fx) {
		return false
	}
	if !s.b.offer(x, fx) {
		return false
	}
	copy(s.cur, x)
	s.fcur = fx
	return true
}

// Evals implements Solver.
func (s *SA) Evals() int64 { return s.evals }

var _ Solver = (*SA)(nil)
