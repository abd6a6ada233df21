// Package pso implements the particle swarm optimizer the paper builds
// on: the classic full-information ("gbest") swarm of Kennedy & Eberhart
// (1995), in which every particle is attracted to the single swarm-wide
// best.
//
// The update rule is the paper's equations (1)–(2):
//
//	v_i = w·v_i + c1·rand()·(p_i − x_i) + c2·rand()·(g − x_i)
//	x_i = x_i + v_i
//
// with per-dimension velocity clamping to vmax; positions are not clamped,
// as in the original PSO (the objective is defined outside the domain
// box). Evaluation is exposed at single-evaluation granularity (EvalOne)
// because the paper's simulations use "one local function evaluation" as
// the unit of time, with a gossip exchange every r evaluations.
package pso

import (
	"math"

	"gossipopt/internal/funcs"
	"gossipopt/internal/rng"
)

// Config collects the PSO hyperparameters. The zero value selects the
// canonical convergent parameters w = 0.72984, c1 = c2 = 1.49445 (the
// constriction-equivalent setting of Clerc & Kennedy), with vmax = half the
// domain width. The paper's background section quotes the original
// w = 1, c1 = c2 = 2 rule, but that setting sits on the divergence boundary
// and cannot reach the solution qualities its tables report (e.g. Sphere
// ≈ 1e−51). Set Inertia and C1/C2 explicitly to reproduce the literal
// textbook rule.
type Config struct {
	// C1 and C2 are the cognitive and social learning factors.
	C1, C2 float64
	// Inertia is the velocity persistence weight w.
	Inertia float64
	// VMaxFrac sets vmax = VMaxFrac · (Hi − Lo) per dimension.
	VMaxFrac float64
}

// Canonical convergent PSO parameters (constriction-equivalent).
const (
	DefaultC1      = 1.49445
	DefaultC2      = 1.49445
	DefaultInertia = 0.72984
)

func (c Config) withDefaults() Config {
	if c.C1 == 0 {
		c.C1 = DefaultC1
	}
	if c.C2 == 0 {
		c.C2 = DefaultC2
	}
	if c.Inertia == 0 {
		c.Inertia = DefaultInertia
	}
	if c.VMaxFrac == 0 {
		c.VMaxFrac = 0.5
	}
	return c
}

// Swarm is a particle swarm minimizing one objective. It satisfies the
// framework's Solver contract (EvalOne / Best / Inject / Evals).
//
// The whole swarm lives in one slab of floats: particle i's position,
// velocity and personal best are the runs x, v, p of dim floats starting
// at i·3·dim, the k personal-best fitnesses follow, and the swarm optimum
// g is the last run.
type Swarm struct {
	eval funcs.Objective
	dim  int
	cfg  Config
	rng  *rng.RNG
	vmax float64

	slab []float64
	k    int // particles

	g  []float64 // swarm optimum position (paper's g_p); nil until the first improvement or Inject
	fg float64

	next  int
	evals int64
}

// New creates a swarm of k particles over f in dimension dim (0 uses the
// function's paper dimension), drawing randomness from r. Positions are
// uniform in the domain; velocities are uniform in [−vmax, vmax].
func New(f funcs.Function, dim, k int, cfg Config, r *rng.RNG) *Swarm {
	cfg = cfg.withDefaults()
	d := f.Dim(dim)
	s := &Swarm{
		eval: f.Eval,
		dim:  d,
		cfg:  cfg,
		rng:  r,
		vmax: cfg.VMaxFrac * (f.Hi - f.Lo),
		slab: make([]float64, 3*k*d+k+d),
		k:    k,
		fg:   math.Inf(1),
	}
	fp := s.fitness()
	for i := range fp {
		x, v, p := s.particle(i)
		for j := 0; j < d; j++ {
			x[j] = r.UniformIn(f.Lo, f.Hi)
			v[j] = r.UniformIn(-s.vmax, s.vmax)
		}
		copy(p, x)
		fp[i] = math.Inf(1)
	}
	return s
}

// particle returns particle i's position, velocity and personal best.
func (s *Swarm) particle(i int) (x, v, p []float64) {
	d, o := s.dim, 3*s.dim*i
	return s.slab[o : o+d], s.slab[o+d : o+2*d], s.slab[o+2*d : o+3*d]
}

// fitness returns the k personal-best fitnesses.
func (s *Swarm) fitness() []float64 { return s.slab[3*s.k*s.dim : 3*s.k*s.dim+s.k] }

// seeded reports whether particle i has had its initial evaluation.
// Particles are first evaluated in index order, one per EvalOne, so that
// is exactly the first evals particles.
func (s *Swarm) seeded(i int) bool { return int64(i) < s.evals }

// setBest makes x, with fitness fx, the swarm optimum. g is the slab's
// last run, so no improvement or adoption allocates, and a caller
// appending to the slice Best returns cannot write into particle state.
func (s *Swarm) setBest(x []float64, fx float64) {
	if s.g == nil {
		s.g = s.slab[len(s.slab)-s.dim:]
	}
	copy(s.g, x)
	s.fg = fx
}

// Evals returns the number of function evaluations performed.
func (s *Swarm) Evals() int64 { return s.evals }

// Best returns the swarm optimum and its fitness. The slice is owned by the
// swarm; callers must not modify it.
func (s *Swarm) Best() ([]float64, float64) { return s.g, s.fg }

// Inject offers a remote best (the coordination service's gossip payload).
// It is adopted as the swarm optimum when strictly better; it reports
// whether adoption happened. The position is copied into the swarm's own
// g run in place — gossip hands a node many adoptions per run, and a
// fresh clone per adoption was a measurable share of steady-state
// allocations at large populations. A NaN or -Inf fitness is refused: NaN
// fails every comparison and -Inf wins every one, so either would own the
// swarm optimum for the rest of the run on one peer's say-so.
func (s *Swarm) Inject(x []float64, fx float64) bool {
	if math.IsNaN(fx) || math.IsInf(fx, -1) {
		return false
	}
	if s.g != nil && fx >= s.fg {
		return false
	}
	if len(x) != s.dim {
		return false
	}
	s.setBest(x, fx)
	return true
}

// EvalOne performs exactly one function evaluation: the next particle in
// round-robin order is moved (after its first, seeding evaluation) and
// evaluated, and the personal and swarm bests are updated. It returns the
// fitness just computed.
func (s *Swarm) EvalOne() float64 {
	i := s.next
	s.next = (s.next + 1) % s.k
	if s.seeded(i) {
		s.move(i)
	}

	x, _, p := s.particle(i)
	fx := s.eval(x)
	s.evals++
	if fp := s.fitness(); fx < fp[i] {
		fp[i] = fx
		copy(p, x)
	}
	if fx < s.fg {
		s.setBest(x, fx)
	}
	return fx
}

// moveBlock is the number of dimensions whose uniforms move draws in one
// Float64s fill: two per dimension fit a 64-float stack array.
const moveBlock = 32

// move applies the velocity and position update to particle i. Each
// dimension's new velocity is clamped to ±vmax and added to x in the
// pass that computes it. Uniforms are drawn a block at a time in the
// order the update consumes them: c1's, then c2's once the swarm has an
// optimum to attract it (until then the social term is absent).
func (s *Swarm) move(i int) {
	x, v, p := s.particle(i)
	w, c1, c2, g := s.cfg.Inertia, s.cfg.C1, s.cfg.C2, s.g
	per := 1
	if g != nil {
		per = 2
	}
	var u [2 * moveBlock]float64
	for lo := 0; lo < s.dim; lo += moveBlock {
		n := min(moveBlock, s.dim-lo)
		s.rng.Float64s(u[:per*n])
		for k := 0; k < n; k++ {
			j := lo + k
			nv := w*v[j] + c1*u[per*k]*(p[j]-x[j])
			if g != nil {
				nv += c2 * u[per*k+1] * (g[j] - x[j])
			}
			if nv < -s.vmax {
				nv = -s.vmax
			} else if nv > s.vmax {
				nv = s.vmax
			}
			v[j] = nv
			x[j] += nv
		}
	}
}
