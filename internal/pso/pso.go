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
// A swarm's state lives in the float slab of its population (NewSwarms):
// particle i's position, velocity and personal best are the runs x, v, p
// of dim floats starting at slab[i·stride], and tail holds the k
// personal-best fitnesses followed by the swarm optimum g.
type Swarm struct {
	eval funcs.Objective
	rng  *rng.RNG

	w, c1, c2, vmax float64

	slab   []float64 // from particle 0; particle i at i·stride
	stride int       // 3·dim·(swarms in the population)
	dim    int
	tail   []float64 // k fitnesses, then g

	fg    float64
	next  int
	evals int64
	hasG  bool // g is set: the first improvement or Inject has happened
}

// New creates a swarm of k particles over f in dimension dim (0 uses the
// function's paper dimension), drawing randomness from r. Positions are
// uniform in the domain; velocities are uniform in [−vmax, vmax]. It is
// the population of one: NewSwarms with the single stream r.
func New(f funcs.Function, dim, k int, cfg Config, r *rng.RNG) *Swarm {
	return &NewSwarms(f, dim, k, cfg, []*rng.RNG{r})[0]
}

// NewSwarms creates a population of n = len(rs) swarms, swarm j built as
// New builds it from rs[j] (the same draws in the same order), in two
// allocations: the swarms and one float slab. The slab is particle-major:
// particle i of swarm j starts at (i·n + j)·3·dim, so when every swarm
// moves the same particle — the network's swarms all evaluate once per
// cycle — the moves read and write the slab in order. The k fitnesses and
// the optimum of each swarm follow, swarm by swarm, after the n·k
// particles. Every run a swarm hands out is capped at its end, so a
// caller appending to it cannot write into its neighbour.
func NewSwarms(f funcs.Function, dim, k int, cfg Config, rs []*rng.RNG) []Swarm {
	cfg = cfg.withDefaults()
	d, n := f.Dim(dim), len(rs)
	run, body := 3*d, 3*d*k*n
	slab := make([]float64, body+n*(k+d))
	swarms := make([]Swarm, n)
	vmax := float64(cfg.VMaxFrac * (f.Hi - f.Lo))
	for j, r := range rs {
		t := body + j*(k+d)
		s := &swarms[j]
		*s = Swarm{
			eval: f.Eval,
			rng:  r,
			w:    cfg.Inertia, c1: cfg.C1, c2: cfg.C2, vmax: vmax,
			slab:   slab[j*run : body : body],
			stride: n * run,
			dim:    d,
			tail:   slab[t : t+k+d : t+k+d],
			fg:     math.Inf(1),
		}
		fp := s.fitness()
		for i := range fp {
			x, v, p := s.particle(i)
			for c := range x {
				x[c] = r.UniformIn(f.Lo, f.Hi)
				v[c] = r.UniformIn(-vmax, vmax)
			}
			copy(p, x)
			fp[i] = math.Inf(1)
		}
	}
	return swarms
}

// particle returns particle i's position, velocity and personal best.
// The position is what the objective receives, so it is capped.
func (s *Swarm) particle(i int) (x, v, p []float64) {
	d, o := s.dim, i*s.stride
	return s.slab[o : o+d : o+d], s.slab[o+d : o+2*d], s.slab[o+2*d : o+3*d]
}

// fitness returns the k personal-best fitnesses.
func (s *Swarm) fitness() []float64 { return s.tail[:len(s.tail)-s.dim] }

// g returns the swarm optimum's run, the end of tail.
func (s *Swarm) g() []float64 { return s.tail[len(s.tail)-s.dim:] }

// seeded reports whether particle i has had its initial evaluation.
// Particles are first evaluated in index order, one per EvalOne, so that
// is exactly the first evals particles.
func (s *Swarm) seeded(i int) bool { return int64(i) < s.evals }

// setBest makes x, with fitness fx, the swarm optimum. g is a run of the
// slab, so no improvement or adoption allocates.
func (s *Swarm) setBest(x []float64, fx float64) {
	copy(s.g(), x)
	s.fg, s.hasG = fx, true
}

// Evals returns the number of function evaluations performed.
func (s *Swarm) Evals() int64 { return s.evals }

// Best returns the swarm optimum and its fitness; the position is nil
// until the first improvement or Inject. The slice is owned by the swarm;
// callers must not modify it.
func (s *Swarm) Best() ([]float64, float64) {
	if !s.hasG {
		return nil, s.fg
	}
	return s.g(), s.fg
}

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
	if s.hasG && fx >= s.fg {
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
	if s.next++; s.next == len(s.tail)-s.dim {
		s.next = 0
	}
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
// optimum to attract it (until then the social term is absent). The
// float64 conversions force each product's rounding, so no architecture
// fuses it into the sum and every GOARCH computes the same bits.
func (s *Swarm) move(i int) {
	x, v, p := s.particle(i)
	w, c1, c2 := s.w, s.c1, s.c2
	var g []float64
	per := 1
	if s.hasG {
		g, per = s.g(), 2
	}
	var u [2 * moveBlock]float64
	for lo := 0; lo < s.dim; lo += moveBlock {
		n := min(moveBlock, s.dim-lo)
		s.rng.Float64s(u[:per*n])
		for k := 0; k < n; k++ {
			j := lo + k
			nv := float64(w*v[j]) + float64(c1*u[per*k]*(p[j]-x[j]))
			if g != nil {
				nv += float64(c2 * u[per*k+1] * (g[j] - x[j]))
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
