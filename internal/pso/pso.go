// Package pso implements particle swarm optimization (Kennedy & Eberhart
// 1995): the classic full-information ("gbest") algorithm the paper builds
// on, plus the incomplete-topology variants its related-work section
// discusses — lbest ring, von Neumann lattice, and the fully-informed
// particle swarm (FIPS, Mendes et al. 2004) — and the usual inertia-weight
// and constriction-coefficient parameterizations.
//
// The update rule is the paper's equations (1)–(2):
//
//	v_i = w·v_i + c1·rand()·(p_i − x_i) + c2·rand()·(g − x_i)
//	x_i = x_i + v_i
//
// with per-dimension velocity clamping to vmax. Evaluation is exposed at
// single-evaluation granularity (EvalOne) because the paper's simulations
// use "one local function evaluation" as the unit of time, with a gossip
// exchange every r evaluations.
package pso

import (
	"math"

	"gossipopt/internal/funcs"
	"gossipopt/internal/rng"
	"gossipopt/internal/vec"
)

// Variant selects the neighborhood structure used for the social term.
type Variant int

// Neighborhood variants.
const (
	// GBest is the classic full-information swarm: every particle is
	// attracted to the single swarm-wide best. This is the paper's PSO.
	GBest Variant = iota
	// LBestRing restricts information to a ring: particle i sees i−1 and
	// i+1 (Kennedy 1999, "small worlds and mega-minds").
	LBestRing
	// VonNeumann arranges particles on a 2-D torus with 4-neighborhoods
	// (Kennedy & Mendes 2002).
	VonNeumann
	// FIPS is the fully-informed particle swarm: the velocity update
	// averages attraction to all neighbors' bests (Mendes et al. 2004).
	FIPS
)

// String names the variant.
func (v Variant) String() string {
	switch v {
	case GBest:
		return "gbest"
	case LBestRing:
		return "lbest-ring"
	case VonNeumann:
		return "von-neumann"
	case FIPS:
		return "fips"
	}
	return "unknown"
}

// Config collects the PSO hyperparameters. The zero value selects the
// canonical convergent parameters w = 0.72984, c1 = c2 = 1.49445 (the
// constriction-equivalent setting of Clerc & Kennedy), with vmax = half the
// domain width. The paper's background section quotes the original
// w = 1, c1 = c2 = 2 rule, but that setting sits on the divergence boundary
// and cannot reach the solution qualities its tables report (e.g. Sphere
// ≈ 1e−51); every practical PSO of that era used inertia decay or
// constriction. Set Inertia and C1/C2 explicitly to reproduce the literal
// textbook variant.
type Config struct {
	// C1 and C2 are the cognitive and social learning factors.
	C1, C2 float64
	// Inertia is the velocity persistence weight w.
	Inertia float64
	// Constriction, when true, applies Clerc & Kennedy's constriction
	// coefficient χ ≈ 0.7298 with c1 = c2 = 2.05 (overriding C1, C2 and
	// Inertia). A common, better-converging baseline.
	Constriction bool
	// VMaxFrac sets vmax = VMaxFrac · (Hi − Lo) per dimension.
	VMaxFrac float64
	// Variant selects the neighborhood topology (default GBest).
	Variant Variant
	// InertiaFinal, when positive, decays the inertia weight linearly
	// from Inertia down to InertiaFinal over InertiaDecayEvals
	// evaluations (the classic w: 0.9 → 0.4 schedule). Zero disables
	// decay.
	InertiaFinal      float64
	InertiaDecayEvals int64
	// ClampPosition, when true, clamps particle positions to the domain
	// box after each move (by default particles may fly outside, as in
	// the original PSO; the objective is still defined there).
	ClampPosition bool
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
	eval   funcs.Objective
	lo, hi float64
	dim    int
	cfg    Config
	rng    *rng.RNG
	vmax   float64

	slab  []float64
	k     int     // particles
	nbors [][]int // neighbor indices per particle (nil for GBest)

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
		eval: f.Eval, lo: f.Lo, hi: f.Hi,
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
	s.nbors = neighborhoods(cfg.Variant, k)
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

// neighborhoods builds the per-particle neighbor lists (including self) for
// the social term. GBest returns nil: the swarm best is used directly.
func neighborhoods(v Variant, k int) [][]int {
	switch v {
	case LBestRing:
		nb := make([][]int, k)
		for i := range nb {
			nb[i] = []int{(i - 1 + k) % k, i, (i + 1) % k}
		}
		return nb
	case VonNeumann, FIPS:
		// Near-square torus; FIPS conventionally uses the von Neumann
		// lattice as well.
		cols := 1
		for cols*cols < k {
			cols++
		}
		rows := (k + cols - 1) / cols
		nb := make([][]int, k)
		for i := range nb {
			r, c := i/cols, i%cols
			add := func(rr, cc int) {
				rr = (rr + rows) % rows
				cc = (cc + cols) % cols
				j := rr*cols + cc
				if j < k && j != i {
					nb[i] = append(nb[i], j)
				}
			}
			nb[i] = append(nb[i], i)
			add(r-1, c)
			add(r+1, c)
			add(r, c-1)
			add(r, c+1)
		}
		return nb
	default:
		return nil
	}
}

// K returns the number of particles.
func (s *Swarm) K() int { return s.k }

// Dim returns the search-space dimension.
func (s *Swarm) Dim() int { return s.dim }

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

// localBest returns the attractor position for particle i's social term.
func (s *Swarm) localBest(i int) ([]float64, bool) {
	if s.nbors == nil {
		if s.g == nil {
			return nil, false
		}
		return s.g, true
	}
	fp := s.fitness()
	bi := -1
	bf := math.Inf(1)
	for _, j := range s.nbors[i] {
		if s.seeded(j) && fp[j] < bf {
			bf = fp[j]
			bi = j
		}
	}
	if bi < 0 {
		return nil, false
	}
	_, _, p := s.particle(bi)
	return p, true
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

// inertia returns the current inertia weight under the optional linear
// decay schedule.
func (s *Swarm) inertia() float64 {
	w := s.cfg.Inertia
	if s.cfg.InertiaFinal <= 0 || s.cfg.InertiaDecayEvals <= 0 {
		return w
	}
	t := float64(s.evals) / float64(s.cfg.InertiaDecayEvals)
	if t > 1 {
		t = 1
	}
	return w + t*(s.cfg.InertiaFinal-w)
}

// moveBlock is the number of dimensions whose uniforms move draws in one
// Float64s fill: two per dimension fit a 64-float stack array.
const moveBlock = 32

// move applies the velocity and position update to particle i. Each
// dimension's new velocity is clamped to ±vmax and added to x in the
// pass that computes it.
func (s *Swarm) move(i int) {
	x, v, p := s.particle(i)
	w, c1, c2 := s.inertia(), s.cfg.C1, s.cfg.C2
	chi := 1.0
	if s.cfg.Constriction {
		// Clerc & Kennedy: φ = c1+c2 = 4.1, χ = 2/|2−φ−sqrt(φ²−4φ)|.
		c1, c2 = 2.05, 2.05
		w = 1
		chi = 0.7298437881283576
	}
	if s.cfg.Variant == FIPS {
		// Fully informed: average constricted attraction to every
		// neighbor's personal best; no separate cognitive term.
		phi := c1 + c2
		nb := s.nbors[i]
		for j := 0; j < s.dim; j++ {
			var acc float64
			cnt := 0
			for _, q := range nb {
				if !s.seeded(q) {
					continue
				}
				acc += phi / float64(len(nb)) * s.rng.Float64() * (s.slab[(3*q+2)*s.dim+j] - x[j])
				cnt++
			}
			nv := v[j]
			if cnt > 0 {
				nv = chi * (w*nv + acc)
			}
			s.advance(x, v, j, nv)
		}
	} else {
		// Uniforms are drawn a block at a time in the order the update
		// consumes them: c1's, then c2's when there is an attractor.
		g, ok := s.localBest(i)
		per := 1
		if ok {
			per = 2
		}
		var u [2 * moveBlock]float64
		for lo := 0; lo < s.dim; lo += moveBlock {
			n := min(moveBlock, s.dim-lo)
			s.rng.Float64s(u[:per*n])
			for k := 0; k < n; k++ {
				j := lo + k
				nv := w*v[j] + c1*u[per*k]*(p[j]-x[j])
				if ok {
					nv += c2 * u[per*k+1] * (g[j] - x[j])
				}
				s.advance(x, v, j, chi*nv)
			}
		}
	}
	if s.cfg.ClampPosition {
		vec.Clamp(x, s.lo, s.hi)
	}
}

// advance makes nv, clamped to ±vmax, dimension j's velocity and moves
// x[j] by it.
func (s *Swarm) advance(x, v []float64, j int, nv float64) {
	if nv < -s.vmax {
		nv = -s.vmax
	} else if nv > s.vmax {
		nv = s.vmax
	}
	v[j] = nv
	x[j] += nv
}

// Step performs one full swarm iteration (K evaluations).
func (s *Swarm) Step() {
	for range s.k {
		s.EvalOne()
	}
}

// Run performs evaluations until the budget is exhausted or the swarm best
// reaches the threshold (use a negative threshold to disable). It returns
// the number of evaluations spent.
func (s *Swarm) Run(budget int64, threshold float64) int64 {
	start := s.evals
	for s.evals-start < budget {
		s.EvalOne()
		if s.fg <= threshold {
			break
		}
	}
	return s.evals - start
}
