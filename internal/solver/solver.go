// Package solver defines the framework's function-optimization service
// contract and the two solvers the paper's solver ablation sets beside
// PSO: differential evolution and a self-adaptive (1+1) evolution
// strategy. The paper's future work calls for "the implementation of
// various different solvers to enrich the function evaluation service and
// then be able to test module diversification among peers"; any Solver
// can be plugged into a framework node and coordinated through the same
// epidemic best-value diffusion.
package solver

import (
	"math"

	"gossipopt/internal/funcs"
	"gossipopt/internal/rng"
	"gossipopt/internal/vec"
)

// Solver is the function-optimization service contract. One EvalOne call
// costs exactly one objective evaluation — the paper's unit of time — so
// the coordination layer can interleave gossip exchanges every r
// evaluations regardless of the solver inside.
type Solver interface {
	// EvalOne advances the search by exactly one function evaluation and
	// returns the fitness just computed.
	EvalOne() float64
	// Best returns the best position found (or injected) so far and its
	// fitness. The slice is owned by the solver.
	Best() ([]float64, float64)
	// Inject offers a remote best from the coordination service; the
	// solver adopts it when strictly better and reports whether it did.
	// A NaN or -Inf fitness is never adopted.
	Inject(x []float64, fx float64) bool
	// Evals returns the number of evaluations performed so far.
	Evals() int64
}

// Factory builds a fresh solver for a node. Experiments pass factories so
// every simulated node gets an independent solver fed by its own RNG
// stream. The id is the node's stable identifier (its simulated NodeID, or
// 0 when there is no meaningful one): factories that vary per node — mixed
// deployments, search-space partitioning — key their choice off it, which
// keeps them deterministic and race-free when nodes are built on parallel
// workers (a shared round-robin counter would be neither).
type Factory func(f funcs.Function, dim int, id int64, r *rng.RNG) Solver

// best tracks the best-so-far state shared by DE and the ES.
type best struct {
	x []float64
	f float64
}

func newBest() best { return best{f: math.Inf(1)} }

// admissible reports whether an injected fitness may be adopted. NaN
// passes no comparison (so it would replace any best), and -Inf would
// own the population forever; both are refused at every Inject.
func admissible(fx float64) bool { return !math.IsNaN(fx) && !math.IsInf(fx, -1) }

func (b *best) offer(x []float64, f float64) bool {
	if f >= b.f {
		return false
	}
	if b.x == nil || len(b.x) != len(x) {
		b.x = vec.Clone(x)
	} else {
		copy(b.x, x)
	}
	b.f = f
	return true
}
