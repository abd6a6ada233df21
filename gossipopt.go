// Package gossipopt is a decentralized optimization framework: a Go
// reproduction of "Towards a Decentralized Architecture for Optimization"
// (Biazzini, Brunato, Montresor — IPPS 2008).
//
// A network of loosely coupled nodes cooperates on a single global
// optimization task with no central coordinator. Each node runs three
// services:
//
//   - topology: NEWSCAST gossip-based peer sampling keeps a self-repairing,
//     random-graph-like overlay under churn;
//   - optimization: a particle swarm (or any Solver) spends function
//     evaluations locally;
//   - coordination: an anti-entropy epidemic spreads the best known point,
//     one exchange every r local evaluations.
//
// Quick start:
//
//	net := gossipopt.New(gossipopt.Config{
//		Nodes:       64,
//		Particles:   16,
//		GossipEvery: 16,
//		Function:    gossipopt.Sphere,
//		Seed:        1,
//	})
//	net.RunEvals(1 << 20)
//	best, _ := net.GlobalBest()
//	fmt.Println(best.F)
//
// The package also exposes the benchmark functions and the solvers of the
// paper's solver ablation: PSOSolver, DESolver (differential evolution)
// and ESSolver ((1+1)-ES), mixed across nodes by MixedSolvers. GASolver,
// SASolver and RandomSolver were removed, replaced by PSOSolver, DESolver
// and ESSolver: no file of the paper's ablations used them. The paper's
// tables and ablations are sweep files in paper/, run by cmd/scenario
// -sweep (docs/SCENARIOS.md, "Reproducing the paper"); cmd/p2pnode runs
// the identical protocol stack over TCP sockets.
package gossipopt

import (
	"gossipopt/internal/core"
	"gossipopt/internal/funcs"
	"gossipopt/internal/pso"
	"gossipopt/internal/rng"
	"gossipopt/internal/sim"
	"gossipopt/internal/solver"
)

// Core framework types.
type (
	// Config describes a deployment: n nodes × k particles, gossip period
	// r, topology, function, seed.
	Config = core.Config
	// Network is a running deployment.
	Network = core.Network
	// BestPoint is a position/fitness pair, the coordination payload.
	BestPoint = core.BestPoint
	// TopologyKind selects the topology service.
	TopologyKind = core.TopologyKind
	// Function is a benchmark objective with domain and known optimum.
	Function = funcs.Function
	// PSOConfig tunes the default per-node particle swarm.
	PSOConfig = pso.Config
	// Solver is the pluggable function-optimization service contract.
	Solver = solver.Solver
	// SolverFactory builds a fresh Solver per node.
	SolverFactory = solver.Factory
	// ChurnModel mutates the simulated population each cycle.
	ChurnModel = sim.ChurnModel
	// RNG is the deterministic random stream used throughout.
	RNG = rng.RNG
)

// Topology service choices.
const (
	TopoNewscast = core.TopoNewscast
	TopoRandom   = core.TopoRandom
	TopoRing     = core.TopoRing
	TopoStar     = core.TopoStar
	TopoFull     = core.TopoFull
)

// The paper's benchmark suite (all minimization, optimum value 0).
var (
	F2             = funcs.F2
	Zakharov       = funcs.Zakharov
	Rosenbrock     = funcs.Rosenbrock
	Sphere         = funcs.Sphere
	Schaffer       = funcs.Schaffer
	Griewank       = funcs.Griewank
	Rastrigin      = funcs.Rastrigin
	Ackley         = funcs.Ackley
	Levy           = funcs.Levy
	StyblinskiTang = funcs.StyblinskiTang
	Schwefel       = funcs.Schwefel
	// PaperSuite is the six functions of the paper's evaluation.
	PaperSuite = funcs.PaperSuite
	// ExtendedSuite adds five further standard benchmarks.
	ExtendedSuite = funcs.ExtendedSuite
)

// FunctionByName resolves a benchmark function by name (e.g. "Sphere").
func FunctionByName(name string) (Function, error) { return funcs.ByName(name) }

// New builds and wires a network. See Config for the knobs; zero values
// select the paper's defaults (Newscast topology, PSO solver, c = 20).
func New(cfg Config) *Network { return core.NewNetwork(cfg) }

// NewRNG returns a deterministic random stream for the given seed.
func NewRNG(seed uint64) *RNG { return rng.New(seed) }

// MixedSolvers round-robins the given factories across nodes
// (heterogeneous deployments — the paper's future-work scenario).
func MixedSolvers(factories ...SolverFactory) SolverFactory {
	return core.MixedFactory(factories...)
}

// Solver factories for the bundled solvers.

// PSOSolver returns a factory for per-node particle swarms of k particles.
func PSOSolver(k int, cfg PSOConfig) SolverFactory {
	return func(f Function, dim int, _ int64, r *RNG) Solver { return pso.New(f, dim, k, cfg, r) }
}

// DESolver returns a factory for differential-evolution populations of np.
func DESolver(np int) SolverFactory {
	return func(f Function, dim int, _ int64, r *RNG) Solver { return solver.NewDE(f, dim, np, r) }
}

// ESSolver returns a factory for (1+1) evolution strategies.
func ESSolver() SolverFactory {
	return func(f Function, dim int, _ int64, r *RNG) Solver { return solver.NewES(f, dim, r) }
}
