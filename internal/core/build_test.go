package core

import (
	"runtime"
	"testing"

	"gossipopt/internal/funcs"
	"gossipopt/internal/pso"
	"gossipopt/internal/rng"
	"gossipopt/internal/sim"
	"gossipopt/internal/solver"
)

// paperStack is the paper's node as published — Newscast c = 20, a PSO
// swarm of k = 16, best-point gossip every r = 16 evaluations, Griewank —
// at n nodes.
func paperStack(n int) Config {
	return Config{Nodes: n, Particles: 16, GossipEvery: 16, ViewSize: 20,
		Function: funcs.Griewank, Seed: 1}
}

// TestNewNetworkBuildsEachNodeOnce counts solver builds: exactly one per
// initial node, and one per node a churn model joins later.
func TestNewNetworkBuildsEachNodeOnce(t *testing.T) {
	const n = 50
	builds := 0
	cfg := paperStack(n)
	cfg.SolverFactory = func(f funcs.Function, dim int, _ int64, r *rng.RNG) solver.Solver {
		builds++
		return pso.New(f, dim, cfg.Particles, cfg.PSO, r)
	}
	cfg.Churn = &sim.RateChurn{JoinPerCycle: 3}
	net := NewNetwork(cfg)
	defer net.Engine().Close()
	if builds != n {
		t.Fatalf("%d initial nodes built %d solvers, want %d", n, builds, n)
	}
	for i := 0; i < 10; i++ {
		net.Step()
	}
	joined := net.Engine().Size() - n
	if joined != 30 || builds != n+joined {
		t.Fatalf("%d joins: %d solvers built in all, want %d", joined, builds, n+30)
	}
}

// TestNewNetworkAllocBudget gates what building the paper's stack at
// n = 10 000 allocates in all: 60 MB. A node's stack is about 4.8 kB, so
// building every initial node twice (103 MB) fails it.
func TestNewNetworkAllocBudget(t *testing.T) {
	const budget = 60e6
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	net := NewNetwork(paperStack(10_000))
	runtime.ReadMemStats(&after)
	net.Engine().Close()
	got := float64(after.TotalAlloc - before.TotalAlloc)
	t.Logf("NewNetwork at n = 10 000 allocated %.1f MB", got/1e6)
	if got > budget {
		t.Fatalf("NewNetwork at n = 10 000 allocated %.1f MB, budget %.0f MB", got/1e6, budget/1e6)
	}
}

// BenchmarkNewNetwork builds the paper's stack at n = 10 000 per op: what
// every repetition of a paper-size cell pays before its first cycle. The
// initial swarms are one population, so their structs, state and RNG
// streams are three allocations in all, not three per node
// (scripts/alloc_budget.txt).
func BenchmarkNewNetwork(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		NewNetwork(paperStack(10_000)).Engine().Close()
	}
}

// BenchmarkSolverCycle times one whole-network cycle of the repository
// benchmark's solver-heavy shape: n = 2000 PSO swarms of k = 16 on
// Rastrigin at d = 30, gossiping every r = 16 evaluations over a static
// random overlay, on one worker. Every swarm moves the same particle in
// a cycle, so this is where the population's memory layout shows. The
// network is warmed past the swarms' seeding evaluations first.
func BenchmarkSolverCycle(b *testing.B) {
	const n = 2000
	net := NewNetwork(Config{Nodes: n, Particles: 16, GossipEvery: 16, ViewSize: 20,
		Function: funcs.Rastrigin, Dim: 30, Seed: 1, Topology: TopoRandom, Workers: 1})
	defer net.Engine().Close()
	net.Engine().Run(32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Step()
	}
	b.StopTimer()
	b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "node-cycles/s")
}
