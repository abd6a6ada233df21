package core

import (
	"math"
	"testing"

	"gossipopt/internal/funcs"
	"gossipopt/internal/sim"
)

func TestAsyncSingleNodeConverges(t *testing.T) {
	net := NewAsyncNetwork(AsyncConfig{
		Nodes: 1, Particles: 16, Function: funcs.Sphere, Seed: 1,
	})
	net.RunFor(40000, 1<<22)
	if q := net.Quality(); q > 1e-8 {
		t.Fatalf("quality %g after 40k time units (%d evals)", q, net.TotalEvals())
	}
}

func TestAsyncEvalsAccumulate(t *testing.T) {
	net := NewAsyncNetwork(AsyncConfig{
		Nodes: 8, Particles: 8, Function: funcs.Sphere, Seed: 2, EvalTime: 1,
	})
	net.RunFor(1000, 1<<22)
	// 8 nodes × ~1000 evals (±20 % jitter).
	got := net.TotalEvals()
	if got < 6000 || got > 11000 {
		t.Fatalf("TotalEvals = %d, want ≈ 8000", got)
	}
}

func TestAsyncGossipDiffuses(t *testing.T) {
	net := NewAsyncNetwork(AsyncConfig{
		Nodes: 16, Particles: 8, GossipEvery: 8,
		Function: funcs.Sphere, Seed: 3,
	})
	net.RunFor(4000, 1<<22)
	if m := net.Metrics(); m.Exchanges == 0 || m.Adoptions == 0 {
		t.Fatalf("no gossip traffic: %+v", m)
	}
	// All nodes should be near the global best.
	gb, ok := net.GlobalBest()
	if !ok {
		t.Fatal("no best")
	}
	for i, a := range net.nodes {
		_, f := a.solver.Best()
		if f > gb.F*1e9+1e-3 {
			t.Fatalf("node %d best %g far from global %g", i, f, gb.F)
		}
	}
}

func TestAsyncWithLatencyAndLoss(t *testing.T) {
	net := NewAsyncNetwork(AsyncConfig{
		Nodes: 16, Particles: 8, GossipEvery: 8,
		Function: funcs.Sphere, Seed: 4,
		Link: sim.UniformLink{MinDelay: 1, MaxDelay: 20, LossProb: 0.3},
	})
	net.RunFor(5000, 1<<22)
	if q := net.Quality(); q > 1e-4 {
		t.Fatalf("quality %g under 30%% loss and high latency", q)
	}
	if net.Engine().Dropped() == 0 {
		t.Fatal("no messages dropped at LossProb 0.3")
	}
}

func TestAsyncCrashTolerance(t *testing.T) {
	net := NewAsyncNetwork(AsyncConfig{
		Nodes: 20, Particles: 8, GossipEvery: 8,
		Function: funcs.Sphere, Seed: 5,
	})
	net.RunFor(500, 1<<22)
	for i := 0; i < 10; i++ {
		net.Crash(i)
	}
	before := net.TotalEvals()
	net.RunFor(3000, 1<<22)
	if net.TotalEvals() <= before {
		t.Fatal("survivors stopped evaluating after crashes")
	}
	if q := net.Quality(); math.IsInf(q, 1) {
		t.Fatal("no best among survivors")
	}
}

// TestAsyncReviveSingleTimerChain: a revive landing before the crashed
// node's in-flight tick is delivered must not leave two parallel eval
// chains (the stale pre-crash tick is generation-filtered), so the eval
// rate after the restart stays the single-chain rate.
func TestAsyncReviveSingleTimerChain(t *testing.T) {
	net := NewAsyncNetwork(AsyncConfig{
		Nodes: 1, Particles: 4, GossipEvery: 0, // no gossip noise
		Function: funcs.Sphere, Seed: 8, EvalTime: 1,
		NewscastPeriod: 1e9,
	})
	net.RunFor(20, 1<<22)
	// Crash with a tick in flight, revive immediately: the old tick is
	// still queued and will arrive after the node is live again.
	net.Crash(0)
	net.Revive(0)
	before := net.TotalEvals()
	net.RunFor(40, 1<<22)
	got := net.TotalEvals() - before
	// Single chain: ~40 evals (jitter 0.8–1.2 bounds it to [33, 50]).
	// A duplicated chain would be ~80.
	if got > 55 {
		t.Fatalf("%d evals in 40 time units: stale pre-crash tick resumed a second chain", got)
	}
	if got < 20 {
		t.Fatalf("%d evals in 40 time units: revived node barely runs", got)
	}
}

func TestAsyncDeterministic(t *testing.T) {
	run := func() (float64, int64) {
		net := NewAsyncNetwork(AsyncConfig{
			Nodes: 8, Particles: 8, Function: funcs.Rastrigin, Seed: 6,
			Link: sim.UniformLink{MinDelay: 0.5, MaxDelay: 2, LossProb: 0.1},
		})
		net.RunFor(2000, 1<<22)
		return net.Quality(), net.TotalEvals()
	}
	q1, e1 := run()
	q2, e2 := run()
	if q1 != q2 || e1 != e2 {
		t.Fatalf("non-deterministic: (%g, %d) vs (%g, %d)", q1, e1, q2, e2)
	}
}

func TestAsyncMatchesCycleDrivenShape(t *testing.T) {
	// The async network must show the same qualitative behaviour as the
	// cycle-driven one: coordination beats isolation at equal budget.
	quality := func(gossipEvery int) float64 {
		net := NewAsyncNetwork(AsyncConfig{
			Nodes: 24, Particles: 16, GossipEvery: gossipEvery,
			Function: funcs.Rastrigin, Seed: 7,
		})
		net.RunFor(3000, 1<<22)
		return net.Quality()
	}
	with := quality(16)
	without := quality(0) // never gossips
	if with > without {
		t.Fatalf("async coordination (%g) lost to isolation (%g)", with, without)
	}
}

func TestAsyncDefaults(t *testing.T) {
	c := AsyncConfig{}.withDefaults()
	if c.Nodes != 1 || c.Particles != 16 || c.GossipEvery != 0 ||
		c.ViewSize != 20 || c.EvalTime != 1 || c.NewscastPeriod != 10 {
		t.Fatalf("defaults = %+v", c)
	}
	if c.Link == nil || c.Function.Name != "Sphere" {
		t.Fatal("link/function defaults missing")
	}
}

// BenchmarkAsyncRun times one simulated time unit of the repository
// benchmark's event-wan shape: n = 2000 swarms of k = 16 on Rastrigin,
// gossiping every r = 16 evaluations, Newscast c = 20, over a WAN link of
// 0.5–2.0 latency and 5% loss. It is the event engine's rung: the queue,
// the Deliver handlers and the messages they build. Evaluations per second
// are reported as node-cycles/s, as the benchmark counts them. The network
// is warmed 20 time units first, as event-wan is.
func BenchmarkAsyncRun(b *testing.B) {
	net := NewAsyncNetwork(AsyncConfig{Nodes: 2000, Particles: 16, GossipEvery: 16,
		ViewSize: 20, Function: funcs.Rastrigin, Seed: 1,
		Link: sim.UniformLink{MinDelay: 0.5, MaxDelay: 2.0, LossProb: 0.05}})
	net.RunFor(20, math.MaxInt64)
	evals := net.TotalEvals()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.RunFor(1, math.MaxInt64)
	}
	b.StopTimer()
	b.ReportMetric(float64(net.TotalEvals()-evals)/b.Elapsed().Seconds(), "node-cycles/s")
}
