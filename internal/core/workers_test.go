package core

import (
	"math"
	"testing"

	"gossipopt/internal/funcs"
	"gossipopt/internal/rng"
	"gossipopt/internal/sim"
	"gossipopt/internal/solver"
)

// qualityTrace runs a network for the given cycles and records Quality()
// after every cycle.
func qualityTrace(net *Network, cycles int) []float64 {
	out := make([]float64, 0, cycles)
	for i := 0; i < cycles; i++ {
		net.Step()
		out = append(out, net.Quality())
	}
	return out
}

// TestWorkerCountInvariance is the tentpole acceptance test: for a fixed
// seed the Quality() trace is bit-identical across workers ∈ {1, 4} and
// (propose × apply) workers ∈ {1, 2, 8}² — parallelism changes wall-clock
// only, never results.
func TestWorkerCountInvariance(t *testing.T) {
	base := Config{
		Nodes:       96,
		Particles:   4,
		GossipEvery: 4,
		Function:    funcs.Rastrigin,
		Seed:        42,
		DropProb:    0.1,
		Churn:       nil,
	}
	variants := []struct {
		name string
		mut  func(*Config)
	}{
		{"newscast", func(*Config) {}},
		{"static-random", func(c *Config) { c.Topology = TopoRandom }},
		{"static-ring", func(c *Config) { c.Topology = TopoRing }},
		{"churn", func(c *Config) {
			// Churn models are stateful; mut runs once per network build,
			// so every run gets a fresh model.
			c.Churn = &sim.RateChurn{CrashProb: 0.02, JoinPerCycle: 0.7, MinLive: 8}
		}},
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			mk := func(workers, applyWorkers int) []float64 {
				cfg := base
				v.mut(&cfg)
				cfg.Workers = workers
				net := NewNetwork(cfg)
				if applyWorkers > 0 {
					net.Engine().SetApplyWorkers(applyWorkers)
				}
				return qualityTrace(net, 30)
			}
			want := mk(1, 0)
			grid := [][2]int{{4, 0}}
			for _, p := range []int{1, 2, 8} {
				for _, a := range []int{1, 2, 8} {
					grid = append(grid, [2]int{p, a})
				}
			}
			for _, w := range grid {
				got := mk(w[0], w[1])
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("workers=%dx%d cycle %d: quality %v != %v (workers=1)",
							w[0], w[1], i, got[i], want[i])
					}
				}
			}
		})
	}
}

// TestEvalCounterMatchesScan cross-checks the engine-maintained O(1)
// evaluation counter against the historical O(n) solver scan, including
// under churn (dead nodes keep their spent evaluations).
func TestEvalCounterMatchesScan(t *testing.T) {
	net := NewNetwork(Config{
		Nodes: 40, Particles: 4, GossipEvery: 4, Seed: 7,
		Function: funcs.Sphere, Workers: 4,
		Churn: &sim.RateChurn{CrashProb: 0.03, JoinPerCycle: 0.5, MinLive: 4},
	})
	for i := 0; i < 50; i++ {
		net.Step()
		if got, want := net.TotalEvals(), net.ScanTotalEvals(); got != want {
			t.Fatalf("cycle %d: counter %d != scan %d", i, got, want)
		}
	}
}

// TestMixedFactoryKeyedByNodeID: the round-robin must depend only on the
// node ID, so rebuilding a network (or building it on parallel workers)
// assigns identical solver types.
func TestMixedFactoryKeyedByNodeID(t *testing.T) {
	mixed := MixedFactory(
		func(f funcs.Function, dim int, id int64, r *rng.RNG) solver.Solver {
			return &tagSolver{tag: "a"}
		},
		func(f funcs.Function, dim int, id int64, r *rng.RNG) solver.Solver {
			return &tagSolver{tag: "b"}
		},
		func(f funcs.Function, dim int, id int64, r *rng.RNG) solver.Solver {
			return &tagSolver{tag: "c"}
		},
	)
	tags := func() []string {
		var out []string
		for id := int64(0); id < 9; id++ {
			s := mixed(funcs.Sphere, 2, id, nil).(*tagSolver)
			out = append(out, s.tag)
		}
		return out
	}
	a, b := tags(), tags()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("assignment not reproducible at node %d: %s vs %s", i, a[i], b[i])
		}
		want := []string{"a", "b", "c"}[i%3]
		if a[i] != want {
			t.Fatalf("node %d got solver %s, want %s (ID-keyed round-robin)", i, a[i], want)
		}
	}
}

// tagSolver is a do-nothing solver labelled by its factory, for asserting
// factory assignment.
type tagSolver struct{ tag string }

func (s *tagSolver) EvalOne() float64                    { return 0 }
func (s *tagSolver) Best() ([]float64, float64)          { return nil, math.Inf(1) }
func (s *tagSolver) Inject(x []float64, fx float64) bool { return false }
func (s *tagSolver) Evals() int64                        { return 0 }
