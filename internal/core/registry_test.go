package core

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"gossipopt/internal/funcs"
	"gossipopt/internal/rng"
	"gossipopt/internal/sim"
	"gossipopt/internal/solver"
)

func TestTopologyByName(t *testing.T) {
	for _, name := range TopologyNames() {
		k, err := TopologyByName(name)
		if err != nil {
			t.Fatalf("registered topology %q failed: %v", name, err)
		}
		if k.String() != name {
			t.Fatalf("round-trip %q -> %v -> %q", name, k, k.String())
		}
	}
	if k, err := TopologyByName("Newscast"); err != nil || k != TopoNewscast {
		t.Fatalf("lookup not case-insensitive: %v %v", k, err)
	}
	_, err := TopologyByName("hypercube")
	if err == nil || !strings.Contains(err.Error(), "newscast") {
		t.Fatalf("unknown-topology error must list names, got %v", err)
	}
}

func TestSolverByName(t *testing.T) {
	if names := SolverNames(); !slices.Equal(names, []string{"de", "es", "pso"}) {
		t.Fatalf("SolverNames() = %v, want the paper's [de es pso]", names)
	}
	r := rng.New(1)
	for _, name := range SolverNames() {
		mk, err := SolverByName(name, 8)
		if err != nil {
			t.Fatalf("registered solver %q failed: %v", name, err)
		}
		s := mk(funcs.Sphere, 0, 0, r.Split())
		s.EvalOne()
		if s.Evals() != 1 {
			t.Fatalf("solver %q did not evaluate", name)
		}
	}
	_, err := SolverByName("ga", 8) // retired with SA and random search
	if err == nil || !strings.Contains(err.Error(), "pso") {
		t.Fatalf("unknown-solver error must list names, got %v", err)
	}
}

func TestSolversByNameMixed(t *testing.T) {
	mk, err := SolversByName([]string{"pso", "es"}, 4)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(2)
	// Round-robin by id: even ids PSO, odd ids ES; both must work.
	for id := int64(0); id < 4; id++ {
		s := mk(funcs.Sphere, 0, id, r.Split())
		s.EvalOne()
		if s.Evals() != 1 {
			t.Fatalf("mixed solver for id %d did not evaluate", id)
		}
	}
	if _, err := SolversByName(nil, 4); err == nil {
		t.Fatal("empty solver list accepted")
	}
	if _, err := SolversByName([]string{"pso", "nope"}, 4); err == nil {
		t.Fatal("bad name inside list accepted")
	}
}

// TestSolversByNamePSOIsDefault checks that "pso" alone resolves to the
// nil factory, NewNetwork's default swarm, and that the default's
// population slab runs bit for bit as the "pso" factory's swarm per node.
func TestSolversByNamePSOIsDefault(t *testing.T) {
	mk, err := SolversByName([]string{"PSO"}, 8)
	if err != nil || mk != nil {
		t.Fatalf(`SolversByName("PSO") = %p, %v; want the nil factory`, mk, err)
	}
	perNode, err := SolverByName("pso", 8)
	if err != nil {
		t.Fatal(err)
	}
	run := func(factory solver.Factory) (BestPoint, Metrics) {
		net := NewNetwork(Config{Nodes: 40, Particles: 8, GossipEvery: 8, Function: funcs.Rastrigin,
			Seed: 3, SolverFactory: factory, Churn: &sim.RateChurn{CrashProb: 0.02, JoinPerCycle: 1}})
		defer net.Engine().Close()
		net.RunEvals(4000)
		b, _ := net.GlobalBest()
		return BestPoint{X: slices.Clone(b.X), F: b.F}, net.Metrics()
	}
	b0, m0 := run(nil)
	b1, m1 := run(perNode)
	if b0.F != b1.F || !slices.Equal(b0.X, b1.X) || m0 != m1 {
		t.Fatalf("default swarms: best %v, %+v; per-node factory: best %v, %+v", b0.F, m0, b1.F, m1)
	}
}

// TestInjectRefusesNonFiniteFitness offers a NaN and a -Inf point to every
// registered solver, fresh and after some evaluations. Each Inject must
// return false and leave the solver exactly as an untouched twin: the same
// Best, then the same fitness sequence over further evaluations (a planted
// point in the population would change it).
func TestInjectRefusesNonFiniteFitness(t *testing.T) {
	const dim = 4
	makers := map[string]solver.Factory{}
	for _, name := range SolverNames() {
		mk, err := SolverByName(name, 8)
		if err != nil {
			t.Fatal(err)
		}
		makers[name] = mk
	}
	sameBest := func(a, b solver.Solver) bool {
		ax, af := a.Best()
		bx, bf := b.Best()
		return slices.Equal(ax, bx) && math.Float64bits(af) == math.Float64bits(bf)
	}
	for _, name := range SolverNames() {
		for _, seeded := range []int{0, 20} {
			t.Run(fmt.Sprintf("%s/evals=%d", name, seeded), func(t *testing.T) {
				build := func() solver.Solver {
					s := makers[name](funcs.Sphere, dim, 1, rng.New(5))
					for i := 0; i < seeded; i++ {
						s.EvalOne()
					}
					return s
				}
				s, twin := build(), build()
				x := make([]float64, dim) // Sphere's optimum: any finite fitness here is adoptable
				for _, f := range []float64{math.NaN(), math.Inf(-1)} {
					if s.Inject(x, f) {
						t.Fatalf("Inject(x, %v) accepted", f)
					}
					if !sameBest(s, twin) {
						x, f := s.Best()
						t.Fatalf("Best changed to (%v, %v) by a refused point", x, f)
					}
				}
				for i := 0; i < 50; i++ {
					if a, b := s.EvalOne(), twin.EvalOne(); math.Float64bits(a) != math.Float64bits(b) {
						t.Fatalf("eval %d after the refused points: %v, untouched twin %v", i, a, b)
					}
				}
				if !sameBest(s, twin) {
					t.Fatal("Best diverged from the untouched twin")
				}
				if !s.Inject(x, -1) {
					t.Fatal("a finite better point was refused")
				}
			})
		}
	}
}
