package core

import (
	"math"
	"testing"

	"gossipopt/internal/funcs"
	"gossipopt/internal/gossip"
	"gossipopt/internal/overlay"
	"gossipopt/internal/rng"
	"gossipopt/internal/sim"
	"gossipopt/internal/solver"
)

func TestSingleNodeEqualsPlainPSO(t *testing.T) {
	// n = 1 degenerates to a centralized swarm; it must converge on Sphere.
	net := NewNetwork(Config{Nodes: 1, Particles: 16, GossipEvery: 16, Seed: 1,
		Function: funcs.Sphere})
	net.RunEvals(20000)
	if q := net.Quality(); q > 1e-8 {
		t.Fatalf("single-node quality %g after 20k evals", q)
	}
}

func TestTotalEvalsBudgetRespected(t *testing.T) {
	net := NewNetwork(Config{Nodes: 10, Particles: 8, GossipEvery: 8, Seed: 2,
		Function: funcs.Sphere})
	net.RunEvals(5000)
	got := net.TotalEvals()
	// One cycle adds LiveCount evals, so overshoot is < n.
	if got < 5000 || got >= 5000+10 {
		t.Fatalf("TotalEvals = %d, want in [5000, 5010)", got)
	}
}

func TestCyclesEqualLocalEvals(t *testing.T) {
	net := NewNetwork(Config{Nodes: 4, Particles: 4, GossipEvery: 4, Seed: 3,
		Function: funcs.Sphere})
	cycles := net.RunEvals(4 * 250)
	if cycles != 250 {
		t.Fatalf("cycles = %d, want 250", cycles)
	}
}

func TestGossipSpreadsBest(t *testing.T) {
	// With coordination, all nodes should know (nearly) the same best
	// shortly after convergence.
	net := NewNetwork(Config{Nodes: 20, Particles: 8, GossipEvery: 8, Seed: 4,
		Function: funcs.Sphere})
	net.RunEvals(40000)
	gb, ok := net.GlobalBest()
	if !ok {
		t.Fatal("no global best")
	}
	worstLocal := -1.0
	net.Engine().ForEachLive(func(n *sim.Node) {
		o := n.Protocol(SlotOpt).(*OptNode)
		if _, f := o.Solver.Best(); f > worstLocal {
			worstLocal = f
		}
	})
	// All local bests must be within a few gossip rounds of the global
	// optimum; with r = 8 and 2000 cycles they should be essentially equal.
	if worstLocal > gb.F*1e6+1e-6 {
		t.Fatalf("stragglers: global best %g but worst local best %g", gb.F, worstLocal)
	}
	if m := net.Metrics(); m.Adoptions == 0 {
		t.Fatal("no adoptions despite coordination")
	}
}

func TestCoordinationBeatsIsolation(t *testing.T) {
	// The paper's central claim (Figure 3): more gossip → better quality
	// at equal budget. Compare r = k against no coordination on a
	// multimodal function, median of several seeds.
	quality := func(r int, seed uint64) float64 {
		net := NewNetwork(Config{Nodes: 50, Particles: 16, GossipEvery: r,
			Seed: seed, Function: funcs.Rastrigin})
		net.RunEvals(100000)
		return net.Quality()
	}
	wins := 0
	const trials = 5
	for s := uint64(0); s < trials; s++ {
		if quality(16, s) <= quality(0, s) {
			wins++
		}
	}
	if wins < trials-1 {
		t.Fatalf("coordination won only %d/%d trials", wins, trials)
	}
}

func TestQualityInfBeforeEvaluation(t *testing.T) {
	net := NewNetwork(Config{Nodes: 3, Seed: 5, Function: funcs.Sphere})
	if !math.IsInf(net.Quality(), 1) {
		t.Fatal("quality finite before any evaluation")
	}
	if _, ok := net.GlobalBest(); ok {
		t.Fatal("GlobalBest ok before any evaluation")
	}
}

func TestRunUntilThreshold(t *testing.T) {
	net := NewNetwork(Config{Nodes: 8, Particles: 16, GossipEvery: 16, Seed: 6,
		Function: funcs.Sphere})
	cycles, evals, reached := net.RunUntil(1e-10, 1<<20)
	if !reached {
		t.Fatalf("threshold not reached within 2^20 evals (quality %g)", net.Quality())
	}
	if cycles <= 0 || evals <= 0 {
		t.Fatalf("cycles=%d evals=%d", cycles, evals)
	}
	if net.Quality() > 1e-10 {
		t.Fatalf("reported reached but quality %g", net.Quality())
	}
}

func TestRunUntilBudgetExhaustion(t *testing.T) {
	// Griewank at tiny budget: must stop at budget, not spin forever.
	net := NewNetwork(Config{Nodes: 4, Particles: 16, GossipEvery: 16, Seed: 7,
		Function: funcs.Griewank})
	_, evals, reached := net.RunUntil(1e-10, 2000)
	if reached {
		t.Skip("Griewank unexpectedly solved at 2k evals")
	}
	if evals < 2000 || evals >= 2000+4 {
		t.Fatalf("evals = %d at budget exhaustion", evals)
	}
}

func TestTimeInverselyProportionalToNodes(t *testing.T) {
	// The paper's fourth experiment: time (local evals) to threshold
	// shrinks as nodes increase. Compare n=1 vs n=16 on Sphere.
	time := func(n int) int64 {
		net := NewNetwork(Config{Nodes: n, Particles: 8, GossipEvery: 8,
			Seed: 8, Function: funcs.Sphere})
		cycles, _, reached := net.RunUntil(1e-10, 1<<21)
		if !reached {
			t.Fatalf("n=%d never reached threshold", n)
		}
		return cycles
	}
	t1, t16 := time(1), time(16)
	if t16 >= t1 {
		t.Fatalf("time did not shrink with nodes: n=1 %d cycles, n=16 %d cycles", t1, t16)
	}
}

func TestChurnDoesNotKillComputation(t *testing.T) {
	net := NewNetwork(Config{Nodes: 64, Particles: 16, GossipEvery: 16, Seed: 9,
		Function: funcs.Sphere,
		Churn:    &sim.RateChurn{CrashProb: 0.002, JoinPerCycle: 0.13, MinLive: 8},
	})
	net.RunEvals(100000)
	// Churn slows refinement (joiners contribute fresh random particles
	// and crashed nodes' progress is lost), but must not stall it: random
	// sampling of Sphere in [-100,100]^10 yields ~1e4, so quality below
	// 0.1 demonstrates sustained convergence.
	if q := net.Quality(); q > 0.1 {
		t.Fatalf("quality %g under churn", q)
	}
}

// TestLinkLossEmptiesNoView runs the full stack under crashes, joins and
// i.i.d. link loss with delays, and requires that no live Newscast view is
// empty at the end. Loss says nothing about liveness: a view that dropped
// its partner on every lost leg left about an eighth of the live views
// empty here, joiners first, whose one bootstrap entry a single lost leg
// removed.
func TestLinkLossEmptiesNoView(t *testing.T) {
	for _, seed := range []uint64{1, 2} {
		net := NewNetwork(Config{Nodes: 1000, Particles: 2, GossipEvery: 2, ViewSize: 20,
			Function: funcs.Sphere, Dim: 2, Seed: seed,
			Churn: &sim.RateChurn{CrashProb: 0.01, JoinPerCycle: 10, MinLive: 500},
		})
		eng := net.Engine()
		eng.SetNetModel(sim.LossyLinks{Loss: 0.15, DelayMax: 2})
		eng.Run(150)
		if h := overlay.Health(eng, SlotTopology); h.Empty != 0 {
			t.Errorf("seed %d: %d of %d live views are empty: %+v", seed, h.Empty, eng.LiveCount(), *h)
		}
		eng.Close()
	}
}

func TestCatastropheRobustness(t *testing.T) {
	// §3.3.4: even if a large portion fails, the computation completes.
	net := NewNetwork(Config{Nodes: 100, Particles: 16, GossipEvery: 16, Seed: 10,
		Function: funcs.Sphere,
		Churn:    &sim.CatastropheChurn{AtCycle: 50, Fraction: 0.75},
	})
	net.RunEvals(60000)
	if net.Engine().LiveCount() != 25 {
		t.Fatalf("live = %d, want 25", net.Engine().LiveCount())
	}
	if q := net.Quality(); q > 1e-3 {
		t.Fatalf("quality %g after 75%% catastrophe", q)
	}
}

func TestMessageLossOnlySlowsDown(t *testing.T) {
	net := NewNetwork(Config{Nodes: 32, Particles: 16, GossipEvery: 16, Seed: 11,
		Function: funcs.Sphere, DropProb: 0.5})
	net.RunEvals(80000)
	if q := net.Quality(); q > 1e-6 {
		t.Fatalf("quality %g with 50%% message loss", q)
	}
	if m := net.Metrics(); m.LostExchanges == 0 {
		t.Fatal("no lost exchanges recorded at DropProb 0.5")
	}
}

func TestStaticTopologies(t *testing.T) {
	for _, topo := range []TopologyKind{TopoRandom, TopoRing, TopoStar, TopoFull} {
		topo := topo
		t.Run(topo.String(), func(t *testing.T) {
			net := NewNetwork(Config{Nodes: 16, Particles: 8, GossipEvery: 8,
				Seed: 12, Function: funcs.Sphere, Topology: topo})
			net.RunEvals(30000)
			if q := net.Quality(); q > 1e-6 {
				t.Fatalf("%s quality %g", topo, q)
			}
		})
	}
}

func TestTopologyKindString(t *testing.T) {
	want := map[TopologyKind]string{
		TopoNewscast: "newscast", TopoRandom: "random", TopoRing: "ring",
		TopoStar: "star", TopoFull: "full",
		TopologyKind(9): "unknown",
	}
	for k, s := range want {
		if k.String() != s {
			t.Fatalf("%d.String() = %q", k, k.String())
		}
	}
}

func TestMixedSolvers(t *testing.T) {
	mixed := MixedFactory(
		func(f funcs.Function, dim int, _ int64, r *rng.RNG) solver.Solver {
			return solver.NewES(f, dim, r)
		},
		func(f funcs.Function, dim int, _ int64, r *rng.RNG) solver.Solver {
			return solver.NewDE(f, dim, 16, r)
		},
	)
	net := NewNetwork(Config{Nodes: 16, GossipEvery: 8, Seed: 13,
		Function: funcs.Sphere, SolverFactory: mixed})
	net.RunEvals(40000)
	if q := net.Quality(); q > 1e-6 {
		t.Fatalf("mixed-solver quality %g", q)
	}
}

func TestJoinersAdoptOptimum(t *testing.T) {
	// §3.3.4: joining nodes update their swarm optimum on first epidemic
	// message.
	net := NewNetwork(Config{Nodes: 16, Particles: 8, GossipEvery: 4, Seed: 14,
		Function: funcs.Sphere})
	net.RunEvals(20000)
	joiner := net.Engine().AddNode()
	for i := 0; i < 200; i++ {
		net.Step()
	}
	o := joiner.Protocol(SlotOpt).(*OptNode)
	_, f := o.Solver.Best()
	gb, _ := net.GlobalBest()
	if f > gb.F*1e3+1e-6 {
		t.Fatalf("joiner best %g far from global %g", f, gb.F)
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() float64 {
		net := NewNetwork(Config{Nodes: 10, Particles: 8, GossipEvery: 8,
			Seed: 15, Function: funcs.Rastrigin})
		net.RunEvals(10000)
		return net.Quality()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("same seed, different qualities: %g vs %g", a, b)
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Nodes != 1 || c.Particles != 16 || c.ViewSize != 20 || c.Function.Name != "Sphere" {
		t.Fatalf("defaults = %+v", c)
	}
}

func TestStringSmoke(t *testing.T) {
	net := NewNetwork(Config{Nodes: 2, Seed: 16, Function: funcs.Sphere})
	if net.String() == "" {
		t.Fatal("empty String")
	}
	if net.Config().Nodes != 2 {
		t.Fatal("Config() wrong")
	}
}

func TestBestPointBetter(t *testing.T) {
	a := BestPoint{F: 1}
	b := BestPoint{F: 2}
	if !a.Better(b) || b.Better(a) || a.Better(a) {
		t.Fatal("Better wrong")
	}
}

// TestOptNodeRefusesNonFiniteFitness puts a hostile peer in node 0's
// optimizer slot: an AntiEntropy[BestPoint] whose order accepts and beats
// everything, so it answers every request with the point it holds — a
// NaN, then a -Inf one — and pushes that point when it initiates. Node 1,
// every registered solver in turn, initiates every cycle too. Neither
// point is adopted, each is counted in Metrics.Rejected on both legs, a
// refused request is answered with node 1's own best like a request
// carrying no point, and a finite better point still gets through. The
// hostile's X is never read: it travels by assignment and may share a
// buffer with legs the free lists reuse.
func TestOptNodeRefusesNonFiniteFitness(t *testing.T) {
	const dim = 4
	for _, name := range SolverNames() {
		t.Run(name, func(t *testing.T) {
			mk, err := SolverByName(name, 8)
			if err != nil {
				t.Fatal(err)
			}
			net := NewNetwork(Config{Nodes: 2, GossipEvery: 1, Seed: 17, Function: funcs.Sphere, Dim: dim,
				Topology: TopoFull, SolverFactory: mk})
			nodes := net.Engine().AllNodes()
			opt := nodes[1].Protocol(SlotOpt).(*OptNode)
			hostile := &gossip.AntiEntropy[BestPoint]{Exchange: opt.Gossip, Better: func(a, b BestPoint) bool { return true }}
			nodes[0].Protocols[SlotOpt] = hostile
			net.Step()

			for i, f := range []float64{math.NaN(), math.Inf(-1)} {
				hostile.SetLocal(BestPoint{X: make([]float64, dim), F: f})
				net.Step()
				if opt.Rejected != int64(2*i+2) {
					t.Fatalf("point with fitness %v: Rejected = %d, want %d", f, opt.Rejected, 2*i+2)
				}
				// The hostile adopts only replies: node 1's answer to its
				// refused request.
				_, own := opt.Solver.Best()
				if got, _ := hostile.Local(); got.F != own {
					t.Fatalf("request with fitness %v answered with %v, want the receiver's best %v", f, got.F, own)
				}
			}
			if _, bf := opt.Solver.Best(); math.IsNaN(bf) || math.IsInf(bf, 0) {
				t.Fatalf("solver best %v after planted points", bf)
			}
			if m := net.Metrics(); m.Rejected != 4 || m.Adoptions != 0 {
				t.Fatalf("Rejected = %d, Adoptions = %d; want 4 and 0", m.Rejected, m.Adoptions)
			}

			// A finite better point still gets through.
			hostile.SetLocal(BestPoint{X: make([]float64, dim), F: -1})
			net.Step()
			if _, bf := opt.Solver.Best(); bf != -1 || opt.Adoptions != 1 || opt.Rejected != 4 {
				t.Fatalf("finite request: best %v, Adoptions %d, Rejected %d", bf, opt.Adoptions, opt.Rejected)
			}
		})
	}
}
