// Benchmarks of the framework's hot paths and of the scenario layer end to
// end. The paper's tables and ablations are sweep files in paper/, run by
// cmd/scenario -sweep.
package gossipopt_test

import (
	"fmt"
	"os"
	"strconv"
	"testing"

	"gossipopt"
	"gossipopt/internal/exp"
	"gossipopt/internal/funcs"
	"gossipopt/internal/overlay"
	"gossipopt/internal/pso"
	"gossipopt/internal/rng"
	"gossipopt/internal/scenario"
	"gossipopt/internal/sim"
)

// --- Microbenchmarks of the framework's hot paths ---

func BenchmarkNetworkCycle(b *testing.B) {
	for _, n := range []int{16, 256} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			net := gossipopt.New(gossipopt.Config{
				Nodes: n, Particles: 16, GossipEvery: 16,
				Function: gossipopt.Sphere, Seed: 1,
			})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				net.Step()
			}
			evalsPerOp := float64(net.TotalEvals()) / float64(b.N)
			b.ReportMetric(evalsPerOp, "evals/op")
		})
	}
}

// BenchmarkEngineWorkers measures cycle throughput of the two-phase engine
// at production-ish scale (n = 10k nodes) across worker counts. Results are
// bit-identical for every worker count (see core.TestWorkerCountInvariance);
// only wall-clock changes. Workers drives both phases: propose (solver
// evaluation dominates a cycle's cost) parallelizes embarrassingly, and
// apply is destination-sharded across the same persistent pool — no
// goroutine is spawned per cycle in the steady state, so on a machine with
// >= 8 cores, workers=8 should deliver well over 2x the node-cycles/s of
// workers=1 with no serial phase left as the floor.
func BenchmarkEngineWorkers(b *testing.B) {
	const n = 10000
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("n=%d/workers=%d", n, w), func(b *testing.B) {
			net := gossipopt.New(gossipopt.Config{
				Nodes: n, Particles: 8, GossipEvery: 8,
				Function: gossipopt.Rastrigin, Seed: 1, Workers: w,
			})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				net.Step()
			}
			b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "node-cycles/s")
		})
	}
}

// BenchmarkApplyShards isolates the apply phase's scaling at n = 10k: a
// Newscast-only stack, whose propose phase is a cheap view snapshot while
// apply does the expensive symmetric view merges (two per exchange plus a
// reply leg), run with propose workers pinned and only the apply-shard
// count varying. Traces are bit-identical for every value (see the
// invariance tests); node-cycles/s should rise with applyworkers — before
// the destination-sharded apply this curve was flat by design.
func BenchmarkApplyShards(b *testing.B) {
	const n = 10000
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("n=%d/applyworkers=%d", n, w), func(b *testing.B) {
			e := sim.NewEngine(1)
			e.SetWorkers(8)
			e.SetApplyWorkers(w)
			e.AddNodes(n)
			overlay.InitNewscast(e, 0, 20)
			start := e.Stats()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.RunCycle()
			}
			b.StopTimer()
			b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "node-cycles/s")
			reportPhaseTimes(b, start, e.Stats())
		})
	}
}

// reportPhaseTimes attributes a benchmark's per-op wall time to the two
// cycle phases via the engine's instrumentation deltas, so the BENCH
// trajectory can tell a propose-bound stack from an apply-bound one.
func reportPhaseTimes(b *testing.B, start, end sim.EngineStats) {
	b.Helper()
	b.ReportMetric(float64(end.ProposeNanos-start.ProposeNanos)/float64(b.N), "propose-ns/op")
	b.ReportMetric(float64(end.ApplyNanos-start.ApplyNanos)/float64(b.N), "apply-ns/op")
}

// BenchmarkEngineMillion is the headline scale benchmark: the full
// Newscast + optimizer stack at n = 10^6 nodes (tiny per-node swarms, so
// the engine — arena walk, payload pooling, sharding — dominates rather
// than the objective function). One op is one full cycle; allocs/op is the
// whole-network allocation count per cycle, which the free lists and the
// dense arena keep bounded (and CI guards against regressing — see
// scripts/check_alloc_budget.sh). ENGINE_BENCH_NODES overrides n for
// reduced-scale smoke runs.
func BenchmarkEngineMillion(b *testing.B) {
	n := 1_000_000
	if s := os.Getenv("ENGINE_BENCH_NODES"); s != "" {
		if v, err := strconv.Atoi(s); err == nil && v > 0 {
			n = v
		}
	}
	for _, w := range []int{1, 8} {
		b.Run(fmt.Sprintf("n=%d/workers=%d", n, w), func(b *testing.B) {
			net := gossipopt.New(gossipopt.Config{
				Nodes: n, Particles: 2, Dim: 2, GossipEvery: 2,
				Function: gossipopt.Sphere, Seed: 1, Workers: w,
			})
			defer net.Engine().Close()
			// Warm four full GossipEvery periods, not just one cycle: the
			// best-point exchange pools first fill on the first gossip
			// cycle (cycle 2 here), and with eight workers the per-worker
			// payload caches need more than one period to fill, so a
			// shorter warm-up bills that one-time fill to the measured
			// steady state when no earlier sub-benchmark filled the
			// process-wide depots.
			for i := 0; i < 8; i++ {
				net.Step()
			}
			start := net.Engine().Stats()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				net.Step()
			}
			b.StopTimer()
			b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "node-cycles/s")
			reportPhaseTimes(b, start, net.Engine().Stats())
		})
	}
}

// BenchmarkScenarioRun measures the declarative layer end to end: one
// iteration runs a full built-in scenario campaign (spec compilation,
// scripted events, metric sampling into a discard sink) on the cycle and
// event engines. The scenario layer should add only negligible overhead on
// top of the raw engines.
func BenchmarkScenarioRun(b *testing.B) {
	for _, name := range []string{"netsplit-heal", "lossy-wan"} {
		spec, ok := scenario.Builtin(name)
		if !ok {
			b.Fatalf("builtin %q missing", name)
		}
		b.Run(name, func(b *testing.B) {
			var evals int64
			for i := 0; i < b.N; i++ {
				sums, err := scenario.Run(spec, scenario.Options{Workers: 4}, exp.DiscardSink{})
				if err != nil {
					b.Fatal(err)
				}
				evals += sums[0].Evals
			}
			b.ReportMetric(float64(evals)/float64(b.N), "evals/op")
		})
	}
}

// BenchmarkCampaignParallel measures campaign-level parallelism: one
// iteration runs an 8-repetition campaign of a built-in scenario with the
// repetitions fanned out over a worker pool. Output is byte-identical for
// every repworkers value (the per-rep rows are buffered and flushed in
// repetition order), so wall-clock should scale with the workers while
// ns/op is the only thing that moves.
func BenchmarkCampaignParallel(b *testing.B) {
	spec, ok := scenario.Builtin("baseline")
	if !ok {
		b.Fatal("builtin baseline missing")
	}
	for _, repWorkers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("repworkers=%d", repWorkers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := scenario.Run(spec, scenario.Options{
					Reps:       8,
					RepWorkers: repWorkers,
				}, exp.DiscardSink{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSweep measures the sweep layer end to end: one iteration
// expands a built-in sweep's 2x2 grid and runs every cell x repetition
// job on the pool (grid expansion, overridden-spec campaigns, per-cell
// aggregation). Output is byte-identical for every sweepworkers value, so
// only wall-clock moves with the pool size.
func BenchmarkSweep(b *testing.B) {
	sw, ok := scenario.BuiltinSweep("overlay-vs-churn")
	if !ok {
		b.Fatal("builtin sweep overlay-vs-churn missing")
	}
	for _, workers := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("sweepworkers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := scenario.RunSweep(sw, scenario.Options{
					Reps:       2,
					RepWorkers: workers,
				}, exp.DiscardSink{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRunEvalsBudgetCheck demonstrates the O(n^2) -> O(n) win on the
// budget-driven run loop: RunEvals checks TotalEvals every cycle, which
// used to scan all n solvers (O(n) per cycle, O(n^2) per unit of simulated
// work) and is now an engine-maintained counter (O(1) per cycle). With the
// counter, ns/node-cycle stays flat as n grows; under the old scan it grew
// linearly with n.
func BenchmarkRunEvalsBudgetCheck(b *testing.B) {
	for _, n := range []int{1000, 4000, 16000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			net := gossipopt.New(gossipopt.Config{
				Nodes: n, Particles: 8, GossipEvery: 8,
				Function: gossipopt.Sphere, Seed: 1,
			})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Budget = current + n: exactly one more cycle, ending with
				// the per-cycle TotalEvals budget check.
				net.RunEvals(net.TotalEvals() + int64(n))
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/node-cycle")
		})
	}
}

func BenchmarkNewscastCycle(b *testing.B) {
	e := sim.NewEngine(1)
	e.AddNodes(256)
	overlay.InitNewscast(e, 0, 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.RunCycle()
	}
}

func BenchmarkPSOSwarmEval(b *testing.B) {
	s := pso.New(funcs.Griewank, 10, 16, pso.Config{}, rng.New(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.EvalOne()
	}
}

func BenchmarkFunctionSuite(b *testing.B) {
	x := make([]float64, 10)
	for i := range x {
		x[i] = 1.5
	}
	for _, f := range funcs.PaperSuite {
		f := f
		b.Run(f.Name, func(b *testing.B) {
			xx := x[:f.Dim(0)]
			var sink float64
			for i := 0; i < b.N; i++ {
				sink = f.Eval(xx)
			}
			_ = sink
		})
	}
}
