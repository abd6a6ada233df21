// The engine-scale benchmark the allocation gate runs
// (scripts/check_alloc_budget.sh). The repository's performance record is
// the benchmark/ module; the paper's tables and ablations are sweep files
// in paper/, run by cmd/scenario -sweep.
package gossipopt_test

import (
	"fmt"
	"os"
	"strconv"
	"testing"

	"gossipopt"
)

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
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				net.Step()
			}
			b.StopTimer()
			b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "node-cycles/s")
		})
	}
}
