package overlay

import (
	"runtime"
	"testing"
)

// TestNewscastSteadyStateAllocs pins the allocation-free hot path: once
// views, payload free lists and engine scratch buffers are warm, a
// Newscast cycle should allocate (amortized) close to nothing per node.
// The budget is deliberately loose — view merges occasionally regrow —
// but it fails loudly if per-exchange allocations creep back in (the
// pre-arena engine spent ~10 allocations per node per cycle on snapshots
// alone). The free lists hold strong references, so a GC mid-measurement
// no longer empties them (the sync.Pool era skipped this test under the
// race detector for exactly that reason; the budget now holds there too).
func TestNewscastSteadyStateAllocs(t *testing.T) {
	const n, c = 512, 20
	e := buildNewscastNet(9, n, c)
	defer e.Close()
	e.Run(30) // warm views, free lists, and engine scratch

	avg := testing.AllocsPerRun(20, func() { e.RunCycle() })
	perNode := avg / n
	if perNode > 0.5 {
		t.Fatalf("steady-state Newscast cycle allocates %.1f allocs (%.3f/node), budget 0.5/node", avg, perNode)
	}
}

// TestNewscastBytesPerNode gates resident memory (ROADMAP item 1): the live
// heap a warmed n=5000, c=20 Newscast network adds, engine included, stays
// under 1700 B per node. What a node needs is three descriptor buffers of
// exactly c — its view, and one pooled payload per leg of its exchange,
// 3 x 320 B — plus its structs and its share of the engine's arena and
// scratch (1530 B measured). Buffers that append grew by doubling (items at
// capacity 32, payloads at 40) measured 2350 B.
func TestNewscastBytesPerNode(t *testing.T) {
	const n, c, budget = 5000, 20, 1700
	heap := func() uint64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	before := heap()
	e := buildNewscastNet(10, n, c)
	defer e.Close()
	e.Run(10)
	perNode := float64(heap()-before) / n
	runtime.KeepAlive(e)
	t.Logf("%.0f B of live heap per node", perNode)
	if perNode > budget {
		t.Fatalf("a warmed Newscast network holds %.0f B of live heap per node, budget %d", perNode, budget)
	}
}
