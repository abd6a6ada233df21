package overlay

import (
	"runtime"
	"testing"
	"unsafe"

	"gossipopt/internal/sim"
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

// BenchmarkNewscastCycle is overlay-heavy's shape inside the package:
// Newscast alone on n = 10 000 nodes with c = 20 views, one worker, ten
// warm-up cycles, then one whole-network cycle per op. At this size the
// views and payloads no longer fit in L2, so it measures the exchange as
// memory-bound as the repository benchmark sees it; profile it with
// -cpuprofile instead of a hand-written main.
func BenchmarkNewscastCycle(b *testing.B) {
	const n, c = 10_000, 20
	e := sim.NewEngine(1)
	defer e.Close()
	e.SetWorkers(1)
	e.AddNodes(n)
	InitNewscast(e, 0, c)
	e.Run(10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.RunCycle()
	}
	b.StopTimer()
	b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "node-cycles/s")
}

// TestNewscastBytesPerNode gates resident memory (ROADMAP item 1): the live
// heap a warmed n=5000, c=20 Newscast network adds, engine included, stays
// under 600 B per node. What a node needs is two descriptor buffers of
// exactly c — its view, and the one pooled buffer its exchange's request
// carries out and, forwarded as the reply, carries home, 2 x 160 B of
// 8-byte entries — plus its structs, the one 32-B payload header of its
// exchange and its share of the engine's arena (a 40-B node and a
// liveness bit) and scratch (one 32-B slot per exchange: the reply takes
// its request's slot, so the reply round is built in place): 583 B
// measured. The reply round in a buffer of its own, a 32-B slot per leg,
// measured 617 B; a second header per exchange, a bare reply the buffer
// moved into, on top 659 B; 64-bit node IDs (48-B nodes and slots) on top
// 707 B; a third buffer, one per leg, 929-978 B; 16-byte descriptors
// 1536 B; and buffers that append grew by doubling (items at capacity 32,
// payloads at 40) 2350 B.
func TestNewscastBytesPerNode(t *testing.T) {
	const n, c, budget = 5000, 20, 600
	if size := unsafe.Sizeof(entry{}); size != 8 {
		t.Fatalf("a view entry is %d bytes, want 8", size)
	}
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

// TestNewscastDrawsInAddressOrder guards the payload placement that the
// engine's end-of-cycle release order buys (sim.releaseApplyScratch):
// on a lossless Newscast network at overlay-heavy's shape (n = 10 000,
// c = 20, one worker), once warm, the snapshot headers the propose phase
// draws, taken in ID order, walk memory upwards — at least 90% of them
// lie at most a page above the one the previous node drew, and so do
// their descriptor buffers. Released in canonical order, as the engine
// once did, the free lists hand the same headers out in shuffled order
// and about 1% do. The test first empties the process-wide free list, so
// its network draws only payloads it allocated itself, in the order of
// its first cycle.
func TestNewscastDrawsInAddressOrder(t *testing.T) {
	const n, c, page, want = 10_000, 20, 4096, 0.9
	var drain sim.PayloadCache
	for cap(viewSwapPool.Get(&drain).Descs) > 0 { // a recycled header keeps its buffer
	}
	e := sim.NewEngine(1)
	defer e.Close()
	e.SetWorkers(1)
	e.AddNodes(n)
	InitNewscast(e, 0, c)
	e.Run(10)
	drawn := make([][2]uintptr, n)
	for _, nd := range e.LiveNodes() {
		nd.Protocols[0] = drawProbe{nd.Protocols[0].(*Newscast), drawn}
	}
	for cycle := 0; cycle < 3; cycle++ {
		e.RunCycle()
		near := [2]int{}
		for id := 1; id < n; id++ {
			for k := range near {
				if d := drawn[id][k] - drawn[id-1][k]; d > 0 && d <= page {
					near[k]++
				}
			}
		}
		head, buf := float64(near[0])/(n-1), float64(near[1])/(n-1)
		t.Logf("cycle %d: %.1f%% of headers and %.1f%% of buffers within a page above the previous draw", cycle, 100*head, 100*buf)
		if head < want || buf < want {
			t.Fatalf("cycle %d: %.1f%% of snapshot headers and %.1f%% of their buffers lie within a page above the previous node's, want >= %.0f%%",
				cycle, 100*head, 100*buf, 100*want)
		}
	}
}

// drawProbe records, for every request it receives, the addresses of the
// snapshot header and buffer its proposer drew, under the proposer's ID.
type drawProbe struct {
	*Newscast
	drawn [][2]uintptr
}

func (p drawProbe) Receive(n *sim.Node, ax *sim.ApplyContext, msg sim.Message) {
	if sw, ok := msg.Data.(*viewSwap); ok {
		p.drawn[msg.From] = [2]uintptr{uintptr(unsafe.Pointer(sw)), uintptr(unsafe.Pointer(unsafe.SliceData(sw.Descs)))}
	}
	p.Newscast.Receive(n, ax, msg)
}

// TestHealthCopiesNoLinks: Health reads a Static's links and a Newscast's
// view in place, so reading a 2 000-node overlay of either kind allocates
// its per-call tables (in-degrees, the live IDs as they grow, the sorted
// degrees) and no copy per node.
func TestHealthCopiesNoLinks(t *testing.T) {
	const n, budget = 2000, 32
	for _, kind := range []string{"static", "newscast"} {
		e := sim.NewEngine(3)
		e.AddNodes(n)
		if kind == "static" {
			InitStatic(e, 0, KRegularRandom(20))
		} else {
			InitNewscast(e, 0, 20)
		}
		if avg := testing.AllocsPerRun(5, func() { Health(e, 0) }); avg > budget {
			t.Errorf("%s: Health allocates %.0f times on %d nodes, budget %d", kind, avg, n, budget)
		}
		e.Close()
	}
}
