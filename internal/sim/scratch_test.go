package sim_test

import (
	"runtime"
	"testing"

	"gossipopt/internal/gossip"
	"gossipopt/internal/overlay"
	"gossipopt/internal/rng"
	"gossipopt/internal/sim"
)

// TestEngineScratchBytesPerNode gates the engine's own memory on the
// workload that has nothing else: gossip averaging over a 20-regular
// static overlay, where a node is its structs (a 40-B arena node among
// them), its 20 neighbour IDs (80 B of 4-byte sim.NodeIDs in a slab the
// network shares, plus a 24-B Static header in a second one) and its share
// of the engine's buffers. The engine holds one 32-B slot per exchange,
// not one per leg: worker 0's propose outbox is the canonical list, and
// the settle leg Forward sends takes its request's slot there, so the
// settle round is built in place and needs no buffer of its own. Add the
// propose outbox of each worker other than worker 0, 12 B of routing key,
// job order and per-node counter, all sized once to the need, and one
// liveness bit: 318 B per node measured here. The settle round in a
// buffer of its own, as before replies took their requests' slots,
// measured 352 B; 64-bit IDs (a 48-B slot and a 48-B node) on top 399 B;
// links held as a separate 160-B slice of 8-byte IDs and a Static apiece
// 479 B; a second copy of each message (a canonical list apart from the
// outboxes, or follow-up outboxes scattered into a separate round buffer)
// 598-628 B with those links.
//
// A first network is run and dropped before the measured one so that the
// process-wide payload free lists are full either way, whatever ran
// earlier in the test binary: the payloads — one 8-B header per exchange,
// the request forwarded as its settle leg, where there were two — are
// the first network's, and not in the figure. Bytes could not tell one
// header per exchange from two in any case (2 B/node apart when last
// measured), so the payloads are gated by count, with the free-list
// statistics on: the measured network draws at most 1.05 payloads per
// exchange from the lists, and allocates at most 1.05 per node over its 50
// cycles. Both counts are the engine's own, so neither depends on what the
// lists held.
func TestEngineScratchBytesPerNode(t *testing.T) {
	const n, budget = 5000, 335
	build := func(n int) *sim.Engine {
		e := sim.NewEngine(21)
		nodes := e.AddNodes(n)
		overlay.InitStatic(e, 0, overlay.KRegularRandom(20))
		values := rng.New(22)
		for _, nd := range nodes {
			a := &gossip.Average{Slot: 0, SelfSlot: 1}
			a.SetValue(values.UniformIn(0, 1000))
			nd.Protocols = append(nd.Protocols, a)
		}
		e.Run(50)
		return e
	}
	heap := func() uint64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	build(n).Close()
	sim.EnableFreeListStats(true)
	t.Cleanup(func() { sim.EnableFreeListStats(false) })
	before := heap()
	e := build(n)
	defer e.Close()
	perNode := float64(heap()-before) / n
	runtime.KeepAlive(e)
	t.Logf("%.0f B of live heap per node", perNode)
	if perNode > budget {
		t.Fatalf("a warmed averaging network holds %.0f B of live heap per node, budget %d", perNode, budget)
	}

	var exchanges int64
	for _, nd := range e.AllNodes() {
		exchanges += nd.Protocol(1).(*gossip.Average).Exchanges
	}
	st := e.Stats()
	gets := st.FreeListHits + st.FreeListMisses
	t.Logf("%d exchanges drew %d payloads (%d allocated)", exchanges, gets, st.FreeListMisses)
	if exchanges == 0 || float64(gets) > 1.05*float64(exchanges) {
		t.Errorf("%d exchanges drew %d payloads from the free lists, want at most 1.05 per exchange", exchanges, gets)
	}
	if float64(st.FreeListMisses) > 1.05*n {
		t.Errorf("%d nodes allocated %d payloads over 50 cycles, want at most 1.05 per node", n, st.FreeListMisses)
	}
}
