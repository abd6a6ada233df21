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
// static overlay, where a node is its structs, 20 neighbour IDs and its
// share of the engine's buffers. Per message of a round the engine holds
// the propose outbox, the canonical list, the follow-up outbox and the
// next round's buffer (48-56 B each) plus 12 B of routing key, job order
// and per-node counter, all sized once to the need: 628 B per node
// measured here. A merged copy of the follow-ups (56 B per reply) or
// index arrays grown by doubling put it back above the budget (the engine
// this replaced: 670 B). A first network is run and dropped before the
// measured one so that the process-wide payload free lists are full either
// way, whatever ran earlier in the test binary.
func TestEngineScratchBytesPerNode(t *testing.T) {
	const n, budget = 5000, 650
	build := func() *sim.Engine {
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
	build().Close()
	before := heap()
	e := build()
	defer e.Close()
	perNode := float64(heap()-before) / n
	runtime.KeepAlive(e)
	t.Logf("%.0f B of live heap per node", perNode)
	if perNode > budget {
		t.Fatalf("a warmed averaging network holds %.0f B of live heap per node, budget %d", perNode, budget)
	}
}
