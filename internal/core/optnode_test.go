package core

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"
	"unsafe"

	"gossipopt/internal/funcs"
	"gossipopt/internal/sim"
)

// optTrajectory runs net for cycles cycles and folds, after each one, an
// FNV-64a digest over every live node in ID order: the bits of its best
// fitness and its coordination counters.
func optTrajectory(net *Network, cycles int) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for c := 0; c < cycles; c++ {
		net.Step()
		net.Engine().ForEachLive(func(n *sim.Node) {
			o := n.Protocol(SlotOpt).(*OptNode)
			_, f := o.Solver.Best()
			put(math.Float64bits(f))
			put(uint64(o.Exchanges))
			put(uint64(o.LostExchanges))
			put(uint64(o.Adoptions))
			put(uint64(o.Rejected))
		})
	}
	return h.Sum64()
}

// TestOptNodeTrajectoryPinned pins the coordination service on the paths
// no golden covers: the drop draw, lossy and delaying links (late reply
// legs cross a cycle end, dropped legs reach Undelivered) and churn with
// joins. The drop digest was recorded before the exchange moved onto
// gossip.AntiEntropy's code, the other two when a lost Newscast leg stopped
// evicting the partner; a change to any RNG draw, counter or adoption shows
// here first.
func TestOptNodeTrajectoryPinned(t *testing.T) {
	cases := []struct {
		name  string
		cfg   Config
		model sim.NetModel
		want  uint64
	}{
		{"drop", Config{GossipEvery: 4, DropProb: 0.25}, nil, 0x3e405e656bbe7c5b},
		{"lossy-links", Config{GossipEvery: 4}, sim.LossyLinks{Loss: 0.15, DelayMax: 2}, 0x910e89b1458ab1d6},
		{"churn", Config{GossipEvery: 4, Churn: &sim.RateChurn{CrashProb: 0.01, JoinPerCycle: 0.7, MinLive: 16}}, nil, 0x8bf7396efc83dc4e},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := c.cfg
			cfg.Nodes, cfg.Particles, cfg.Seed, cfg.Function = 64, 8, 41, funcs.Rastrigin
			net := NewNetwork(cfg)
			if c.model != nil {
				net.Engine().SetNetModel(c.model)
			}
			if got := optTrajectory(net, 300); got != c.want {
				t.Errorf("trajectory digest %#016x, want %#016x", got, c.want)
			}
			// The pin is only worth its paths: each case must lose
			// exchanges, the lossy one must delay legs, churn must join.
			eng := net.Engine()
			if m := net.Metrics(); m.LostExchanges == 0 || m.Adoptions == 0 {
				t.Errorf("metrics %+v: the case lost or adopted nothing", m)
			}
			if c.model != nil && eng.Delayed() == 0 {
				t.Error("no leg was delayed")
			}
			if c.cfg.Churn != nil && eng.Size() <= cfg.Nodes {
				t.Errorf("size %d: no node joined", eng.Size())
			}
		})
	}
}

// TestOptNodeSteadyStateAllocs holds a warm cycle of the paper's stack
// (Newscast c = 20, PSO k = 16, Griewank) at n = 1 000 with r = 2 to the
// engine's own one allocation. Both legs of the best-point exchange are
// pooled and keep their position buffer across Recycle, so Load refills
// it in place; a leg that lost its buffer would cost one allocation per
// exchange, about 750 a cycle here.
func TestOptNodeSteadyStateAllocs(t *testing.T) {
	const n, r = 1000, 2
	net := NewNetwork(Config{Nodes: n, Particles: 16, GossipEvery: r, Seed: 1, Function: funcs.Griewank})
	defer net.Engine().Close()
	for range r {
		net.Step() // one period: every node has gossiped once
	}
	if avg := testing.AllocsPerRun(20, net.Step); avg > 1 {
		t.Fatalf("a steady-state cycle at n = %d, r = %d allocates %.1f times, budget 1", n, r, avg)
	}
}

// TestOptNodeSize pins OptNode in the 80-B size class: one node's stack
// is a few hundred bytes on churn-lossy's tiny swarms, so the next class
// (96 B) would cost that workload most of its 2% heap_bytes_per_node
// bound.
func TestOptNodeSize(t *testing.T) {
	if got := unsafe.Sizeof(OptNode{}); got > 80 {
		t.Fatalf("OptNode is %d B, budget 80 B", got)
	}
}
