package gossip

import (
	"fmt"
	"math"
	"testing"
	"unsafe"

	"gossipopt/internal/overlay"
	"gossipopt/internal/rng"
	"gossipopt/internal/sim"
)

// buildNet wires n nodes with Newscast in slot 0 and the protocol built by
// mk in slot 1.
func buildNet(seed uint64, n int, mk func(id sim.NodeID) sim.Protocol) *sim.Engine {
	e := sim.NewEngine(seed)
	nodes := e.AddNodes(n)
	overlay.InitNewscast(e, 0, 20)
	for _, nd := range nodes {
		nd.Protocols = append(nd.Protocols, mk(nd.ID))
	}
	return e
}

func intBetter(a, b int) bool { return a > b }

// aeExchange is the network-wide anti-entropy setting of buildNet's
// layout: the sampler in slot 0, the holders in slot 1.
func aeExchange(dropProb float64) *Exchange[int] {
	return &Exchange[int]{Slot: 0, SelfSlot: 1, DropProb: dropProb}
}

func newAE(x *Exchange[int]) *AntiEntropy[int] {
	return &AntiEntropy[int]{Exchange: x, Better: intBetter}
}

func aeAt(e *sim.Engine, id sim.NodeID) *AntiEntropy[int] {
	return e.Node(id).Protocol(1).(*AntiEntropy[int])
}

func TestAntiEntropyConvergesPushPull(t *testing.T) {
	x := aeExchange(0)
	e := buildNet(1, 100, func(id sim.NodeID) sim.Protocol {
		ae := newAE(x)
		ae.SetLocal(int(id)) // node 99 holds the best value
		return ae
	})
	e.Run(15) // push-pull spreads in O(log n) cycles
	e.ForEachLive(func(n *sim.Node) {
		if v, _ := aeAt(e, n.ID).Local(); v != 99 {
			t.Fatalf("node %d converged to %d, want 99", n.ID, v)
		}
	})
}

// Property: a node's local value is monotone non-decreasing under Better.
func TestAntiEntropyMonotone(t *testing.T) {
	x := aeExchange(0)
	e := buildNet(3, 60, func(id sim.NodeID) sim.Protocol {
		ae := newAE(x)
		ae.SetLocal(int(id))
		return ae
	})
	prev := make(map[sim.NodeID]int)
	e.ForEachLive(func(n *sim.Node) {
		v, _ := aeAt(e, n.ID).Local()
		prev[n.ID] = v
	})
	for c := 0; c < 20; c++ {
		e.RunCycle()
		e.ForEachLive(func(n *sim.Node) {
			v, _ := aeAt(e, n.ID).Local()
			if v < prev[n.ID] {
				t.Fatalf("node %d value regressed %d -> %d", n.ID, prev[n.ID], v)
			}
			prev[n.ID] = v
		})
	}
}

func TestAntiEntropySurvivesDrops(t *testing.T) {
	x := aeExchange(0.5)
	e := buildNet(4, 100, func(id sim.NodeID) sim.Protocol {
		ae := newAE(x)
		ae.SetLocal(int(id))
		return ae
	})
	e.Run(40) // drops only slow diffusion down
	e.ForEachLive(func(n *sim.Node) {
		if v, _ := aeAt(e, n.ID).Local(); v != 99 {
			t.Fatalf("node %d stuck at %d despite 40 cycles", n.ID, v)
		}
	})
}

func TestAntiEntropySurvivesChurn(t *testing.T) {
	x := aeExchange(0)
	e := buildNet(5, 150, func(id sim.NodeID) sim.Protocol {
		ae := newAE(x)
		ae.SetLocal(int(id))
		return ae
	})
	// Note: the best value (149) may crash; best surviving value must still
	// dominate. Crash 30 % after a few cycles.
	e.Run(3)
	e.SetChurn(&sim.CatastropheChurn{AtCycle: 3, Fraction: 0.3})
	e.Run(30)
	best := -1
	e.ForEachLive(func(n *sim.Node) {
		if v, _ := aeAt(e, n.ID).Local(); v > best {
			best = v
		}
	})
	e.ForEachLive(func(n *sim.Node) {
		if v, _ := aeAt(e, n.ID).Local(); v != best {
			t.Fatalf("node %d at %d, best is %d", n.ID, v, best)
		}
	})
}

func TestOfferSemantics(t *testing.T) {
	ae := newAE(aeExchange(0))
	if _, has := ae.Local(); has {
		t.Fatal("fresh AE claims a value")
	}
	if !ae.Offer(5) {
		t.Fatal("first Offer rejected")
	}
	if ae.Offer(3) {
		t.Fatal("worse value adopted")
	}
	if !ae.Offer(9) {
		t.Fatal("better value rejected")
	}
	if v, _ := ae.Local(); v != 9 {
		t.Fatalf("Local = %d", v)
	}
}

// TestAntiEntropyPartitionIsolation: under a parity partition no value may
// cross the cut — every even node's value stays even, every odd node's
// stays odd — and the filtered exchanges land in LostExchanges.
func TestAntiEntropyPartitionIsolation(t *testing.T) {
	x := aeExchange(0)
	e := buildNet(22, 100, func(id sim.NodeID) sim.Protocol {
		ae := newAE(x)
		ae.SetLocal(int(id))
		return ae
	})
	e.SetDeliveryFilter(sim.SplitGroups(2))
	e.Run(30)
	var lost int64
	e.ForEachLive(func(n *sim.Node) {
		ae := aeAt(e, n.ID)
		v, _ := ae.Local()
		if sim.NodeID(v)%2 != n.ID%2 {
			t.Fatalf("value %d leaked across the partition to node %d", v, n.ID)
		}
		lost += ae.LostExchanges
	})
	if e.Dropped() == 0 || lost == 0 {
		t.Fatalf("cross-partition exchanges not accounted: dropped=%d lost=%d", e.Dropped(), lost)
	}
	// Each island still converges to its own best value.
	e.ForEachLive(func(n *sim.Node) {
		want := 98 + int(n.ID%2) // best even value is 98, best odd 99
		if v, _ := aeAt(e, n.ID).Local(); v != want {
			t.Fatalf("node %d at %d, island best is %d", n.ID, v, want)
		}
	})
}

// TestAntiEntropySentLostAccounting: Exchanges counts initiations before
// the drop draw; DropProb=1 loses every one of them into LostExchanges.
func TestAntiEntropySentLostAccounting(t *testing.T) {
	x := aeExchange(1)
	e := buildNet(24, 30, func(id sim.NodeID) sim.Protocol {
		ae := newAE(x)
		ae.SetLocal(int(id))
		return ae
	})
	e.Run(10)
	var sent, lost, updated int64
	e.ForEachLive(func(n *sim.Node) {
		ae := aeAt(e, n.ID)
		sent += ae.Exchanges
		lost += ae.LostExchanges
		updated += ae.Adoptions
	})
	if sent == 0 || lost != sent {
		t.Fatalf("total loss not accounted: sent=%d lost=%d", sent, lost)
	}
	if updated != 0 {
		t.Fatalf("values diffused despite 100%% drop: %d adoptions", updated)
	}
}

// TestAntiEntropyWorkerInvariant: same guarantee for the anti-entropy port.
func TestAntiEntropyWorkerInvariant(t *testing.T) {
	state := func(workers, applyWorkers int) []int {
		e := sim.NewEngine(26)
		e.SetWorkers(workers)
		e.SetApplyWorkers(applyWorkers)
		nodes := e.AddNodes(80)
		overlay.InitNewscast(e, 0, 20)
		x := aeExchange(0.2)
		for _, nd := range nodes {
			ae := newAE(x)
			ae.SetLocal(int(nd.ID))
			nd.Protocols = append(nd.Protocols, ae)
		}
		e.Run(12)
		out := make([]int, 0, 80)
		e.ForEachLive(func(n *sim.Node) {
			v, _ := aeAt(e, n.ID).Local()
			out = append(out, v)
		})
		return out
	}
	one := state(1, 1)
	for _, w := range [][2]int{{2, 1}, {1, 8}, {8, 2}, {8, 8}} {
		got := state(w[0], w[1])
		for i := range one {
			if one[i] != got[i] {
				t.Fatalf("node %d diverged at workers=%dx%d: %d vs %d", i, w[0], w[1], one[i], got[i])
			}
		}
	}
}

func TestAverageConservesSumAndConverges(t *testing.T) {
	e := buildNet(9, 128, func(id sim.NodeID) sim.Protocol {
		a := &Average{Slot: 0, SelfSlot: 1}
		a.SetValue(float64(id))
		return a
	})
	want := sum(e, 1)
	for c := 0; c < 40; c++ {
		e.RunCycle()
		if got := sum(e, 1); math.Abs(got-want) > 1e-6*math.Abs(want) {
			t.Fatalf("sum drifted: %v -> %v at cycle %d", want, got, c)
		}
	}
	if s := spread(e, 1); s > 1e-3 {
		t.Fatalf("spread %v after 40 cycles, want ~0", s)
	}
	// Every node's value must equal the true average.
	trueAvg := want / 128
	e.ForEachLive(func(n *sim.Node) {
		v := n.Protocol(1).(*Average).Value()
		if math.Abs(v-trueAvg) > 1e-3 {
			t.Fatalf("node %d at %v, want %v", n.ID, v, trueAvg)
		}
	})
}

func TestAverageSizeEstimation(t *testing.T) {
	// Classic trick: one node holds 1.0, the rest 0; the average is 1/n.
	const n = 64
	e := buildNet(10, n, func(id sim.NodeID) sim.Protocol {
		a := &Average{Slot: 0, SelfSlot: 1}
		if id == 0 {
			a.SetValue(1)
		}
		return a
	})
	e.Run(50)
	est := 1 / e.Node(3).Protocol(1).(*Average).Value()
	if est < n*0.9 || est > n*1.1 {
		t.Fatalf("size estimate %.1f, want ≈ %d", est, n)
	}
}

// TestAverageSpreadContracts: the delta exchange conserves the sum
// exactly, but when several exchanges touch one node in a cycle the pair
// may briefly land off the exact mean, so the spread is not monotone
// cycle-to-cycle anymore. It must still contract geometrically over any
// short window and converge to ~0.
func TestAverageSpreadContracts(t *testing.T) {
	e := buildNet(11, 100, func(id sim.NodeID) sim.Protocol {
		a := &Average{Slot: 0, SelfSlot: 1}
		a.SetValue(float64(id * id))
		return a
	})
	prev := spread(e, 1)
	for c := 0; c < 60; c += 5 {
		e.Run(5)
		cur := spread(e, 1)
		if cur > prev/2 {
			t.Fatalf("spread did not halve over cycles %d-%d: %v -> %v", c, c+5, prev, cur)
		}
		prev = cur
	}
	if prev > 1e-3 {
		t.Fatalf("spread %v after 60 cycles, want ~0", prev)
	}
}

// TestAverageWorkerInvariant: the ported protocol runs on both parallel
// phases, so its trace must be bit-identical for every propose × apply
// worker combination.
func TestAverageWorkerInvariant(t *testing.T) {
	values := func(workers, applyWorkers int) []float64 {
		e := sim.NewEngine(16)
		e.SetWorkers(workers)
		e.SetApplyWorkers(applyWorkers)
		nodes := e.AddNodes(64)
		overlay.InitNewscast(e, 0, 20)
		for _, nd := range nodes {
			a := &Average{Slot: 0, SelfSlot: 1}
			a.SetValue(float64(nd.ID))
			nd.Protocols = append(nd.Protocols, a)
		}
		e.Run(10)
		out := make([]float64, 0, 64)
		e.ForEachLive(func(n *sim.Node) {
			out = append(out, n.Protocol(1).(*Average).Value())
		})
		return out
	}
	one := values(1, 1)
	for _, w := range [][2]int{{8, 1}, {1, 8}, {8, 8}} {
		got := values(w[0], w[1])
		for i := range one {
			if one[i] != got[i] {
				t.Fatalf("node %d diverged at workers=%dx%d: %v vs %v", i, w[0], w[1], one[i], got[i])
			}
		}
	}
}

// TestAverageLostExchanges: exchanges proposed to nodes that die before
// apply are reported through the Undeliverable hook.
func TestAverageLostExchanges(t *testing.T) {
	e := buildNet(17, 50, func(id sim.NodeID) sim.Protocol {
		a := &Average{Slot: 0, SelfSlot: 1}
		a.SetValue(float64(id))
		return a
	})
	e.Run(5) // let views fill with peers...
	for id := sim.NodeID(25); id < 50; id++ {
		e.Crash(id) // ...then kill half the network
	}
	e.Run(10)
	var lost int64
	e.ForEachLive(func(n *sim.Node) {
		lost += n.Protocol(1).(*Average).Lost
	})
	if lost == 0 {
		t.Fatal("no lost exchanges despite half the network dead")
	}
}

// TestAveragePoisonInvariance is Average's use-after-release oracle: the
// same run over a static random overlay and links that lose 10% of legs
// and delay legs up to two cycles, once plainly and once under the
// free-list debug mode, which panics on a double release and poisons every
// released payload. Correct code never reads a payload after the cycle
// that recycles it, so every node's estimate must match bit for bit. The
// delays matter: a settle leg travels in the request it answers
// (ApplyContext.Forward), and only a held-back settle leg outlives the
// request's cycle. One worker keeps a debug panic on the test goroutine.
func TestAveragePoisonInvariance(t *testing.T) {
	run := func(debug bool) (bits []uint64, err error) {
		sim.EnableFreeListDebug(debug)
		defer sim.EnableFreeListDebug(false)
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("panic: %v", r)
			}
		}()
		e := sim.NewEngine(47)
		defer e.Close()
		nodes := e.AddNodes(64)
		overlay.InitStatic(e, 0, overlay.KRegularRandom(8))
		for _, nd := range nodes {
			a := &Average{Slot: 0, SelfSlot: 1}
			a.SetValue(float64(nd.ID))
			nd.Protocols = append(nd.Protocols, a)
		}
		e.SetNetModel(&sim.LossyLinks{Loss: 0.1, DelayMax: 2})
		e.Run(40)
		e.ForEachLive(func(n *sim.Node) {
			bits = append(bits, math.Float64bits(n.Protocol(1).(*Average).Value()))
		})
		return bits, nil
	}
	plain, err := run(false)
	if err != nil {
		t.Fatal(err)
	}
	poisoned, err := run(true)
	if err != nil {
		t.Fatalf("under the free-list debug mode: %v", err)
	}
	for i := range plain {
		if plain[i] != poisoned[i] {
			t.Fatalf("node %d's estimate differs with released payloads poisoned (%v, poisoned %v): a payload is read after the cycle that recycled it",
				i, math.Float64frombits(plain[i]), math.Float64frombits(poisoned[i]))
		}
	}
}

// TestExchangeSizes pins the bytes an exchange costs. The legs stay in
// flight across a cycle end under delaying net models and the free lists
// keep them, so on churn-lossy each 16 B of a best-point leg costs about
// 10-20 B per node against a 2% heap_bytes_per_node bound: both legs of a
// core.BestPoint-shaped value stay at the value's own 32 B (the pools are
// looked up, not carried), and so does the ask leg. AntiEntropy[float64], the scenario layer's
// node, must not grow past the 88 B it had when it carried its own
// settings.
func TestExchangeSizes(t *testing.T) {
	type point struct {
		X []float64
		F float64
	}
	for name, got := range map[string]uintptr{
		"aeReq[point]": unsafe.Sizeof(aeReq[point]{}),
		"aeAsk[point]": unsafe.Sizeof(aeAsk[point]{}),
		"aeVal[point]": unsafe.Sizeof(aeVal[point]{}),
	} {
		if got != 32 {
			t.Errorf("%s is %d B, want 32 B", name, got)
		}
	}
	if got := unsafe.Sizeof(AntiEntropy[float64]{}); got > 88 {
		t.Errorf("AntiEntropy[float64] is %d B, budget 88 B", got)
	}
}

// TestOnePayloadPerExchange: every exchange of the stack travels in one
// payload, its reply included. One cycle of 1 000 nodes running Newscast
// and anti-entropy with a value on one node in ten, so that nine in ten
// anti-entropy initiators ask, draws from the free lists exactly once per
// Newscast exchange and once per anti-entropy exchange.
func TestOnePayloadPerExchange(t *testing.T) {
	sim.EnableFreeListStats(true)
	defer sim.EnableFreeListStats(false)
	x := aeExchange(0)
	e := buildNet(31, 1000, func(id sim.NodeID) sim.Protocol {
		ae := newAE(x)
		if id%10 == 0 {
			ae.SetLocal(int(id))
		}
		return ae
	})
	defer e.Close()
	// Every node whose view is not empty initiates one Newscast exchange.
	var exchanges int64
	e.ForEachLive(func(n *sim.Node) {
		if n.Protocol(0).(*overlay.Newscast).View().Len() > 0 {
			exchanges++
		}
	})
	e.RunCycle()
	e.ForEachLive(func(n *sim.Node) {
		exchanges += aeAt(e, n.ID).Exchanges
	})
	s := e.Stats()
	if draws := s.FreeListHits + s.FreeListMisses; draws != exchanges || exchanges == 0 {
		t.Fatalf("%d free-list draws for %d Newscast and anti-entropy exchanges, want one each", draws, exchanges)
	}
}

// sum returns the sum of all live nodes' Average values (the conserved
// quantity).
func sum(e *sim.Engine, selfSlot int) float64 {
	var s float64
	e.ForEachLive(func(n *sim.Node) {
		if a, ok := n.Protocol(selfSlot).(*Average); ok {
			s += a.Value()
		}
	})
	return s
}

// spread returns max-min of all live nodes' Average values (the
// convergence measure).
func spread(e *sim.Engine, selfSlot int) float64 {
	first := true
	var lo, hi float64
	e.ForEachLive(func(n *sim.Node) {
		a, ok := n.Protocol(selfSlot).(*Average)
		if !ok {
			return
		}
		v := a.Value()
		if first {
			lo, hi = v, v
			first = false
			return
		}
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	})
	return hi - lo
}

// BenchmarkAverageCycle is engine-heavy's shape inside the package:
// gossip averaging on n = 20 000 nodes over a 20-regular random static
// overlay, one worker, 50 warm-up cycles, then one whole-network cycle
// per op. The handlers are a few flops, so what it measures is the
// engine's own shuffle, route, dispatch and sort, and the payload free
// lists; profile it with -cpuprofile.
func BenchmarkAverageCycle(b *testing.B) {
	const n = 20_000
	e := sim.NewEngine(1)
	defer e.Close()
	e.SetWorkers(1)
	nodes := e.AddNodes(n)
	overlay.InitStatic(e, 0, overlay.KRegularRandom(20))
	values := rng.New(2)
	for _, nd := range nodes {
		a := &Average{Slot: 0, SelfSlot: 1}
		a.SetValue(values.UniformIn(0, 1000))
		nd.Protocols = append(nd.Protocols, a)
	}
	e.Run(50)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.RunCycle()
	}
	b.StopTimer()
	b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "node-cycles/s")
}
