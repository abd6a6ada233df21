package sim

import (
	"slices"
	"testing"
)

// starProto is a deliberately skewed ("hotspot") workload: every node
// pings the hub (node 0) each cycle, and the hub answers each ping with a
// pong forwarded in its slot, delivered in the follow-up round. The hub's entire apply load lands on one
// worker whatever the span cut does with the rest; the trace must not
// depend on it.
type starProto struct {
	hub NodeID

	// Per-node delivery traces (the byte-identical contract's witness).
	fromOrder []NodeID
	pongs     int
	failed    int
}

func (p *starProto) Propose(n *Node, px *Proposals) {
	if n.ID != p.hub {
		px.Send(p.hub, 0, "ping")
	}
}

func (p *starProto) Receive(n *Node, ax *ApplyContext, msg Message) {
	switch msg.Data {
	case "ping":
		p.fromOrder = append(p.fromOrder, msg.From)
		ax.Forward(msg.From, 0, "pong")
	case "pong":
		p.pongs++
		p.fromOrder = append(p.fromOrder, msg.From)
	}
}

func (p *starProto) Undelivered(n *Node, ax *ApplyContext, msg Message) { p.failed++ }

func buildStar(seed uint64, n, workers, applyWorkers int) (*Engine, []*starProto) {
	e := NewEngine(seed)
	e.SetWorkers(workers)
	if applyWorkers > 0 {
		e.SetApplyWorkers(applyWorkers)
	}
	protos := make([]*starProto, 0, n)
	e.SetNodeFactory(func(nd *Node) {
		p := &starProto{hub: 0}
		protos = append(protos, p)
		nd.Protocols = []Protocol{p}
	})
	e.AddNodes(n)
	return e, protos
}

// TestShardingHotspotGridInvariant pins the determinism contract on the
// worst case for load balancing: a star workload where one node receives
// nearly every message. The per-node delivery traces must be identical
// across every (propose × apply) worker grid — the span cut may only move
// work between workers, never reorder it.
func TestShardingHotspotGridInvariant(t *testing.T) {
	const n, cycles = 96, 12
	trace := func(workers, applyWorkers int) [][]NodeID {
		e, protos := buildStar(11, n, workers, applyWorkers)
		defer e.Close()
		e.SetChurn(&RateChurn{CrashProb: 0.03, JoinPerCycle: 0.5, MinLive: 8})
		e.Run(cycles)
		out := make([][]NodeID, len(protos))
		for i, p := range protos {
			out[i] = p.fromOrder
		}
		return out
	}
	want := trace(1, 1)
	for _, w := range []int{1, 2, 8} {
		for _, aw := range []int{1, 2, 8} {
			got := trace(w, aw)
			if len(got) != len(want) {
				t.Fatalf("workers=%d/%d: %d nodes, want %d", w, aw, len(got), len(want))
			}
			for i := range want {
				if !slices.Equal(got[i], want[i]) {
					t.Fatalf("workers=%d/%d node %d: deliveries from %v, want %v", w, aw, i, got[i], want[i])
				}
			}
		}
	}
}

// TestBalancedShardingSpreadsHotspots demonstrates the scheduling property
// directly (machine-independent, unlike wall-clock): several hot nodes
// sharing an ID residue class piled onto one worker under the historical
// ID-mod assignment — worker id%workers, so hubs 0/8/16/24 at 8 workers
// put 4·hot + 8 jobs on worker 0 — while the contiguous-span cut keeps
// every worker at or below 2·hot. The loads are read off the spans the
// workers actually received, which also cross-checks that every routed job
// sits in exactly one span and that no node is split between two.
func TestBalancedShardingSpreadsHotspots(t *testing.T) {
	const n, workers, hot = 64, 8, 100
	e := NewEngine(1)
	defer e.Close()
	e.SetApplyWorkers(workers)
	e.AddNodes(n)

	// Hubs 0, 8, 16, 24 share residue 0 mod 8: each gets `hot` messages;
	// every other node gets one.
	var round []Message
	for _, hub := range []NodeID{0, 8, 16, 24} {
		for i := 0; i < hot; i++ {
			round = append(round, Message{From: NodeID(i % n), To: hub})
		}
	}
	for id := NodeID(0); id < n; id++ {
		round = append(round, Message{From: 0, To: id})
	}
	idModLoad := make([]int, workers)
	for _, m := range round {
		idModLoad[int(m.To)%workers]++
	}
	if got := slices.Max(idModLoad); got != 4*hot+8 {
		t.Fatalf("analytic id-mod max load = %d, want %d", got, 4*hot+8)
	}

	e.applyRound(round)
	if len(e.spans) != workers+1 || e.spans[0] != 0 || int(e.spans[workers]) != len(round) {
		t.Fatalf("spans %v do not cover the %d jobs", e.spans, len(round))
	}
	seen := make([]int, len(round))
	owner := make(map[NodeID]int)
	maxLoad := 0
	for w := 0; w < workers; w++ {
		span := e.jobOrder[e.spans[w]:e.spans[w+1]]
		maxLoad = max(maxLoad, len(span))
		for _, i := range span {
			seen[i]++
			to := round[i].To
			if prev, ok := owner[to]; ok && prev != w {
				t.Fatalf("node %d handled by workers %d and %d", to, prev, w)
			}
			owner[to] = w
		}
	}
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("job %d sits in %d spans, want exactly one", i, c)
		}
	}
	if maxLoad > 2*hot {
		t.Fatalf("span max load = %d, want <= %d (id-mod: %d)", maxLoad, 2*hot, 4*hot+8)
	}
}

// BenchmarkRandomLiveNode is the satellite regression guard for the dense
// live index: one uniform draw over the live population, zero allocations,
// no O(n) scan per call (the rebuild is amortized over Crash/Revive, not
// paid per draw).
func BenchmarkRandomLiveNode(b *testing.B) {
	e := NewEngine(1)
	defer e.Close()
	e.AddNodes(100_000)
	// Kill a stripe so the exclude-shift and liveness machinery is real.
	for id := NodeID(0); id < 100_000; id += 10 {
		e.Crash(id)
	}
	if e.RandomLiveNode(-1) == nil {
		b.Fatal("no live nodes")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if e.RandomLiveNode(NodeID(i%100_000)) == nil {
			b.Fatal("draw failed")
		}
	}
}

// BenchmarkApplyShardsHotspot runs the star workload at 8 apply workers,
// where the hub's pile lands on one span. node-cycles/s is the cross-run
// comparable throughput metric (population × cycles / wall time).
func BenchmarkApplyShardsHotspot(b *testing.B) {
	const n = 10_000
	e, _ := buildStar(7, n, 8, 8)
	defer e.Close()
	e.Run(2) // warm scratch buffers and pools
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.RunCycle()
	}
	b.StopTimer()
	b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "node-cycles/s")
}

// avgPayload and avgProto are a pooled two-round averaging exchange, the
// shape of gossip.Average: the request carries the initiator's value, the
// receiver averages and replies in the request with its old value, the
// initiator averages.
type avgPayload struct {
	v     float64
	reply bool
}

var avgPayloads FreeList[avgPayload]

func (p *avgPayload) Recycle(c *PayloadCache) { avgPayloads.Put(c, p) }

type avgProto struct{ v float64 }

func (p *avgProto) Receive(n *Node, ax *ApplyContext, msg Message) {
	pl := msg.Data.(*avgPayload)
	v := pl.v
	if !pl.reply {
		*pl = avgPayload{v: p.v, reply: true}
		ax.Forward(msg.From, 0, pl)
	}
	p.v = (p.v + v) / 2
}

// BenchmarkApplyRound is the apply phase alone — no propose phase, no
// canonical shuffle: one request per node to a random peer, already in a
// shuffled order, delivered, answered and recycled. ns/message counts both
// legs; the steady state allocates nothing, whatever the worker count.
func BenchmarkApplyRound(b *testing.B) {
	const n = 20_000
	e := NewEngine(5)
	defer e.Close()
	protos := make([]avgProto, n)
	e.SetNodeFactory(func(nd *Node) { nd.Protocols = []Protocol{&protos[nd.ID]} })
	e.AddNodes(n)
	requests := make([]Message, n)
	for i := range requests {
		requests[i] = Message{From: NodeID(i), To: NodeID(e.rng.Intn(n))}
		protos[i].v = float64(i)
	}
	e.rng.Shuffle(n, func(i, j int) { requests[i], requests[j] = requests[j], requests[i] })
	e.growCaches(1)
	outs := make([]Proposals, 1)
	cycle := func() {
		msgs := append(outs[0].msgs[:0], requests...)
		for i := range msgs {
			pl := avgPayloads.Get(&e.caches[0])
			*pl = avgPayload{v: protos[msgs[i].From].v}
			msgs[i].Data = pl
		}
		outs[0].msgs = msgs
		for round := msgs; len(round) > 0; {
			round = e.applyRound(round)
		}
		e.releaseApplyScratch(outs)
	}
	cycle() // size the buffers, fill the free list
	cycle()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycle()
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*2*n), "ns/message")
}
