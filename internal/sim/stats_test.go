package sim

import (
	"sync"
	"testing"
)

// quietProto proposes nothing and receives nothing: a protocol whose
// cycles are pure engine overhead, used to pin the instrumentation's
// steady-state allocation cost.
type quietProto struct{}

func (quietProto) Propose(n *Node, px *Proposals) {}

func (quietProto) Receive(n *Node, ax *ApplyContext, msg Message) {}

// TestStatsMatchesAccessors pins the fold-in contract: the snapshot's
// Cycles/Delivered/Dropped/Evals fields agree with the engine's
// coordinator-side accessors, and the derived counters match what a ping
// ring provably does (one apply round per cycle, one routed job per
// delivered message, no sharding on a single worker).
func TestStatsMatchesAccessors(t *testing.T) {
	e, _ := buildPingRing(11, 32, 1)
	defer e.Close()
	e.Crash(3) // some bounced sends so Delivered != ApplyJobs trivially
	e.Run(10)

	s := e.Stats()
	if s.Cycles != e.Cycle() || s.Delivered != e.Delivered() || s.Dropped != e.Dropped() || s.Evals != e.Evals() {
		t.Fatalf("snapshot disagrees with accessors: %+v vs cycle=%d delivered=%d dropped=%d evals=%d",
			s, e.Cycle(), e.Delivered(), e.Dropped(), e.Evals())
	}
	if s.ApplyRounds != s.Cycles {
		t.Fatalf("ping ring has no follow-ups, want ApplyRounds == Cycles, got %d vs %d", s.ApplyRounds, s.Cycles)
	}
	// Every message is either delivered or bounced to its live sender, so
	// exactly Delivered+Dropped jobs are routed here.
	if s.ApplyJobs != s.Delivered+s.Dropped {
		t.Fatalf("ApplyJobs = %d, want Delivered+Dropped = %d", s.ApplyJobs, s.Delivered+s.Dropped)
	}
	if s.ShardedRounds != 0 || s.ShardMinLoad != 0 || s.ShardMaxLoad != 0 || s.ShardMeanLoad != 0 {
		t.Fatalf("single-worker engine recorded sharded rounds: %+v", s)
	}
	// Node 3 is dead and its successor gets no ping, so 30 distinct nodes
	// handle messages each round; node 2's bounce lands on a node that
	// also receives.
	if want := int64(30 * 10); s.ApplyBatches != want {
		t.Fatalf("ApplyBatches = %d, want %d (distinct handling nodes per round)", s.ApplyBatches, want)
	}
	if s.PayloadsRecycled != 0 {
		t.Fatalf("string payloads recycled %d times, want 0", s.PayloadsRecycled)
	}
	if s.PoolTasks != 0 {
		t.Fatalf("single-worker engine submitted %d pool tasks", s.PoolTasks)
	}
	if got := s.ShardSkew(); got != 1 {
		t.Fatalf("ShardSkew with no sharded rounds = %v, want 1", got)
	}
	if s.ProposeNanos < 0 || s.ApplyNanos < 0 {
		t.Fatalf("negative phase times: %+v", s)
	}
}

// TestStatsShardLoads drives the apply path on four workers and checks the
// load spread: a ping ring delivers exactly one message per node, so the
// span cut gives each worker 16 consecutive nodes of 64 — min = max = mean
// = 16 every round, skew exactly 1. ApplyBatches counts the distinct
// handling nodes, identically at every worker count.
func TestStatsShardLoads(t *testing.T) {
	e, _ := buildPingRing(12, 64, 1)
	defer e.Close()
	e.SetApplyWorkers(4)
	const cycles = 8
	e.Run(cycles)

	s := e.Stats()
	if s.ShardedRounds != cycles {
		t.Fatalf("ShardedRounds = %d, want %d", s.ShardedRounds, cycles)
	}
	if s.ApplyJobs != 64*cycles {
		t.Fatalf("ApplyJobs = %d, want %d", s.ApplyJobs, 64*cycles)
	}
	if s.ApplyBatches != 64*cycles {
		t.Fatalf("ApplyBatches = %d, want %d (one per node per round)", s.ApplyBatches, 64*cycles)
	}
	if want := int64(16 * cycles); s.ShardMinLoad != want || s.ShardMaxLoad != want {
		t.Fatalf("uniform ring shard loads min=%d max=%d, want both %d", s.ShardMinLoad, s.ShardMaxLoad, want)
	}
	if s.ShardMeanLoad != 16*cycles {
		t.Fatalf("ShardMeanLoad = %v, want %v", s.ShardMeanLoad, 16*cycles)
	}
	if got := s.ShardSkew(); got != 1 {
		t.Fatalf("ShardSkew = %v, want exactly 1 on a uniform ring", got)
	}
	// Three pool submissions per sharded round (shard 0 stays on the
	// coordinator; propose runs single-worker here).
	if want := int64(3 * cycles); s.PoolTasks != want {
		t.Fatalf("PoolTasks = %d, want %d", s.PoolTasks, want)
	}

	// Hotspot traffic shows up as skew: with everyone pinging node 0 the
	// first span swallows the whole round and the other three stay empty.
	h := NewEngine(13)
	defer h.Close()
	h.SetApplyWorkers(4)
	h.SetNodeFactory(func(nd *Node) { nd.Protocols = []Protocol{&pingProto{next: 0}} })
	h.AddNodes(64)
	h.Run(cycles)
	hs := h.Stats()
	if hs.ShardMinLoad != 0 || hs.ShardMaxLoad != 64*cycles || hs.ShardSkew() != 4 {
		t.Fatalf("hotspot shard loads min=%d max=%d skew=%v, want 0, %d, 4",
			hs.ShardMinLoad, hs.ShardMaxLoad, hs.ShardSkew(), 64*cycles)
	}
	if hs.ApplyBatches != cycles {
		t.Fatalf("hotspot ApplyBatches = %d, want %d (one handling node per round)", hs.ApplyBatches, cycles)
	}
}

// TestStatsRaceWithRunCycle reads snapshots from a spectator goroutine
// while the coordinator runs cycles — the race-safety contract of Stats,
// meaningful under -race. Monotonicity of the cycle counter doubles as a
// cheap sanity check that the spectator sees published values only.
func TestStatsRaceWithRunCycle(t *testing.T) {
	e, _ := buildPingRing(14, 128, 2)
	defer e.Close()
	e.SetApplyWorkers(2)

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var last int64
		for {
			s := e.Stats()
			if s.Cycles < last {
				t.Errorf("cycle counter went backwards: %d after %d", s.Cycles, last)
				return
			}
			last = s.Cycles
			select {
			case <-done:
				return
			default:
			}
		}
	}()
	e.Run(50)
	close(done)
	wg.Wait()

	if s := e.Stats(); s.Cycles != 50 {
		t.Fatalf("final snapshot Cycles = %d, want 50", s.Cycles)
	}
}

// TestStatsLiveRebuilds checks the lazy live-index rebuild counter: a
// churn-free population never rebuilds (AddNode maintains the index
// incrementally), and each Crash dirties the index for exactly one rebuild
// at the next live-population read.
func TestStatsLiveRebuilds(t *testing.T) {
	e, _ := buildPingRing(15, 16, 1)
	defer e.Close()
	e.Run(5)
	if got := e.Stats().LiveRebuilds; got != 0 {
		t.Fatalf("churn-free run rebuilt the live index %d times, want 0", got)
	}
	e.Crash(2)
	e.Run(5)
	if got := e.Stats().LiveRebuilds; got != 1 {
		t.Fatalf("one crash, want exactly one rebuild: got %d", got)
	}
}

// TestFreeListStatsCounting exercises the opt-in free-list counters where
// they are kept, in the cache that served the Get: a miss on an empty
// list, a hit on a recycled payload, and nothing while counting is off.
// TestFreeListCountsAreEngineOwned follows them into Engine.Stats.
func TestFreeListStatsCounting(t *testing.T) {
	type payload struct{ buf []int }
	var fl FreeList[payload]
	var c PayloadCache

	EnableFreeListStats(true)
	defer EnableFreeListStats(false)

	p := fl.Get(&c) // empty list: miss
	fl.Put(&c, p)
	q := fl.Get(&c) // just recycled: hit (the list holds strong references)
	if c.hits != 1 || c.misses != 1 {
		t.Fatalf("a miss then a hit counted as %d hits, %d misses (got %p back for %p)", c.hits, c.misses, q, p)
	}

	EnableFreeListStats(false)
	fl.Put(&c, q)
	fl.Get(&c)
	fl.Get(&c)
	if c.hits != 1 || c.misses != 1 {
		t.Fatalf("counters moved while disabled: %d hits, %d misses", c.hits, c.misses)
	}
}

// pooledPing is a recyclable ping payload, for pinning PayloadsRecycled.
type pooledPing struct{ seq int64 }

var pooledPingList FreeList[pooledPing]

func (p *pooledPing) Recycle(c *PayloadCache) {
	*p = pooledPing{}
	pooledPingList.Put(c, p)
}

// pooledPingProto sends one pooled payload per cycle to a fixed peer.
type pooledPingProto struct{ next NodeID }

func (p *pooledPingProto) Propose(n *Node, px *Proposals) {
	pl := pooledPingList.Get(px.Payloads())
	pl.seq = px.Cycle()
	px.Send(p.next, 0, pl)
}

func (p *pooledPingProto) Receive(n *Node, ax *ApplyContext, msg Message) {}

// TestStatsPayloadsRecycled pins the engine-owned recycle counter: every
// sent Recyclable payload — delivered or bounced — is recycled exactly
// once per cycle, so the counter advances by the live population each
// cycle.
func TestStatsPayloadsRecycled(t *testing.T) {
	const n, cycles = 32, 6
	e := NewEngine(17)
	defer e.Close()
	e.SetNodeFactory(func(nd *Node) {
		nd.Protocols = []Protocol{&pooledPingProto{next: NodeID((int64(nd.ID) + 1) % n)}}
	})
	e.AddNodes(n)
	e.Crash(5) // one dead destination: its bounced legs must still recycle
	e.Run(cycles)

	s := e.Stats()
	if want := int64((n - 1) * cycles); s.PayloadsRecycled != want {
		t.Fatalf("PayloadsRecycled = %d, want %d (every sent payload, dropped legs included)",
			s.PayloadsRecycled, want)
	}
}

// TestReleaseAfterSilentCycle runs cycles that send, then cycles in which
// no node proposes. The silent cycles' release must read nothing the last
// sending cycle's apply round left behind: it neither panics nor recycles.
func TestReleaseAfterSilentCycle(t *testing.T) {
	const n = 32
	e := NewEngine(18)
	defer e.Close()
	e.SetNodeFactory(func(nd *Node) {
		nd.Protocols = []Protocol{&pooledPingProto{next: NodeID((int64(nd.ID) + 1) % n)}}
	})
	e.AddNodes(n)
	e.Run(3)
	before := e.Stats().PayloadsRecycled
	if before != 3*n {
		t.Fatalf("PayloadsRecycled = %d after the sending cycles, want %d", before, 3*n)
	}
	for id := range NodeID(n) {
		e.Crash(id)
	}
	e.Run(2)
	if got := e.Stats().PayloadsRecycled; got != before {
		t.Fatalf("PayloadsRecycled moved from %d to %d in cycles that sent nothing", before, got)
	}
}

// TestStatsSteadyStateAllocs pins the instrumentation's allocation cost on
// the disabled path (no Stats readers, free-list counting off): a warmed-up
// quiet cycle performs exactly one allocation — the propose phase's shard
// closure, which predates the instrumentation — and Stats itself allocates
// nothing. The repo-level budget in scripts/alloc_budget.txt pins the
// protocol-bearing path against the seed.
func TestStatsSteadyStateAllocs(t *testing.T) {
	e := NewEngine(16)
	defer e.Close()
	e.SetNodeFactory(func(nd *Node) { nd.Protocols = []Protocol{quietProto{}} })
	e.AddNodes(128)
	e.Run(5) // warm the scratch buffers

	if got := testing.AllocsPerRun(100, func() { e.RunCycle() }); got > 1 {
		t.Fatalf("quiet steady-state RunCycle allocates %v times, want <= 1", got)
	}
	if got := testing.AllocsPerRun(100, func() { _ = e.Stats() }); got != 0 {
		t.Fatalf("Stats allocates %v times, want 0", got)
	}
}
