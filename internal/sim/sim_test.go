package sim

import (
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"

	"gossipopt/internal/rng"
)

// countingProto records how many times each node was stepped.
type countingProto struct {
	steps int
}

func (c *countingProto) Propose(n *Node, px *Proposals) { c.steps++ }

func newCountingEngine(seed uint64, n int) (*Engine, []*countingProto) {
	e := NewEngine(seed)
	protos := make([]*countingProto, 0, n)
	e.SetNodeFactory(func(nd *Node) {
		p := &countingProto{}
		protos = append(protos, p)
		nd.Protocols = []Protocol{p}
	})
	e.AddNodes(n)
	return e, protos
}

func TestEveryLiveNodeSteppedOncePerCycle(t *testing.T) {
	e, protos := newCountingEngine(1, 10)
	e.Run(5)
	for i, p := range protos {
		if p.steps != 5 {
			t.Fatalf("node %d stepped %d times, want 5", i, p.steps)
		}
	}
}

func TestCrashedNodesNotStepped(t *testing.T) {
	e, protos := newCountingEngine(2, 4)
	e.Crash(0)
	e.Run(3)
	if protos[0].steps != 0 {
		t.Fatalf("crashed node stepped %d times", protos[0].steps)
	}
	for i := 1; i < 4; i++ {
		if protos[i].steps != 3 {
			t.Fatalf("live node %d stepped %d times", i, protos[i].steps)
		}
	}
}

func TestReviveResumesStepping(t *testing.T) {
	e, protos := newCountingEngine(3, 2)
	e.Crash(1)
	e.Run(2)
	e.Revive(1)
	e.Run(2)
	if protos[1].steps != 2 {
		t.Fatalf("revived node stepped %d times, want 2", protos[1].steps)
	}
}

func TestLiveCountAndSize(t *testing.T) {
	e, _ := newCountingEngine(4, 8)
	if e.Size() != 8 || e.LiveCount() != 8 {
		t.Fatalf("size=%d live=%d", e.Size(), e.LiveCount())
	}
	e.Crash(0)
	e.Crash(5)
	if e.LiveCount() != 6 {
		t.Fatalf("live=%d after 2 crashes", e.LiveCount())
	}
	if e.Size() != 8 {
		t.Fatalf("size=%d after crashes", e.Size())
	}
}

// TestLivenessIndexInvariant runs a churn script — crashes, revives and
// joins that carry the arena across a chunk boundary, each also aimed at
// IDs never issued and negative ones, with cycles in between — and checks
// after every step that the three records of liveness agree: the arena's
// bits, Node.Alive and the live index (with LiveCount), and that route
// delivers to exactly the IDs the arena rule calls alive (a node exists
// and is Alive) and bounces everything else.
func TestLivenessIndexInvariant(t *testing.T) {
	e, _ := newCountingEngine(30, arenaChunkSize-40)
	defer e.Close()
	r := rng.New(31)
	check := func(step int, op string) {
		t.Helper()
		e.ensureLive()
		var want []NodeID
		for id := NodeID(-3); id < NodeID(e.Size()+70); id++ {
			n := e.Node(id)
			alive := n != nil && n.Alive
			if alive {
				want = append(want, id)
			}
			if e.arena.alive(id) != alive {
				t.Fatalf("step %d (%s): node %d has liveness bit %v, arena rule says %v", step, op, id, !alive, alive)
			}
			m := Message{From: 0, To: id}
			if delivered := e.route(&m)&keyDeliver != 0; delivered != alive {
				t.Fatalf("step %d (%s): route delivers to node %d: %v, arena rule says %v", step, op, id, delivered, alive)
			}
		}
		got := make([]NodeID, len(e.liveIdx))
		for i, n := range e.liveIdx {
			got[i] = n.ID
		}
		if !slices.Equal(got, want) || e.LiveCount() != len(want) {
			t.Fatalf("step %d (%s): live index %d nodes, LiveCount %d, %d alive by the arena rule",
				step, op, len(got), e.LiveCount(), len(want))
		}
	}
	target := func() NodeID { return NodeID(r.Intn(e.Size()+6) - 3) }
	check(0, "build")
	for step := 1; step <= 400; step++ {
		var op string
		switch k := r.Intn(10); {
		case k < 4:
			op = "crash"
			e.Crash(target())
		case k < 7:
			op = "revive"
			e.Revive(target())
		case k < 9:
			op = "join"
			e.AddNode()
		default:
			op = "cycle"
			e.RunCycle()
		}
		check(step, op)
	}
	if e.Size() <= arenaChunkSize || e.LiveCount() == e.Size() || e.LiveCount() == 0 {
		t.Fatalf("script ended with %d nodes, %d live: want past one chunk, some dead, some alive", e.Size(), e.LiveCount())
	}
}

// TestArenaChunkIsWholePages pins the arena's chunk size (see arena.go): a
// chunk stays a large object, above 32 KiB and a whole number of 8 KiB
// pages, so the runtime gives it pages of its own and no malloc header.
func TestArenaChunkIsWholePages(t *testing.T) {
	node := unsafe.Sizeof(Node{})
	if size := node * arenaChunkSize; size <= 32<<10 || size%(8<<10) != 0 {
		t.Fatalf("an arena chunk is %d B (%d nodes of %d B), want above 32 KiB and a multiple of 8 KiB",
			size, arenaChunkSize, node)
	}
}

// TestRecordLayouts pins the per-node and per-delayed-leg records to their
// 32-bit-ID layouts; TestFollowUpPlacement pins Message.
func TestRecordLayouts(t *testing.T) {
	if s := unsafe.Sizeof(Node{}); s != 40 {
		t.Fatalf("sim.Node is %d bytes, want 40: the arena holds one per node ever created", s)
	}
	if s := unsafe.Sizeof(delayedMsg{}); s != 40 {
		t.Fatalf("delayedMsg is %d bytes, want 40: the delay queue holds one per delayed leg", s)
	}
}

// TestArenaRefusesIDsPastRoutingKey starts an arena one ID below the limit
// a routing key can name: the last ID is issued and round-trips through a
// routing key, and the next one panics with a message naming the limit.
func TestArenaRefusesIDsPastRoutingKey(t *testing.T) {
	a := nodeArena{n: MaxNodes - 1, chunks: make([][]Node, (MaxNodes-1)>>arenaChunkShift)}
	if n := a.alloc(); n.ID != MaxNodes-1 {
		t.Fatalf("last ID below the limit allocated as %d, want %d", n.ID, MaxNodes-1)
	}
	if key := int32(MaxNodes-1)<<keyShift | keyDeliver | keyCorrupt; key>>keyShift != MaxNodes-1 {
		t.Fatalf("routing key %d does not round-trip ID %d", key, MaxNodes-1)
	}
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, "536870912") {
			t.Fatalf("alloc at the limit panicked with %q, want a message naming 536870912", msg)
		}
		if a.len() != MaxNodes {
			t.Fatalf("the refused alloc moved the arena to %d nodes", a.len())
		}
	}()
	a.alloc()
}

func TestRandomLiveNodeExcludes(t *testing.T) {
	e, _ := newCountingEngine(6, 5)
	for i := 0; i < 200; i++ {
		n := e.RandomLiveNode(2)
		if n == nil {
			t.Fatal("RandomLiveNode returned nil with live nodes present")
		}
		if n.ID == 2 {
			t.Fatal("RandomLiveNode returned excluded node")
		}
	}
}

func TestRandomLiveNodeNilWhenEmpty(t *testing.T) {
	e := NewEngine(7)
	if e.RandomLiveNode(-1) != nil {
		t.Fatal("expected nil from empty engine")
	}
	n := e.AddNode()
	if e.RandomLiveNode(n.ID) != nil {
		t.Fatal("expected nil when only node is excluded")
	}
}

// Property: the engine is deterministic — same seed, same trace.
func TestDeterminism(t *testing.T) {
	trace := func(seed uint64) []int {
		e, protos := newCountingEngine(seed, 20)
		e.SetChurn(&RateChurn{CrashProb: 0.02, JoinPerCycle: 0.5, MinLive: 2})
		e.Run(30)
		out := make([]int, len(protos))
		for i, p := range protos {
			out[i] = p.steps
		}
		return out
	}
	if err := quick.Check(func(seed uint16) bool {
		a, b := trace(uint64(seed)), trace(uint64(seed))
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestRateChurnJoins(t *testing.T) {
	e, _ := newCountingEngine(8, 4)
	e.SetChurn(&RateChurn{JoinPerCycle: 2})
	e.Run(5)
	if e.Size() != 4+10 {
		t.Fatalf("size=%d, want 14", e.Size())
	}
}

func TestRateChurnMinLive(t *testing.T) {
	e, _ := newCountingEngine(9, 10)
	e.SetChurn(&RateChurn{CrashProb: 1.0, MinLive: 3})
	e.Run(10)
	if e.LiveCount() != 3 {
		t.Fatalf("live=%d, want MinLive=3", e.LiveCount())
	}
}

func TestCatastropheChurn(t *testing.T) {
	e, _ := newCountingEngine(10, 100)
	e.SetChurn(&CatastropheChurn{AtCycle: 3, Fraction: 0.5})
	e.Run(10)
	if got := e.LiveCount(); got != 50 {
		t.Fatalf("live=%d after 50%% catastrophe, want 50", got)
	}
}

func TestStringSmoke(t *testing.T) {
	e, _ := newCountingEngine(12, 2)
	if e.String() == "" {
		t.Fatal("empty String()")
	}
}

func TestAllNodesIncludesDead(t *testing.T) {
	e, _ := newCountingEngine(13, 5)
	e.Crash(2)
	all := e.AllNodes()
	if len(all) != 5 {
		t.Fatalf("AllNodes = %d, want 5", len(all))
	}
	for i, n := range all {
		if n.ID != NodeID(i) {
			t.Fatalf("AllNodes not in ID order: %v at %d", n.ID, i)
		}
	}
	live := e.LiveNodes()
	if len(live) != 4 {
		t.Fatalf("LiveNodes = %d, want 4", len(live))
	}
}
