package sim

import (
	"slices"
	"testing"
	"unsafe"

	"gossipopt/internal/rng"
)

// pingProto is a minimal two-phase protocol: every cycle each node
// proposes a ping to (id+1) mod n; receivers count pings and remember the
// order of senders; undeliverable pings are counted by the sender.
type pingProto struct {
	next NodeID

	sent, got, failed int
	fromOrder         []NodeID
}

func (p *pingProto) Propose(n *Node, px *Proposals) {
	p.sent++
	px.Send(p.next, 0, "ping")
}

func (p *pingProto) Receive(n *Node, ax *ApplyContext, msg Message) {
	p.got++
	p.fromOrder = append(p.fromOrder, msg.From)
}

func (p *pingProto) Undelivered(n *Node, ax *ApplyContext, msg Message) { p.failed++ }

func buildPingRing(seed uint64, n, workers int) (*Engine, []*pingProto) {
	e := NewEngine(seed)
	e.SetWorkers(workers)
	protos := make([]*pingProto, 0, n)
	e.SetNodeFactory(func(nd *Node) {
		p := &pingProto{next: NodeID((int64(nd.ID) + 1) % int64(n))}
		protos = append(protos, p)
		nd.Protocols = []Protocol{p}
	})
	e.AddNodes(n)
	return e, protos
}

func TestProposalsDeliveredToReceiver(t *testing.T) {
	e, protos := buildPingRing(1, 10, 1)
	e.Run(5)
	for i, p := range protos {
		if p.sent != 5 || p.got != 5 || p.failed != 0 {
			t.Fatalf("node %d: sent=%d got=%d failed=%d, want 5/5/0", i, p.sent, p.got, p.failed)
		}
	}
}

func TestUndeliverableFeedback(t *testing.T) {
	e, protos := buildPingRing(2, 4, 1)
	e.Crash(1)
	e.Run(3)
	// Node 0 pings dead node 1: every attempt must come back as a failure
	// (it still receives node 3's pings normally).
	if protos[0].failed != 3 || protos[0].got != 3 {
		t.Fatalf("sender to dead peer: failed=%d got=%d, want 3/3", protos[0].failed, protos[0].got)
	}
	// Node 1 is dead: it neither proposes nor receives.
	if protos[1].sent != 0 || protos[1].got != 0 {
		t.Fatalf("dead node acted: sent=%d got=%d", protos[1].sent, protos[1].got)
	}
	// Node 2 still receives from node 1? No — 1 is dead; 2 gets nothing.
	if protos[2].got != 0 {
		t.Fatalf("node 2 received %d pings from dead node 1", protos[2].got)
	}
}

// TestApplyOrderWorkerInvariant is the heart of the determinism story: the
// canonical delivery order (observed through each receiver's fromOrder)
// must be bit-identical for every worker count.
func TestApplyOrderWorkerInvariant(t *testing.T) {
	trace := func(workers int) [][]NodeID {
		e, protos := buildPingRing(7, 64, workers)
		e.SetChurn(&RateChurn{CrashProb: 0.05, JoinPerCycle: 1, MinLive: 4})
		e.Run(20)
		out := make([][]NodeID, len(protos))
		for i, p := range protos {
			out[i] = p.fromOrder
		}
		return out
	}
	want := trace(1)
	for _, w := range []int{2, 4, 8} {
		got := trace(w)
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d nodes, want %d", w, len(got), len(want))
		}
		for i := range want {
			if len(got[i]) != len(want[i]) {
				t.Fatalf("workers=%d node %d: %d deliveries, want %d", w, i, len(got[i]), len(want[i]))
			}
			for j := range want[i] {
				if got[i][j] != want[i][j] {
					t.Fatalf("workers=%d node %d delivery %d: from %d, want %d", w, i, j, got[i][j], want[i][j])
				}
			}
		}
	}
}

// echoProto exercises the reply-round machinery: every cycle each node
// proposes a ping to its partner; the receiver forwards a pong in the
// ping's slot and the initiator records it. One cycle therefore spans two apply
// rounds, and the pong must arrive within the same cycle.
type echoProto struct {
	partner NodeID

	pings, pongs, failed int
	pongCycles           []int64
}

func (p *echoProto) Undelivered(n *Node, ax *ApplyContext, msg Message) { p.failed++ }

func (p *echoProto) Propose(n *Node, px *Proposals) {
	px.Send(p.partner, 0, "ping")
}

func (p *echoProto) Receive(n *Node, ax *ApplyContext, msg Message) {
	switch msg.Data {
	case "ping":
		p.pings++
		ax.Forward(msg.From, 0, "pong")
	case "pong":
		p.pongs++
		p.pongCycles = append(p.pongCycles, ax.Cycle())
	}
}

// TestReplyRoundsCompleteWithinCycle: follow-ups posted by Receive are
// delivered in a later apply round of the same cycle, so an exchange's
// reply leg lands before the cycle ends.
func TestReplyRoundsCompleteWithinCycle(t *testing.T) {
	e := NewEngine(3)
	protos := make([]*echoProto, 0, 2)
	e.SetNodeFactory(func(nd *Node) {
		p := &echoProto{partner: 1 - nd.ID}
		protos = append(protos, p)
		nd.Protocols = []Protocol{p}
	})
	e.AddNodes(2)
	e.Run(4)
	for i, p := range protos {
		if p.pings != 4 || p.pongs != 4 {
			t.Fatalf("node %d: pings=%d pongs=%d, want 4/4", i, p.pings, p.pongs)
		}
		for j, c := range p.pongCycles {
			if c != int64(j) {
				t.Fatalf("node %d pong %d arrived in cycle %d", i, j, c)
			}
		}
	}
	// Each cycle: 2 pings + 2 pongs delivered.
	if e.Delivered() != 16 || e.Dropped() != 0 {
		t.Fatalf("delivered=%d dropped=%d, want 16/0", e.Delivered(), e.Dropped())
	}
}

// TestReplyToUnreachableFiresUndelivered: a reply leg blocked by a
// directional filter takes the undeliverable path on the replier.
func TestReplyToUnreachableFiresUndelivered(t *testing.T) {
	e := NewEngine(5)
	a := e.AddNode() // island 0 under a 2-way one-way split
	b := e.AddNode() // island 1
	ea := &echoProto{partner: b.ID}
	eb := &echoProto{partner: a.ID}
	a.Protocols = []Protocol{ea}
	b.Protocols = []Protocol{eb}

	e.SetDeliveryFilter(SplitGroupsOneWay(2))
	e.RunCycle()
	// a's ping (0→1) crosses; b's pong (1→0) is blocked, as is b's own
	// ping. So b saw one ping, nobody saw a pong.
	if eb.pings != 1 || ea.pongs != 0 || ea.pings != 0 {
		t.Fatalf("one-way split: b.pings=%d a.pongs=%d a.pings=%d, want 1/0/0", eb.pings, ea.pongs, ea.pings)
	}
	// b's Undelivered fired twice: once for its own ping, once for the
	// blocked pong reply.
	if eb.failed != 2 || ea.failed != 0 {
		t.Fatalf("undelivered: b=%d a=%d, want 2/0", eb.failed, ea.failed)
	}
	if e.Delivered() != 1 || e.Dropped() != 2 {
		t.Fatalf("delivered=%d dropped=%d, want 1/2", e.Delivered(), e.Dropped())
	}
}

// TestEngineEvalCounter: Proposals.CountEvals aggregates into Engine.Evals
// across workers and cycles.
func TestEngineEvalCounter(t *testing.T) {
	for _, workers := range []int{1, 4} {
		e := NewEngine(4)
		e.SetWorkers(workers)
		e.SetNodeFactory(func(nd *Node) {
			nd.Protocols = []Protocol{evalCounterProto{}}
		})
		e.AddNodes(30)
		e.Crash(5)
		e.Run(10)
		// 29 live nodes × 10 cycles × 1 eval.
		if got := e.Evals(); got != 290 {
			t.Fatalf("workers=%d: Evals = %d, want 290", workers, got)
		}
	}
}

type evalCounterProto struct{}

func (evalCounterProto) Propose(n *Node, px *Proposals) { px.CountEvals(1) }

// TestLiveCountMaintained: the O(1) counter must agree with a full scan
// through arbitrary Crash/Revive/churn sequences.
func TestLiveCountMaintained(t *testing.T) {
	e, _ := newCountingEngine(5, 50)
	scan := func() int {
		c := 0
		for _, n := range e.AllNodes() {
			if n.Alive {
				c++
			}
		}
		return c
	}
	check := func(at string) {
		if e.LiveCount() != scan() {
			t.Fatalf("%s: LiveCount=%d scan=%d", at, e.LiveCount(), scan())
		}
	}
	check("init")
	e.Crash(3)
	e.Crash(3) // double crash must not double-decrement
	check("crash")
	e.Revive(3)
	e.Revive(3) // double revive must not double-increment
	check("revive")
	e.Crash(999) // unknown ID is a no-op
	check("unknown")
	e.SetChurn(&RateChurn{CrashProb: 0.1, JoinPerCycle: 1.5, MinLive: 5})
	e.Run(30)
	check("churn")
}

// fanoutProto forwards a follow-up for two in three of the messages it
// handles, delivered or bounced, tagged with the handled message's index
// in its round and sent to a node derived from it.
type fanoutProto struct{ nodes int }

type fanoutTag int

func fansOut(i int) bool { return i%3 != 1 }

func (p fanoutProto) Receive(n *Node, ax *ApplyContext, msg Message) { p.post(ax, msg) }

func (p fanoutProto) Undelivered(n *Node, ax *ApplyContext, msg Message) { p.post(ax, msg) }

func (p fanoutProto) post(ax *ApplyContext, msg Message) {
	if i := msg.Data.(int); fansOut(i) {
		ax.Forward(NodeID(i%p.nodes), 0, fanoutTag(i))
	}
}

// TestFollowUpPlacement checks applyRound's step 3 directly: whatever the
// apply worker count, the next round is built in place, at the front of
// the round, and lists the follow-ups in their triggers' canonical order,
// unmarked; behind them stay the finished legs, each message that posted
// no follow-up exactly once. Some messages bounce to their sender (dead
// destination), some reach no handler (no sender either) and some address
// a missing slot, so the triggers carrying follow-ups are sparse.
func TestFollowUpPlacement(t *testing.T) {
	if s := unsafe.Sizeof(Message{}); s != 32 {
		t.Fatalf("sim.Message is %d bytes, want 32: every engine buffer holds one per message", s)
	}
	const nodes, msgs, dead = 40, 700, 7
	r := rng.New(9)
	round := make([]Message, msgs)
	var want []fanoutTag
	var finished []int
	for i := range round {
		m := Message{From: NodeID(r.Intn(nodes)), To: NodeID(r.Intn(nodes)), Data: i}
		switch i % 11 {
		case 3:
			m.To = dead // bounces to the sender's Undelivered
		case 5:
			m.From, m.To = nodes+3, dead // nobody handles it
		case 8:
			m.Slot = 1 // routed, but the node has no such slot
		}
		round[i] = m
		if i%11 != 5 && i%11 != 8 && fansOut(i) {
			want = append(want, fanoutTag(i))
		} else {
			finished = append(finished, i)
		}
	}
	for _, w := range []int{1, 2, 3, 8} {
		e := NewEngine(3)
		e.SetApplyWorkers(w)
		e.SetNodeFactory(func(nd *Node) { nd.Protocols = []Protocol{fanoutProto{nodes}} })
		e.AddNodes(nodes)
		e.Crash(dead)
		buf := slices.Clone(round)
		next := e.applyRound(buf)
		e.Close()
		if len(next) != len(want) || &next[0] != &buf[0] {
			t.Fatalf("workers=%d: %d follow-ups, want %d at the front of the round", w, len(next), len(want))
		}
		for k, m := range next {
			if tag := m.Data.(fanoutTag); tag != want[k] || m.trigger != 0 {
				t.Fatalf("workers=%d: follow-up %d is %v marked %d, want %v unmarked", w, k, tag, m.trigger, want[k])
			}
			if m.To != NodeID(int(want[k])%nodes) {
				t.Fatalf("workers=%d: follow-up %d goes to node %d, not where it was sent", w, k, m.To)
			}
		}
		var left []int
		for _, m := range buf[len(next):] {
			left = append(left, m.Data.(int))
		}
		if slices.Sort(left); !slices.Equal(left, finished) {
			t.Fatalf("workers=%d: the legs behind the follow-ups are %v, want %v", w, left, finished)
		}
	}
}
