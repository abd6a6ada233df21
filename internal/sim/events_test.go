package sim

import (
	"cmp"
	"slices"
	"testing"

	"gossipopt/internal/rng"
)

// echoHandler counts deliveries and optionally forwards each message once.
type echoHandler struct {
	got     []any
	forward NodeID
	hops    int
}

func (h *echoHandler) Deliver(n *Node, msg any, e *EventEngine) {
	h.got = append(h.got, msg)
	if h.hops > 0 {
		h.hops--
		e.Send(n.ID, h.forward, msg)
	}
}

func TestEventDelivery(t *testing.T) {
	e := NewEventEngine(1, nil)
	h := &echoHandler{}
	n := e.AddNode(h)
	e.Send(n.ID, n.ID, "hello")
	for e.Step() {
	}
	if len(h.got) != 1 || h.got[0] != "hello" {
		t.Fatalf("got %v", h.got)
	}
}

func TestEventOrderingByTime(t *testing.T) {
	e := NewEventEngine(2, nil)
	h := &echoHandler{}
	n := e.AddNode(h)
	e.SendAfter(5, n.ID, "late")
	e.SendAfter(1, n.ID, "early")
	e.SendAfter(3, n.ID, "mid")
	for e.Step() {
	}
	want := []any{"early", "mid", "late"}
	for i, w := range want {
		if h.got[i] != w {
			t.Fatalf("delivery order %v, want %v", h.got, want)
		}
	}
	if e.Now() != 5 {
		t.Fatalf("Now=%v, want 5", e.Now())
	}
}

func TestEventTieBreakDeterministic(t *testing.T) {
	run := func() []any {
		e := NewEventEngine(3, nil)
		h := &echoHandler{}
		n := e.AddNode(h)
		for i := 0; i < 10; i++ {
			e.SendAfter(1, n.ID, i)
		}
		for e.Step() {
		}
		return h.got
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("tie-broken order not deterministic")
		}
	}
}

func TestCrashedNodeDropsMessages(t *testing.T) {
	e := NewEventEngine(4, nil)
	h := &echoHandler{}
	n := e.AddNode(h)
	e.Send(n.ID, n.ID, "x")
	e.Crash(n.ID)
	for e.Step() {
	}
	if len(h.got) != 0 {
		t.Fatalf("crashed node received %v", h.got)
	}
	if e.Dropped() != 1 {
		t.Fatalf("Dropped=%d, want 1", e.Dropped())
	}
}

func TestLossyLink(t *testing.T) {
	e := NewEventEngine(5, UniformLink{LossProb: 1})
	h := &echoHandler{}
	n := e.AddNode(h)
	for i := 0; i < 10; i++ {
		e.Send(n.ID, n.ID, i)
	}
	for e.Step() {
	}
	if len(h.got) != 0 {
		t.Fatalf("lossy link delivered %v", h.got)
	}
	if e.Dropped() != 10 {
		t.Fatalf("Dropped=%d", e.Dropped())
	}
	// SendAfter must bypass loss (it is a timer).
	e.SendAfter(1, n.ID, "timer")
	for e.Step() {
	}
	if len(h.got) != 1 {
		t.Fatal("timer was dropped")
	}
}

func TestLatencyBounds(t *testing.T) {
	e := NewEventEngine(6, UniformLink{MinDelay: 2, MaxDelay: 4})
	h := &echoHandler{}
	n := e.AddNode(h)
	e.Send(n.ID, n.ID, "x")
	e.Step()
	if now := e.Now(); now < 2 || now > 4 {
		t.Fatalf("delivery time %v outside [2,4]", now)
	}
}

func TestRunUntilHorizon(t *testing.T) {
	e := NewEventEngine(7, nil)
	h := &echoHandler{}
	n := e.AddNode(h)
	e.SendAfter(1, n.ID, "a")
	e.SendAfter(10, n.ID, "b")
	count := e.RunUntil(5, 1000)
	if count != 1 {
		t.Fatalf("processed %d events before horizon, want 1", count)
	}
	if len(h.got) != 1 || h.got[0] != "a" {
		t.Fatalf("got %v", h.got)
	}
}

func TestRunUntilMaxEvents(t *testing.T) {
	e := NewEventEngine(8, nil)
	// Two nodes ping-ponging forever.
	ha := &echoHandler{hops: 1 << 30}
	hb := &echoHandler{hops: 1 << 30}
	a := e.AddNode(ha)
	b := e.AddNode(hb)
	ha.forward = b.ID
	hb.forward = a.ID
	e.SendAfter(1, a.ID, "ping")
	count := e.RunUntil(1e18, 50)
	if count != 50 {
		t.Fatalf("processed %d events, want 50", count)
	}
}

func TestDeliveredCounter(t *testing.T) {
	e := NewEventEngine(9, nil)
	h := &echoHandler{}
	n := e.AddNode(h)
	for i := 0; i < 5; i++ {
		e.Send(n.ID, n.ID, i)
	}
	for e.Step() {
	}
	if e.Delivered() != 5 {
		t.Fatalf("Delivered=%d", e.Delivered())
	}
}

func TestEventLiveNodes(t *testing.T) {
	e := NewEventEngine(10, nil)
	a := e.AddNode(&echoHandler{})
	b := e.AddNode(&echoHandler{})
	c := e.AddNode(&echoHandler{})
	e.Crash(b.ID)
	live := e.LiveNodes()
	if len(live) != 2 || live[0].ID != a.ID || live[1].ID != c.ID {
		t.Fatalf("LiveNodes = %v", live)
	}
	if e.Node(b.ID) == nil || e.Node(b.ID).Alive {
		t.Fatal("crashed node state wrong")
	}
	if e.Node(99) != nil {
		t.Fatal("unknown node not nil")
	}
}

// TestEventHeapMatchesSort interleaves random pushes and pops on the
// queue, with delivery times drawn from four values so that most
// comparisons tie on at, and checks every pop against the pending events
// kept sorted by (at, seq). After every pop each slot between the queue's
// length and its capacity must be zero: a vacated slot pins no payload.
func TestEventHeapMatchesSort(t *testing.T) {
	byTimeSeq := func(a, b event) int {
		return cmp.Or(cmp.Compare(a.at, b.at), cmp.Compare(a.seq, b.seq))
	}
	r := rng.New(11)
	var q eventHeap
	var pending []event
	var seq uint64
	popped := 0
	for step := 0; step < 20_000; step++ {
		if len(pending) == 0 || r.Intn(5) < 3 {
			seq++
			ev := event{at: float64(r.Intn(4)), seq: seq, msg: seq}
			q.push(ev)
			i, _ := slices.BinarySearchFunc(pending, ev, byTimeSeq)
			pending = slices.Insert(pending, i, ev)
			continue
		}
		got, want := q.pop(), pending[0]
		pending = pending[1:]
		popped++
		if got != want {
			t.Fatalf("pop %d: got (at %v, seq %d), want (at %v, seq %d)", popped, got.at, got.seq, want.at, want.seq)
		}
		if len(q) != len(pending) {
			t.Fatalf("pop %d: queue holds %d events, want %d", popped, len(q), len(pending))
		}
		for i, ev := range q[len(q):cap(q)] {
			if ev != (event{}) {
				t.Fatalf("pop %d: vacated slot %d holds %+v", popped, len(q)+i, ev)
			}
		}
	}
	if popped < 5_000 {
		t.Fatalf("only %d pops exercised", popped)
	}
}

// TestEventHeapPushPopZeroAllocs pins that a warmed queue neither boxes
// nor grows: one push and one pop allocate nothing.
func TestEventHeapPushPopZeroAllocs(t *testing.T) {
	var msg any = "payload"
	var q eventHeap
	var seq uint64
	for ; seq < 64; seq++ {
		q.push(event{at: float64(seq % 7), seq: seq, msg: msg})
	}
	allocs := testing.AllocsPerRun(1000, func() {
		seq++
		q.push(event{at: float64(seq % 7), seq: seq, msg: msg})
		q.pop()
	})
	if allocs != 0 {
		t.Fatalf("a warmed push+pop allocates %v times, want 0", allocs)
	}
}
