package sim

import "gossipopt/internal/rng"

// The event-driven engine complements the cycle-driven one for experiments
// where message latency and loss matter. Protocols for this engine implement
// Handler and exchange messages via Send; periodic behaviour is expressed
// with timers (SendAfter to self).

// Handler processes messages delivered to a node in the event-driven model.
type Handler interface {
	// Deliver handles msg arriving at node n at the engine's current time.
	Deliver(n *Node, msg any, e *EventEngine)
}

// event is a message in flight (or a timer).
type event struct {
	at   float64
	seq  uint64 // tie-breaker for deterministic ordering
	from NodeID
	to   NodeID
	msg  any
}

// eventHeap is the engine's priority queue: a binary min-heap on
// (at, seq), delivery time first and the insertion sequence number as the
// deterministic tie-breaker. seq is unique, so the order is strict and
// total: any correct heap pops the same sequence.
type eventHeap []event

// before reports whether a is delivered ahead of b.
func (a *event) before(b *event) bool {
	return a.at < b.at || a.at == b.at && a.seq < b.seq
}

// push adds ev and sifts it up from the tail.
func (h *eventHeap) push(ev event) {
	q := append(*h, ev)
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !ev.before(&q[p]) {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = ev
	*h = q
}

// pop removes and returns the earliest event; the queue must not be empty.
// The last event moves to the root and sifts down, and the vacated tail
// slot is cleared so the backing array does not pin a delivered payload.
func (h *eventHeap) pop() event {
	q := *h
	top, n := q[0], len(q)-1
	last := q[n]
	q[n] = event{}
	q = q[:n]
	if n > 0 {
		i := 0
		for c := 1; c < n; c = 2*i + 1 {
			if c+1 < n && q[c+1].before(&q[c]) {
				c++
			}
			if !q[c].before(&last) {
				break
			}
			q[i] = q[c]
			i = c
		}
		q[i] = last
	}
	*h = q
	return top
}

// LinkModel decides per-message latency and loss.
type LinkModel interface {
	// Latency returns the transit delay for a message from src to dst.
	Latency(r *rng.RNG, src, dst NodeID) float64
	// Drop reports whether the message is lost in transit.
	Drop(r *rng.RNG, src, dst NodeID) bool
}

// UniformLink has latency uniform in [MinDelay, MaxDelay] and i.i.d. drop
// probability LossProb.
type UniformLink struct {
	MinDelay, MaxDelay float64
	LossProb           float64
}

// Latency implements LinkModel.
func (l UniformLink) Latency(r *rng.RNG, _, _ NodeID) float64 {
	if l.MaxDelay <= l.MinDelay {
		return l.MinDelay
	}
	return r.UniformIn(l.MinDelay, l.MaxDelay)
}

// Drop implements LinkModel.
func (l UniformLink) Drop(r *rng.RNG, _, _ NodeID) bool { return r.Bool(l.LossProb) }

// EventEngine is the event-driven simulation engine.
type EventEngine struct {
	rng *rng.RNG
	// arena stores the nodes densely by ID (same layout as the cycle
	// engine); handlers is the parallel dense slice of per-node handlers.
	arena    nodeArena
	handlers []Handler
	now      float64
	seq      uint64
	queue    eventHeap
	link     LinkModel
	filter   DeliveryFilter

	delivered, dropped int64
}

// NewEventEngine creates an event-driven engine with the given link model
// (nil means zero-latency, lossless links).
func NewEventEngine(seed uint64, link LinkModel) *EventEngine {
	if link == nil {
		link = UniformLink{}
	}
	return &EventEngine{
		rng:  rng.New(seed),
		link: link,
	}
}

// Now returns the current simulated time.
func (e *EventEngine) Now() float64 { return e.now }

// AdvanceTo moves the clock forward to t even when no event is due — time
// never moves backwards. RunUntil leaves the clock at the last delivered
// event, so external schedulers (the scenario runner's scripted events)
// advance it explicitly to make their actions happen at the scripted time:
// a timer armed after a revive must count from the revive's time, not from
// whenever the queue last had traffic.
func (e *EventEngine) AdvanceTo(t float64) {
	if t > e.now {
		e.now = t
	}
}

// RNG exposes the engine's random stream.
func (e *EventEngine) RNG() *rng.RNG { return e.rng }

// Delivered returns the count of delivered messages.
func (e *EventEngine) Delivered() int64 { return e.delivered }

// Dropped returns the count of messages lost in transit.
func (e *EventEngine) Dropped() int64 { return e.dropped }

// AddNode creates a live node whose messages are processed by h.
func (e *EventEngine) AddNode(h Handler) *Node {
	n := e.arena.alloc()
	e.arena.setAlive(n, true)
	n.RNG = e.rng.Split()
	e.handlers = append(e.handlers, h)
	return n
}

// Node returns the node with the given ID, or nil.
func (e *EventEngine) Node(id NodeID) *Node { return e.arena.at(id) }

// Crash marks a node dead; queued messages to it will be dropped on
// delivery, exactly like a real crashed host. That includes its own
// pending timers, so a later Revive must re-arm any periodic behaviour.
func (e *EventEngine) Crash(id NodeID) {
	if n := e.arena.at(id); n != nil {
		e.arena.setAlive(n, false)
	}
}

// Revive marks a crashed node live again (a host restart). The node's
// timers died with it — callers model the restart by scheduling fresh
// ones with SendAfter.
func (e *EventEngine) Revive(id NodeID) {
	if n := e.arena.at(id); n != nil {
		e.arena.setAlive(n, true)
	}
}

// SetLink swaps the link model in force for subsequent Sends — the hook
// behind scripted latency spikes and loss storms. Messages already in
// flight keep the latency they were assigned; nil restores the default
// zero-latency lossless link.
func (e *EventEngine) SetLink(l LinkModel) {
	if l == nil {
		l = UniformLink{}
	}
	e.link = l
}

// SetDeliveryFilter installs (or, with nil, removes) the partition filter.
// It is consulted at delivery time, so messages in flight across a fresh
// partition are lost and delivery resumes for messages arriving after the
// heal. Self-messages (timers) are never filtered.
func (e *EventEngine) SetDeliveryFilter(f DeliveryFilter) { e.filter = f }

// LiveNodes returns all live nodes in ID order.
func (e *EventEngine) LiveNodes() []*Node {
	return e.AppendLiveNodes(make([]*Node, 0, e.arena.len()))
}

// AppendLiveNodes appends all live nodes in ID order onto buf and returns
// the extended slice — the scratch-reusing variant for repeated scans.
func (e *EventEngine) AppendLiveNodes(buf []*Node) []*Node {
	for ci := range e.arena.chunks {
		c := e.arena.chunks[ci]
		for i := range c {
			if c[i].Alive {
				buf = append(buf, &c[i])
			}
		}
	}
	return buf
}

// Send queues msg from src to dst, subject to the link model.
func (e *EventEngine) Send(src, dst NodeID, msg any) {
	if e.link.Drop(e.rng, src, dst) {
		e.dropped++
		return
	}
	at := e.now + e.link.Latency(e.rng, src, dst)
	e.push(at, src, dst, msg)
}

// SendAfter queues msg to dst after the given delay with no loss — used for
// timers (dst == src) and for reliable local self-messages. Timer events
// are never blocked by the delivery filter.
func (e *EventEngine) SendAfter(delay float64, dst NodeID, msg any) {
	e.push(e.now+delay, dst, dst, msg)
}

func (e *EventEngine) push(at float64, src, dst NodeID, msg any) {
	e.seq++
	e.queue.push(event{at: at, seq: e.seq, from: src, to: dst, msg: msg})
}

// Step delivers the next event. It reports false when the queue is empty.
func (e *EventEngine) Step() bool {
	if len(e.queue) == 0 {
		return false
	}
	ev := e.queue.pop()
	e.now = ev.at
	n := e.arena.at(ev.to)
	if n == nil || !n.Alive || e.filter.blocked(ev.from, ev.to) {
		e.dropped++
		return true
	}
	if h := e.handlers[ev.to]; h != nil {
		e.delivered++
		h.Deliver(n, ev.msg, e)
	}
	return true
}

// RunUntil processes events until the queue drains, the time horizon is
// reached, or maxEvents deliveries occur. It returns the number of events
// processed.
func (e *EventEngine) RunUntil(horizon float64, maxEvents int64) int64 {
	var count int64
	for count < maxEvents && len(e.queue) > 0 && e.queue[0].at <= horizon {
		e.Step()
		count++
	}
	return count
}
