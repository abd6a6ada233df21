// Package ownfix is the ownership-analyzer fixture: use-after-send in its
// direct, aliased and double-send forms, the renewal and scalar escapes,
// Recycle methods leaky, clean and forgetful of Put, wholesale resets that
// carry a field back and generic legs that keep their value, and handlers
// and helpers that retain, copy, store into another payload or Forward
// what they received.
package ownfix

import "internal/sim"

type Payload struct {
	N    int
	Buf  []byte
	Next *Payload
}

// Recycle resets every reference field and returns the payload to its
// pool through the cache it was handed: clean.
func (p *Payload) Recycle(c *sim.PayloadCache) {
	p.N = 0
	p.Buf = p.Buf[:0]
	p.Next = nil
	pool.Put(c, p)
}

// direct keeps mutating a payload it no longer owns.
func direct(px *sim.Proposals, to sim.NodeID) {
	p := &Payload{N: 1}
	px.Send(to, 0, p)
	p.N = 2 // want "used after Send"
}

// aliased reaches the sent payload through a second name.
func aliased(px *sim.Proposals, to sim.NodeID) {
	p := &Payload{}
	q := p
	px.Send(to, 0, p)
	q.Next = nil // want "used after Send"
}

// double sends the same pointer twice: the second send double-recycles.
func double(px *sim.Proposals, to sim.NodeID) {
	p := &Payload{}
	px.Send(to, 0, p)
	px.Send(to, 1, p) // want "used after Send"
}

// renewed replaces the variable with a fresh payload between sends: legal.
func renewed(px *sim.Proposals, to sim.NodeID) {
	p := &Payload{}
	px.Send(to, 0, p)
	p = &Payload{}
	px.Send(to, 1, p)
}

// scalar payloads have value semantics; reuse is harmless.
func scalar(px *sim.Proposals, to sim.NodeID) {
	n := 42
	px.Send(to, 0, n)
	_ = n
}

type Leaky struct {
	ID   int64
	Refs []*Payload
	Peer *Payload
}

// Recycle forgets Peer: the recycled payload pins last cycle's data.
func (l *Leaky) Recycle(c *sim.PayloadCache) { // want "leaves reference field Peer unreset"
	l.Refs = l.Refs[:0]
	leakyPool.Put(c, l)
}

var leakyPool sim.FreeList[Leaky]

type Blanked struct {
	Data []byte
}

var blankedPool sim.FreeList[Blanked]

// Recycle by wholesale reset is clean.
func (b *Blanked) Recycle(c *sim.PayloadCache) {
	*b = Blanked{}
	blankedPool.Put(c, b)
}

type Dropped struct {
	Data []byte
}

var droppedPool sim.FreeList[Dropped]

// Recycle resets but hands the payload to Put without the cache it was
// given (or, just as well, to nothing at all): a nil cache drops it, so
// the pool never sees a payload come back.
func (d *Dropped) Recycle(c *sim.PayloadCache) { // want "never hands its receiver and cache"
	d.Data = d.Data[:0]
	droppedPool.Put(nil, d)
}

type Homed struct {
	Buf  []byte
	home *sim.FreeList[Homed]
}

// Recycle keeps the home-pool back-pointer across a field-wise reset:
// clean — the exemption for *sim.FreeList fields, which must survive so
// the payload can find its pool on the next recycle.
func (h *Homed) Recycle(c *sim.PayloadCache) {
	h.Buf = h.Buf[:0]
	h.home.Put(c, h)
}

type HomedLeaky struct {
	Peer *Payload
	home *sim.FreeList[HomedLeaky]
}

// Recycle keeps home (exempt) but also forgets Peer: still flagged — the
// exemption is per-field, not a blanket pass for pooled payloads.
func (h *HomedLeaky) Recycle(c *sim.PayloadCache) { // want "leaves reference field Peer unreset"
	h.home.Put(c, h)
}

type CarriedBack struct {
	Buf  []byte
	Peer *Payload
}

var carriedPool sim.FreeList[CarriedBack]

// Recycle resets wholesale but carries Peer back into the literal: the
// reset is not a reset for Peer.
func (b *CarriedBack) Recycle(c *sim.PayloadCache) { // want "leaves reference field Peer unreset"
	*b = CarriedBack{Buf: b.Buf[:0], Peer: b.Peer}
	carriedPool.Put(c, b)
}

type CarriedLocal struct {
	Peer *Payload
}

var carriedLocalPool sim.FreeList[CarriedLocal]

// Recycle carries Peer back through a local read from the receiver.
func (l *CarriedLocal) Recycle(c *sim.PayloadCache) { // want "leaves reference field Peer unreset"
	peer := l.Peer
	*l = CarriedLocal{peer}
	carriedLocalPool.Put(c, l)
}

type Leg[T any] struct {
	V    T
	Buf  []byte
	Peer *Payload
	home *sim.FreeList[Leg[T]]
}

// Recycle keeps the home pointer through a local and the type-parameter
// value, and empties Buf in the literal: clean — Load overwrites V before
// every send, and home references only the pool.
func (l *Leg[T]) Recycle(c *sim.PayloadCache) {
	home := l.home
	*l = Leg[T]{V: l.V, Buf: l.Buf[:0], home: home}
	home.Put(c, l)
}

type LeakyLeg[T any] struct {
	V    T
	Peer *Payload
	home *sim.FreeList[LeakyLeg[T]]
}

// Recycle keeps V and home (both exempt) but carries Peer too: flagged.
func (l *LeakyLeg[T]) Recycle(c *sim.PayloadCache) { // want "leaves reference field Peer unreset"
	*l = LeakyLeg[T]{V: l.V, Peer: l.Peer, home: l.home}
	l.home.Put(c, l)
}

var pool sim.FreeList[Payload]

// Twin has Payload's shape. Its Recycle files the header in Payload's
// list, converted: still a Put of the receiver — clean.
type Twin Payload

// Recycle implements sim.Recyclable.
func (t *Twin) Recycle(c *sim.PayloadCache) {
	t.N, t.Buf, t.Next = 0, t.Buf[:0], nil
	pool.Put(c, (*Payload)(t))
}

var lastSeen *Payload

// Holder is a protocol whose state includes a buffer and the payload it
// proposes next.
type Holder struct {
	buf  []byte
	last *Payload
	next *Payload
}

// Receive copies what it received into its state and into a payload of its
// own, for its next proposal: clean. Only the appended elements come from
// the received payload.
func (h *Holder) Receive(n *sim.Node, ax *sim.ApplyContext, msg sim.Message) {
	switch p := msg.Data.(type) {
	case *Payload:
		next := pool.Get(ax.Payloads())
		next.Buf = append(sized(next.Buf, len(p.Buf)), p.Buf...)
		h.buf = append(h.buf[:0], p.Buf...)
		h.next = next
	case *Leaky:
		h.last = p.Peer // want "retains received payload p"
	}
}

// Undelivered keeps the payload, a slice of it and a reslice of it: each
// is recycled under the node at cycle end.
func (h *Holder) Undelivered(n *sim.Node, ax *sim.ApplyContext, msg sim.Message) {
	p, ok := msg.Data.(*Payload)
	if !ok {
		return
	}
	h.last = p        // want "retains received payload p"
	h.buf = p.Buf     // want "retains received payload p"
	h.buf = p.Buf[:1] // want "retains received payload p"
	lastSeen = p.Next // want "retains received payload p"
	h.buf = append(h.buf[:0], p.Buf...)
	p.N = len(h.buf)
}

// sized returns buf emptied, or a new buffer when buf cannot hold n: it
// may return its argument, so what it is given is what a store takes.
func sized(buf []byte, n int) []byte {
	if cap(buf) < n {
		return make([]byte, 0, n)
	}
	return buf[:0]
}

// Forwarder keeps the received buffer in a payload of its own, for its
// next proposal, and leaves it in the request too: the request's Recycle
// returns the buffer to the free list while a net model may still hold the
// proposal.
type Forwarder struct {
	state []byte
	next  *Payload
}

// Receive forwards the received slice through a local payload, whatever
// hands it on.
func (f *Forwarder) Receive(n *sim.Node, ax *sim.ApplyContext, msg sim.Message) {
	p := msg.Data.(*Payload)
	next := pool.Get(ax.Payloads())
	next.Buf = p.Buf                         // want "forwards received payload p"
	next.Buf = sized(p.Buf, len(f.state))    // want "forwards received payload p"
	next.Buf = append(p.Buf[:0], f.state...) // want "forwards received payload p"
	next.Next = &Payload{Next: p}            // want "forwards received payload p"
	next.Next = &Payload{Buf: p.Buf}         // want "forwards received payload p"
	f.next = next
}

// Mover fills its next proposal in the buffer the request brought and sets
// the request's field to nil. No store into another payload is excused:
// the reply that needs the request's memory is the request, forwarded (see
// Replier).
type Mover struct {
	state []byte
	next  *Payload
}

// Receive moves the received buffer into its next proposal.
func (m *Mover) Receive(n *sim.Node, ax *sim.ApplyContext, msg sim.Message) {
	p, ok := msg.Data.(*Payload)
	if !ok {
		return
	}
	next := pool.Get(ax.Payloads())
	next.Buf = append(sized(p.Buf, len(m.state)), m.state...) // want "forwards received payload p"
	p.Buf = nil
	m.next = next
}

// Replier answers in the request itself, as Newscast does: it overwrites
// the request's buffer and forwards the request, converted to the reply
// type, directly or through a local — the forward rule: clean, but for a
// use after the Forward.
type Replier struct{ state []byte }

// Receive forwards the received payload as its reply.
func (r *Replier) Receive(n *sim.Node, ax *sim.ApplyContext, msg sim.Message) {
	switch p := msg.Data.(type) {
	case *Payload:
		p.Buf = append(sized(p.Buf, len(r.state)), r.state...)
		ax.Forward(msg.From, 0, (*Twin)(p))
	case *Twin:
		rep := (*Payload)(p)
		rep.N = 1
		ax.Forward(msg.From, 0, rep)
		rep.N = 2 // want "used after Send or Forward"
	}
}

// Undelivered forwards the bounced payload converted and then writes it,
// and forwards a payload it did not receive: both are flagged.
func (r *Replier) Undelivered(n *sim.Node, ax *sim.ApplyContext, msg sim.Message) {
	p, ok := msg.Data.(*Payload)
	if !ok {
		return
	}
	ax.Forward(msg.From, 0, (*Twin)(p))
	p.N = 1                                          // want "used after Send or Forward"
	ax.Forward(msg.From, 1, pool.Get(ax.Payloads())) // want "did not receive"
}

// answer is a request-leg helper that takes the received payload as a
// parameter, as Newscast.exchange does: it keeps part of it as node state
// and forwards the rest without setting the field to nil, and moving the
// payload pointer itself out is never a move.
func (m *Mover) answer(p *Payload, c *sim.PayloadCache) *Payload {
	m.state = p.Buf[:1] // want "retains received payload p"
	rep := pool.Get(c)
	rep.Next = p.Next         // want "forwards received payload p"
	rep.Buf = sized(p.Buf, 8) // want "forwards received payload p"
	rep.Next = p              // want "forwards received payload p"
	p.Buf = p.Buf[:0]
	return rep
}
