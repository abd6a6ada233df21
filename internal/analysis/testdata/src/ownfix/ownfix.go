// Package ownfix is the ownership-analyzer fixture: use-after-send in its
// direct, aliased and double-send forms, the renewal and scalar escapes,
// Recycle methods leaky, clean and forgetful of Put, wholesale resets that
// carry a field back and generic legs that keep their value, and handlers
// that retain, forward or swap what they received.
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
func direct(ax *sim.ApplyContext, to sim.NodeID) {
	p := &Payload{N: 1}
	ax.Send(to, 0, p)
	p.N = 2 // want "used after Send"
}

// aliased reaches the sent payload through a second name.
func aliased(ax *sim.ApplyContext, to sim.NodeID) {
	p := &Payload{}
	q := p
	ax.Send(to, 0, p)
	q.Next = nil // want "used after Send"
}

// double sends the same pointer twice: the second send double-recycles.
func double(px *sim.Proposals, to sim.NodeID) {
	p := &Payload{}
	px.Send(to, 0, p)
	px.Send(to, 1, p) // want "used after Send"
}

// renewed replaces the variable with a fresh payload between sends: legal.
func renewed(ax *sim.ApplyContext, to sim.NodeID) {
	p := &Payload{}
	ax.Send(to, 0, p)
	p = &Payload{}
	ax.Send(to, 1, p)
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

var lastSeen *Payload

// Holder is a protocol whose state includes a buffer.
type Holder struct {
	buf  []byte
	last *Payload
}

// Receive swaps buffers with a reply it drew from the free list and has
// not sent yet: the reply's buffer takes the new state, the old state
// leaves in the reply. Both slices have one owner throughout: clean. What
// it received is only read.
func (h *Holder) Receive(n *sim.Node, ax *sim.ApplyContext, msg sim.Message) {
	switch p := msg.Data.(type) {
	case *Payload:
		rep := pool.Get(ax.Payloads())
		out := rep.Buf[:0]
		rep.Buf = h.buf
		h.buf = append(out, p.Buf...)
		ax.Send(msg.From, 0, rep)
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

// forward moves the received slice into a different payload through a
// local: not flagged, because the rule does not follow stores into locals
// (sim's ownership contract still forbids it: a net model may delay rep).
func forward(ax *sim.ApplyContext, msg sim.Message) {
	p := msg.Data.(*Payload)
	rep := &Payload{}
	rep.Buf = p.Buf
	ax.Send(msg.From, 0, rep)
}
