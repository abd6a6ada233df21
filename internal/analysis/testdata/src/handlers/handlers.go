// Package handlers is the nodelocal-analyzer fixture: protocol handlers
// built against the modeled sim package, some honoring the node-local
// contract and some reaching where handlers must not.
package handlers

import "internal/sim"

// maxPeers is read-only package state: reads stay legal (the free-list
// pools are exactly this shape).
var maxPeers = 8

// deliveries is written below — the violation.
var deliveries int

type Counter struct {
	seen int
}

// Receive stays node-local: receiver state, own node (through an alias),
// the context, the message.
func (c *Counter) Receive(n *sim.Node, ax *sim.ApplyContext, msg sim.Message) {
	c.seen++
	self := n
	if self.Alive && c.seen < maxPeers {
		ax.Forward(msg.From, int(msg.Slot), msg.Data)
	}
}

// Undelivered writes package-level state from a parallel worker.
func (c *Counter) Undelivered(n *sim.Node, ax *sim.ApplyContext, msg sim.Message) {
	deliveries++ // want "writes package-level state"
}

// Propose obtains a *Node from a call: reaching across the shard.
func (c *Counter) Propose(n *sim.Node, px *sim.Proposals) {
	_ = lookup(n.ID) // want "handler obtains a"
}

func lookup(id sim.NodeID) *sim.Node { return nil }

type EngineHolder struct {
	eng *sim.Engine
}

// Receive reaches the engine through a struct field.
func (h *EngineHolder) Receive(n *sim.Node, ax *sim.ApplyContext, msg sim.Message) {
	h.eng.Crash(msg.From) // want "references the engine"
}

type Legacy struct{}

// Receive takes the whole engine — the pre-sharding signature the dynamic
// protocol match would silently ignore.
func (l *Legacy) Receive(n *sim.Node, e *sim.Engine, msg sim.Message) { // want "legacy handler shape"
	_ = n
}

type Buddy struct {
	other *sim.Node
}

// Receive dereferences a node it was not invoked on.
func (b *Buddy) Receive(n *sim.Node, ax *sim.ApplyContext, msg sim.Message) {
	b.other.Alive = false // want "touches a node other than its own"
}
