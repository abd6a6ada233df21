// Package sim models the engine surface the analyzers match structurally:
// just enough of Node, ApplyContext, Proposals and Engine for the fixture
// packages to compile. The analyzers identify these types by package NAME
// and type name, so this stand-in exercises exactly the same code paths as
// the real internal/sim.
package sim

// NodeID identifies a node.
type NodeID int32

// Message is one delivered exchange message.
type Message struct {
	From, To NodeID
	Slot     int32
	Data     any
}

// Node is one simulated node.
type Node struct {
	ID    NodeID
	Alive bool
}

// String renders the node.
func (n *Node) String() string { return "node" }

// Protocol returns the protocol instance in a slot.
func (n *Node) Protocol(slot int) any { return nil }

// ApplyContext is the restricted per-node context of the apply phase.
type ApplyContext struct {
	engine *Engine
}

// Forward sends the payload being handled as its follow-up.
func (ax *ApplyContext) Forward(to NodeID, slot int, data any) {}

// Cycle returns the current cycle.
func (ax *ApplyContext) Cycle() int64 { return 0 }

// Payloads returns the worker's payload cache.
func (ax *ApplyContext) Payloads() *PayloadCache { return nil }

// Proposals is the restricted per-node context of the propose phase.
type Proposals struct{}

// PayloadCache is a worker's private front of the free lists.
type PayloadCache struct{}

// FreeList is a typed payload free list (home-pool back-pointer fields of
// this type are exempt from the Recycle reset rule).
type FreeList[T any] struct{ items []*T }

// Get returns a recycled or fresh payload.
func (f *FreeList[T]) Get(c *PayloadCache) *T { return new(T) }

// Put returns a payload to the list.
func (f *FreeList[T]) Put(c *PayloadCache, p *T) { f.items = append(f.items, p) }

// Send proposes a payload for delivery; ownership transfers.
func (px *Proposals) Send(to NodeID, slot int, data any) {}

// EngineStats is a read-only snapshot of engine counters.
type EngineStats struct {
	Cycle int64
	Live  int
}

// Engine drives the simulation.
type Engine struct {
	Cycles int64
	nodes  []*Node
}

// Stats snapshots the counters.
func (e *Engine) Stats() EngineStats { return EngineStats{Cycle: e.Cycles} }

// LiveCount counts live nodes.
func (e *Engine) LiveCount() int { return len(e.nodes) }

// Node returns a node by id.
func (e *Engine) Node(id NodeID) *Node { return nil }

// Crash kills a node.
func (e *Engine) Crash(id NodeID) {}

// RNG draws from the engine stream.
func (e *Engine) RNG() int64 { return 0 }

// dispatch has the handler shape (an *ApplyContext parameter) but lives in
// the package defining ApplyContext, so the nodelocal analyzer must exempt
// it: this is the trusted plumbing side of the contract.
func dispatch(n *Node, ax *ApplyContext, e *Engine) {
	e.Cycles++
	_ = n
	_ = ax
}
