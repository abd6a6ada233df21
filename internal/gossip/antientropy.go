// Package gossip implements the epidemic protocols the paper builds its
// coordination service on: push-pull anti-entropy (Demers et al.) and
// gossip-based averaging aggregation (Jelasity et al.). Both run on the
// cycle-driven simulator and obtain partners from a PeerSampler (Newscast
// or a static topology) in a configurable protocol slot.
// Exchange is the one anti-entropy implementation: AntiEntropy runs it on
// a value held in a field, core.OptNode on its solver's best point.
//
// Every protocol in this package speaks the engine's two-phase exchange
// contract (sim.Proposer/Receiver/Undeliverable): partners are sampled
// during the parallel propose phase, exchanges resolve atomically during
// the deterministic apply phase, and every message flows through the
// engine's mailbox — so delivery filters (network partitions) and the
// Delivered/Dropped counters apply to all of them.
package gossip

import (
	"reflect"
	"sync"

	"gossipopt/internal/overlay"
	"gossipopt/internal/sim"
)

// Exchange runs one anti-entropy diffusion of T values after Demers et
// al., and is its network-wide setting: every node's Holder points at the
// same Exchange, written once before the first cycle and only read by
// handlers. It alone knows the exchange rule, push-pull as the paper
// runs it. An initiator samples one partner and mails it its value, or an
// empty ask when it holds none. The partner adopts a strictly better
// pushed value, or answers in the leg it received with its own value if
// that is strictly better or the request carried none, and the initiator
// offers itself the reply. Both sides end with the better value. A leg
// carries a snapshot, which may be stale when several exchanges touch one
// node in a cycle; holders adopt only strictly better values, so a stale
// offer is refused and diffusion is at worst one round slower.
type Exchange[T any] struct {
	// Slot is the protocol slot holding the node's PeerSampler.
	Slot int
	// SelfSlot is the protocol slot holding the exchange's holders.
	SelfSlot int
	// DropProb, when positive, loses each initiated exchange with this
	// probability, modelling message loss (paper §3.3.4: lost messages
	// only slow diffusion down).
	DropProb float64
}

// Holder is one node's side of an Exchange, called node-locally.
type Holder[T any] interface {
	// Load overwrites *dst in full with the held value, reusing dst's
	// buffers, and reports whether a value is held.
	Load(dst *T) bool
	// Offer hands the holder a peer's value and reports whether it was
	// adopted.
	Offer(v T) bool
	// Compare ranks the held value against a peer's v: positive when the
	// held value is strictly better, negative when v is strictly better
	// or nothing is held, zero otherwise.
	Compare(v T) int
}

// Counters is an Exchange's accounting for one holder: initiations,
// counted once a partner is sampled; initiations lost to the drop draw or
// an undeliverable request (a lost reply loses only the pull half and is
// not counted); and remote values adopted on either leg.
type Counters struct{ Exchanges, LostExchanges, Adoptions int64 }

// legPools maps each instantiated leg type to its process-wide free list:
// a generic payload has no package-level pool per instantiation.
var legPools sync.Map

// legPool returns the free list of leg type L, creating it on first use.
func legPool[L any]() *sim.FreeList[L] {
	key := reflect.TypeOf((*L)(nil))
	if v, ok := legPools.Load(key); ok {
		return v.(*sim.FreeList[L])
	}
	v, _ := legPools.LoadOrStore(key, new(sim.FreeList[L]))
	return v.(*sim.FreeList[L])
}

// aeReq is the initiating leg that pushes a value, aeAsk the one of a node
// that holds none, and aeVal the reply leg. All three share aeReq's shape
// and pool: a partner whose value wins answers in the leg it received,
// converted, so every exchange costs one leg. Recycle keeps V, which the
// sender's Load overwrites in full, so its buffers stay warm; the pool is
// looked up, not carried, so a leg is as small as its value.
type (
	aeReq[T any] struct{ V T }
	aeAsk[T any] struct{ V T }
	aeVal[T any] struct{ V T }
)

// Recycle implements sim.Recyclable.
func (r *aeReq[T]) Recycle(c *sim.PayloadCache) { legPool[aeReq[T]]().Put(c, r) }

// Recycle implements sim.Recyclable.
func (a *aeAsk[T]) Recycle(c *sim.PayloadCache) { legPool[aeReq[T]]().Put(c, (*aeReq[T])(a)) }

// Recycle implements sim.Recyclable.
func (v *aeVal[T]) Recycle(c *sim.PayloadCache) { legPool[aeReq[T]]().Put(c, (*aeReq[T])(v)) }

// Propose initiates one exchange for h, drawing from n.RNG only to sample
// the partner and, when DropProb > 0, to lose the exchange.
func (x *Exchange[T]) Propose(h Holder[T], c *Counters, n *sim.Node, px *sim.Proposals) {
	sampler, ok := n.Protocol(x.Slot).(overlay.PeerSampler)
	if !ok {
		return
	}
	peerID, ok := sampler.SamplePeer(n.RNG)
	if !ok {
		return
	}
	c.Exchanges++
	if x.DropProb > 0 && n.RNG.Bool(x.DropProb) {
		c.LostExchanges++
		return
	}
	req := legPool[aeReq[T]]().Get(px.Payloads())
	var leg any = (*aeAsk[T])(req)
	if h.Load(&req.V) {
		leg = req
	}
	px.Send(peerID, x.SelfSlot, leg)
}

// Receive settles a leg addressed to h.
func (x *Exchange[T]) Receive(h Holder[T], c *Counters, ax *sim.ApplyContext, msg sim.Message) {
	switch m := msg.Data.(type) {
	case *aeReq[T]:
		switch r := h.Compare(m.V); {
		case r < 0 && h.Offer(m.V):
			c.Adoptions++
		case r > 0 && h.Load(&m.V):
			ax.Forward(msg.From, x.SelfSlot, (*aeVal[T])(m))
		}
	case *aeAsk[T]:
		if h.Load(&m.V) {
			ax.Forward(msg.From, x.SelfSlot, (*aeVal[T])(m))
		}
	case *aeVal[T]:
		if h.Offer(m.V) {
			c.Adoptions++
		}
	}
}

// Undelivered counts an initiating leg the engine could not deliver (dead
// or unreachable partner) as a lost exchange.
func (x *Exchange[T]) Undelivered(c *Counters, msg sim.Message) {
	switch msg.Data.(type) {
	case *aeReq[T], *aeAsk[T]:
		c.LostExchanges++
	}
}

// AntiEntropy is the field-backed Holder: it keeps the node's value in a
// field and ranks values by Better. With T a (position, fitness) pair and
// Better comparing fitness it is the paper's §3.3.3 diffusion, which
// core.OptNode runs with its solver as the holder. T travels by
// assignment, so Load and Offer share what a T references with the legs
// carrying it: T should be a value type.
type AntiEntropy[T any] struct {
	// Exchange is the network-wide exchange, shared by every node.
	Exchange *Exchange[T]
	// Better reports whether a is strictly better than b.
	Better func(a, b T) bool

	local T
	has   bool

	Counters
}

var (
	_ sim.Proposer      = (*AntiEntropy[int])(nil)
	_ sim.Receiver      = (*AntiEntropy[int])(nil)
	_ sim.Undeliverable = (*AntiEntropy[int])(nil)
)

// Local returns the node's current value and whether one is set.
func (a *AntiEntropy[T]) Local() (T, bool) { return a.local, a.has }

// SetLocal replaces the node's value unconditionally (initialization).
func (a *AntiEntropy[T]) SetLocal(v T) {
	a.local = v
	a.has = true
}

// Load implements Holder.
func (a *AntiEntropy[T]) Load(dst *T) bool {
	*dst = a.local
	return a.has
}

// Offer implements Holder: a candidate value is adopted only if the node
// has none or the candidate is strictly better. It reports whether
// adoption happened.
func (a *AntiEntropy[T]) Offer(v T) bool {
	if !a.has || a.Better(v, a.local) {
		a.local = v
		a.has = true
		return true
	}
	return false
}

// Compare implements Holder.
func (a *AntiEntropy[T]) Compare(v T) int {
	switch {
	case a.has && a.Better(a.local, v):
		return 1
	case !a.has || a.Better(v, a.local):
		return -1
	}
	return 0
}

// Propose implements sim.Proposer: one exchange per cycle.
func (a *AntiEntropy[T]) Propose(n *sim.Node, px *sim.Proposals) {
	a.Exchange.Propose(a, &a.Counters, n, px)
}

// Receive implements sim.Receiver.
func (a *AntiEntropy[T]) Receive(n *sim.Node, ax *sim.ApplyContext, msg sim.Message) {
	a.Exchange.Receive(a, &a.Counters, ax, msg)
}

// Undelivered implements sim.Undeliverable.
func (a *AntiEntropy[T]) Undelivered(n *sim.Node, ax *sim.ApplyContext, msg sim.Message) {
	a.Exchange.Undelivered(&a.Counters, msg)
}
