// Package gossip implements the epidemic protocols from Demers et al. that
// the paper builds its coordination service on: anti-entropy exchanges
// (push, pull, push-pull), rumor mongering with a stop probability, and
// gossip-based averaging aggregation (Jelasity et al.). All protocols run on
// the cycle-driven simulator and obtain partners from a PeerSampler
// (Newscast or a static topology) in a configurable protocol slot.
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

// Mode selects the anti-entropy exchange direction.
type Mode int

// Exchange directions, after Demers et al.: the originator pushes its state,
// pulls the peer's state, or both.
const (
	Push Mode = iota
	Pull
	PushPull
)

// String returns the conventional name of the mode.
func (m Mode) String() string {
	switch m {
	case Push:
		return "push"
	case Pull:
		return "pull"
	case PushPull:
		return "push-pull"
	}
	return "unknown"
}

// AntiEntropy diffuses the "best" value of type T through periodic pairwise
// exchanges. Better defines a strict partial order; both parties converge to
// the better of their two values, so the global best is monotone and
// eventually reaches every live node.
//
// This is the paper's coordination service in its general form: with T
// bound to a (position, fitness) pair and Better comparing fitness it is
// exactly the global-optimum diffusion algorithm of Section 3.3.3.
//
// AntiEntropy speaks the two-phase exchange contract and is node-local in
// both phases: the initiating message carries a propose-time snapshot of
// the initiator's value (push/push-pull), and the contacted peer answers
// through a reply message carrying its own. Snapshots may be a cycle
// stale when several exchanges touch one node in the same cycle, but
// Offer adopts only strictly-better values, so a stale offer is rejected
// rather than clobbering fresher state — monotone convergence is
// unaffected, diffusion is at worst one round slower.
type AntiEntropy[T any] struct {
	// Slot is the protocol slot holding the node's PeerSampler.
	Slot int
	// SelfSlot is the protocol slot where AntiEntropy instances live.
	SelfSlot int
	// Mode selects push, pull or push-pull (the paper uses push-pull).
	Mode Mode
	// Better reports whether a is strictly better than b.
	Better func(a, b T) bool
	// DropProb, when positive, loses each initiated exchange with this
	// probability, modelling message loss (paper §3.3.4: lost messages
	// only slow diffusion down).
	DropProb float64

	local T
	has   bool

	// Sent counts attempted initiations — incremented as soon as a partner
	// is sampled, before drop or liveness checks, so the counter is
	// comparable across protocols. Lost counts initiations that died in
	// transit (DropProb, dead peer, or network partition). Updated counts
	// adoptions of a remote value (on either side).
	Sent, Lost, Updated int64

	// pools caches the shared free lists for this T instantiation, fetched
	// lazily from the process-global registry on first use (node-local
	// state: only the node's own worker touches it).
	pools *aePools[T]
}

// aePools bundles the payload free lists of one instantiation of the
// generic exchange payloads. A generic payload cannot draw from a plain
// package-level pool (there is no package variable per T), so every
// AntiEntropy[T] of the same T shares one aePools[T] through a
// process-global registry keyed by the instantiated type.
type aePools[T any] struct {
	req sim.FreeList[aeReq[T]]
	val sim.FreeList[aeVal[T]]
}

// aePoolRegistry maps each instantiated *aePools[T] type to its shared
// singleton.
var aePoolRegistry sync.Map

// aePoolsFor returns the shared pools for T, creating them on first use.
func aePoolsFor[T any]() *aePools[T] {
	key := reflect.TypeOf((*aePools[T])(nil))
	if v, ok := aePoolRegistry.Load(key); ok {
		return v.(*aePools[T])
	}
	v, _ := aePoolRegistry.LoadOrStore(key, &aePools[T]{})
	return v.(*aePools[T])
}

// aeReq is the exchange proposal: the initiator's mode plus — for push and
// push-pull — a snapshot of its value at propose time. home points back to
// the free list the payload was drawn from; Recycle keeps it across the
// reset (the documented back-pointer exemption to the reset-everything
// rule) so the payload returns to the right instantiation's pool.
type aeReq[T any] struct {
	Mode Mode
	V    T
	Has  bool
	home *sim.FreeList[aeReq[T]]
}

// Recycle implements sim.Recyclable.
func (r *aeReq[T]) Recycle(c *sim.PayloadCache) {
	home := r.home
	*r = aeReq[T]{home: home}
	home.Put(c, r)
}

// aeVal is the reply leg: the contacted peer's value, offered back to the
// initiator (the pull half of pull and push-pull). Pooled like aeReq.
type aeVal[T any] struct {
	V    T
	home *sim.FreeList[aeVal[T]]
}

// Recycle implements sim.Recyclable.
func (v *aeVal[T]) Recycle(c *sim.PayloadCache) {
	home := v.home
	*v = aeVal[T]{home: home}
	home.Put(c, v)
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

// Offer merges a candidate value: it is adopted only if the node has none
// or the candidate is strictly better. It reports whether adoption
// happened.
func (a *AntiEntropy[T]) Offer(v T) bool {
	if !a.has || a.Better(v, a.local) {
		a.local = v
		a.has = true
		a.Updated++
		return true
	}
	return false
}

// Propose implements sim.Proposer: sample a partner from the node's own
// view and propose one anti-entropy exchange.
func (a *AntiEntropy[T]) Propose(n *sim.Node, px *sim.Proposals) {
	sampler, ok := n.Protocol(a.Slot).(overlay.PeerSampler)
	if !ok {
		return
	}
	peerID, ok := sampler.SamplePeer(n.RNG)
	if !ok {
		return
	}
	a.Sent++
	if a.DropProb > 0 && n.RNG.Bool(a.DropProb) {
		a.Lost++
		return // lost in transit; diffusion merely slows down
	}
	if a.pools == nil {
		a.pools = aePoolsFor[T]()
	}
	req := a.pools.req.Get(px.Payloads())
	req.Mode, req.home = a.Mode, &a.pools.req
	if a.Mode != Pull && a.has {
		req.V, req.Has = a.local, true
	}
	px.Send(peerID, a.SelfSlot, req)
}

// Receive implements sim.Receiver, node-locally. On the initiating leg the
// contacted peer q adopts the pushed value if it is better (push,
// push-pull) and, when the initiator wants the pull half and q holds
// something the push did not already cover, replies with its own value; on
// the reply leg the initiator offers the replied value to itself. Both
// sides end with the better value, exactly as in an inline exchange.
func (a *AntiEntropy[T]) Receive(n *sim.Node, ax *sim.ApplyContext, msg sim.Message) {
	switch req := msg.Data.(type) {
	case *aeReq[T]:
		if req.Has {
			a.Offer(req.V)
		}
		if req.Mode == Push {
			return
		}
		// Pull / push-pull: reply only when the initiator can learn
		// something — q holds a value and the push leg did not already
		// carry one at least as good.
		if a.has && (!req.Has || a.Better(a.local, req.V)) {
			if a.pools == nil {
				a.pools = aePoolsFor[T]()
			}
			rep := a.pools.val.Get(ax.Payloads())
			rep.V, rep.home = a.local, &a.pools.val
			ax.Send(msg.From, a.SelfSlot, rep)
		}
	case *aeVal[T]:
		a.Offer(req.V)
	}
}

// Undelivered implements sim.Undeliverable: the sampled partner was dead
// or unreachable (partition), so the exchange is lost. A dead reply leg
// (one-way partition) loses only the pull half and is not a lost
// initiation, so it does not count.
func (a *AntiEntropy[T]) Undelivered(n *sim.Node, ax *sim.ApplyContext, msg sim.Message) {
	if _, initiated := msg.Data.(*aeReq[T]); initiated {
		a.Lost++
	}
}
