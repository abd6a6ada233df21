package gossip

import (
	"gossipopt/internal/overlay"
	"gossipopt/internal/sim"
)

// Average implements gossip-based averaging aggregation (Jelasity,
// Montresor & Babaoglu, ACM TOCS 2005): each cycle a node picks a random
// peer and both replace their values with the pairwise mean. The global sum
// is invariant while the empirical variance contracts exponentially, so
// every node's value converges to the network-wide average. The paper cites
// this protocol as a canonical application of peer sampling; it is also
// independently useful for estimating network size (push one 1.0 and
// average: the mean tends to 1/n).
//
// Average speaks the engine's two-phase exchange contract and is
// node-local in both phases. The exchange transfers *mass*, not values:
// the initiator p mails a snapshot of its value; the contacted peer q
// moves halfway toward it (q += d) and replies with the opposite delta,
// which p applies to itself (p -= d). Deltas make the global sum exactly
// conserved under any interleaving — when several exchanges touch one
// node in a cycle the pair may not land on the exact pairwise mean, but
// the sum invariant (what makes the protocol an aggregator) holds to the
// last bit, and the variance still contracts exponentially. If the reply
// leg dies (one-way partition, q's Undelivered fires with the delta), q
// rolls its half back, so even a half-completed exchange conserves the
// sum.
type Average struct {
	// Slot is the protocol slot of the node's PeerSampler.
	Slot int
	// SelfSlot is the protocol slot where Average instances live.
	SelfSlot int

	value float64

	// Exchanges counts initiated pairwise averaging steps; Lost counts
	// initiations that died in transit (dead peer or network partition).
	Exchanges int64
	Lost      int64
}

// avgReq is the pairwise averaging proposal, carrying the initiator's
// value at propose time. Payloads are drawn from a package-level free
// list and recycled by the engine at cycle end — a scalar in a boxed
// interface still costs one heap allocation per exchange when allocated
// fresh, which at n = 10^6 dominates the protocol's footprint.
type avgReq struct {
	V float64
}

var avgReqPool sim.FreeList[avgReq]

// Recycle implements sim.Recyclable.
func (r *avgReq) Recycle(c *sim.PayloadCache) {
	*r = avgReq{}
	avgReqPool.Put(c, r)
}

// avgDelta is the settle leg: the delta the initiator must apply to its
// own value (the opposite of the receiver's move), keeping the pair's sum
// exactly unchanged. It travels in the request it answers, converted, and
// returns to avgReqPool: an exchange costs one payload. V is the delta.
type avgDelta avgReq

// Recycle implements sim.Recyclable.
func (d *avgDelta) Recycle(c *sim.PayloadCache) {
	*d = avgDelta{}
	avgReqPool.Put(c, (*avgReq)(d))
}

var (
	_ sim.Proposer      = (*Average)(nil)
	_ sim.Receiver      = (*Average)(nil)
	_ sim.Undeliverable = (*Average)(nil)
)

// Value returns the node's current estimate.
func (a *Average) Value() float64 { return a.value }

// SetValue initializes the node's local value.
func (a *Average) SetValue(v float64) { a.value = v }

// Propose implements sim.Proposer: sample a partner from the node's own
// view and propose one averaging exchange.
func (a *Average) Propose(n *sim.Node, px *sim.Proposals) {
	sampler, ok := n.Protocol(a.Slot).(overlay.PeerSampler)
	if !ok {
		return
	}
	peerID, ok := sampler.SamplePeer(n.RNG)
	if !ok {
		return
	}
	a.Exchanges++
	req := avgReqPool.Get(px.Payloads())
	req.V = a.value
	px.Send(peerID, a.SelfSlot, req)
}

// Receive implements sim.Receiver, node-locally. On the initiating leg the
// contacted peer moves halfway toward the initiator's snapshot and mails
// the opposite delta back in the request; on the settle leg the initiator
// applies it. The two moves cancel exactly, so the global sum is conserved
// bit-for-bit under any interleaving.
func (a *Average) Receive(n *sim.Node, ax *sim.ApplyContext, msg sim.Message) {
	switch req := msg.Data.(type) {
	case *avgReq:
		d := (req.V - a.value) / 2
		a.value += d
		rep := (*avgDelta)(req)
		rep.V = -d
		ax.Forward(msg.From, int(msg.Slot), rep)
	case *avgDelta:
		a.value += req.V
	}
}

// Undelivered implements sim.Undeliverable: the sampled partner was dead
// or unreachable, so the exchange is lost. A dead settle leg (one-way
// partition) means this node already moved while the initiator never
// will — roll the move back (the delta it failed to deliver is exactly
// its own move, negated), restoring the sum invariant.
func (a *Average) Undelivered(n *sim.Node, ax *sim.ApplyContext, msg sim.Message) {
	switch req := msg.Data.(type) {
	case *avgReq:
		a.Lost++
	case *avgDelta:
		a.value += req.V
	}
}
