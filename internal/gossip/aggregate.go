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
// exactly unchanged. Pooled like avgReq.
type avgDelta struct {
	D float64
}

var avgDeltaPool sim.FreeList[avgDelta]

// Recycle implements sim.Recyclable.
func (d *avgDelta) Recycle(c *sim.PayloadCache) {
	*d = avgDelta{}
	avgDeltaPool.Put(c, d)
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
// the opposite delta back; on the settle leg the initiator applies it. The
// two moves cancel exactly, so the global sum is conserved bit-for-bit
// under any interleaving.
func (a *Average) Receive(n *sim.Node, ax *sim.ApplyContext, msg sim.Message) {
	switch req := msg.Data.(type) {
	case *avgReq:
		d := (req.V - a.value) / 2
		a.value += d
		rep := avgDeltaPool.Get(ax.Payloads())
		rep.D = -d
		ax.Send(msg.From, msg.Slot, rep)
	case *avgDelta:
		a.value += req.D
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
		a.value += req.D
	}
}

// Aggregate generalizes pairwise gossip aggregation to any commutative,
// associative, idempotent combiner: both parties converge onto
// Combine(a, b). With Combine = min or max every node converges to the
// global extremum in O(log n) cycles.
//
// Like Average, Aggregate speaks the two-phase exchange contract
// node-locally: the contacted peer combines the initiator's snapshot into
// its own value and replies with the combined result, which the initiator
// re-combines into its own (possibly since-updated) value. Re-combining
// is exact for idempotent combiners like min/max; a non-idempotent
// combiner (e.g. the mean) is not supported here — use Average, whose
// delta exchange conserves the sum.
type Aggregate struct {
	// Slot is the protocol slot of the node's PeerSampler. SelfSlot is
	// where Aggregate instances live. Combine merges two values.
	Slot     int
	SelfSlot int
	Combine  func(a, b float64) float64

	value float64

	// Exchanges counts initiated pairwise steps; Lost counts initiations
	// that died in transit.
	Exchanges int64
	Lost      int64
}

var (
	_ sim.Proposer      = (*Aggregate)(nil)
	_ sim.Receiver      = (*Aggregate)(nil)
	_ sim.Undeliverable = (*Aggregate)(nil)
)

// Value returns the node's current estimate.
func (a *Aggregate) Value() float64 { return a.value }

// SetValue initializes the node's local value.
func (a *Aggregate) SetValue(v float64) { a.value = v }

// Propose implements sim.Proposer: sample a partner and propose one
// combining exchange.
func (a *Aggregate) Propose(n *sim.Node, px *sim.Proposals) {
	sampler, ok := n.Protocol(a.Slot).(overlay.PeerSampler)
	if !ok {
		return
	}
	peerID, ok := sampler.SamplePeer(n.RNG)
	if !ok {
		return
	}
	a.Exchanges++
	req := aggReqPool.Get(px.Payloads())
	req.V = a.value
	px.Send(peerID, a.SelfSlot, req)
}

// aggReq is the combining proposal, carrying the initiator's value at
// propose time; aggVal is the reply carrying the combined result. Both are
// pooled like Average's payloads.
type aggReq struct {
	V float64
}

var aggReqPool sim.FreeList[aggReq]

// Recycle implements sim.Recyclable.
func (r *aggReq) Recycle(c *sim.PayloadCache) {
	*r = aggReq{}
	aggReqPool.Put(c, r)
}

// aggVal is the reply leg of an Aggregate exchange.
type aggVal struct {
	V float64
}

var aggValPool sim.FreeList[aggVal]

// Recycle implements sim.Recyclable.
func (v *aggVal) Recycle(c *sim.PayloadCache) {
	*v = aggVal{}
	aggValPool.Put(c, v)
}

// Receive implements sim.Receiver, node-locally: the contacted peer
// combines the initiator's snapshot into its value and replies with the
// result; the initiator re-combines the reply into its own. For
// idempotent combiners both sides end at Combine of their values, exactly
// as in an inline exchange.
func (a *Aggregate) Receive(n *sim.Node, ax *sim.ApplyContext, msg sim.Message) {
	switch req := msg.Data.(type) {
	case *aggReq:
		a.value = a.Combine(a.value, req.V)
		rep := aggValPool.Get(ax.Payloads())
		rep.V = a.value
		ax.Send(msg.From, msg.Slot, rep)
	case *aggVal:
		a.value = a.Combine(a.value, req.V)
	}
}

// Undelivered implements sim.Undeliverable: a lost initiation counts; a
// lost reply leg (one-way partition) leaves a one-sided combine, which is
// harmless for idempotent combiners.
func (a *Aggregate) Undelivered(n *sim.Node, ax *sim.ApplyContext, msg sim.Message) {
	if _, initiated := msg.Data.(*aggReq); initiated {
		a.Lost++
	}
}

// MinCombine and MaxCombine are the extremum combiners.
func MinCombine(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

// MaxCombine returns the larger of a and b.
func MaxCombine(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// EstimateSize reads the network-size estimate off an Average instance
// seeded with a single 1.0 (all other nodes 0): the converged mean is 1/n.
// It returns 0 if the node's current value is not yet positive.
func EstimateSize(a *Average) float64 {
	v := a.Value()
	if v <= 0 {
		return 0
	}
	return 1 / v
}

// Sum returns the sum of all live nodes' values (the conserved quantity).
func Sum(e *sim.Engine, selfSlot int) float64 {
	var s float64
	e.ForEachLive(func(n *sim.Node) {
		if a, ok := n.Protocol(selfSlot).(*Average); ok {
			s += a.Value()
		}
	})
	return s
}

// Spread returns max-min of all live nodes' values (convergence measure).
func Spread(e *sim.Engine, selfSlot int) float64 {
	first := true
	var lo, hi float64
	e.ForEachLive(func(n *sim.Node) {
		a, ok := n.Protocol(selfSlot).(*Average)
		if !ok {
			return
		}
		v := a.Value()
		if first {
			lo, hi = v, v
			first = false
			return
		}
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	})
	return hi - lo
}
