package overlay

import (
	"gossipopt/internal/rng"
	"gossipopt/internal/sim"
)

// Cyclon is the other canonical peer-sampling protocol (Voulgaris, Gavidia
// & van Steen 2005), included as an alternative topology service. Unlike
// Newscast's full-view push-pull, Cyclon *swaps* a small shuffle subset:
// the initiator selects its oldest neighbor, sends L random descriptors
// (including a fresh self-descriptor), and receives L of the peer's in
// exchange; each side replaces exactly the entries it sent away. Swapping
// preserves in-degree much more tightly than Newscast's merge, at the cost
// of slower dissemination of fresh descriptors.
type Cyclon struct {
	// C is the view size; L is the shuffle length (L <= C, default C/2).
	C, L int
	// Slot is the protocol slot where Cyclon instances live on all nodes.
	Slot int

	self sim.NodeID
	view *View

	// Exchanges counts initiated shuffles; FailedExchanges counts
	// shuffles aimed at crashed peers.
	Exchanges, FailedExchanges int64

	// poolScratch holds the filtered candidate pool during appendSubset,
	// sized once at C. Node-local (Propose and Receive run on the worker
	// owning this node), so reusing it across calls is race-free.
	poolScratch []entry
	// sampleScratch holds appendSubset's sampled pool indices, sized once
	// at L, for the same reason.
	sampleScratch []int
}

// Compile-time guards for the two-phase contracts (see Newscast's note).
var (
	_ sim.Proposer      = (*Cyclon)(nil)
	_ sim.Receiver      = (*Cyclon)(nil)
	_ sim.Undeliverable = (*Cyclon)(nil)
)

// NewCyclon creates the Cyclon instance for the given node.
func NewCyclon(self sim.NodeID, c, l, slot int) *Cyclon {
	if l <= 0 || l > c {
		l = c / 2
		if l == 0 {
			l = 1
		}
	}
	return &Cyclon{C: c, L: l, Slot: slot, self: self, view: NewView(c)}
}

// View exposes the current view.
func (cy *Cyclon) View() *View { return cy.view }

// SamplePeer implements PeerSampler.
func (cy *Cyclon) SamplePeer(r *rng.RNG) (sim.NodeID, bool) {
	return cy.view.SampleID(r)
}

// Neighbors implements PeerSampler.
func (cy *Cyclon) Neighbors() []sim.NodeID { return cy.view.IDs() }

// Bootstrap seeds the view.
func (cy *Cyclon) Bootstrap(peers []sim.NodeID) { bootstrapView(cy.view, cy.self, peers) }

// oldest returns the stalest descriptor in the view (Cyclon always
// shuffles with its oldest neighbor, which is what ages out dead nodes).
func (cy *Cyclon) oldest() (entry, bool) {
	es := cy.view.items
	if len(es) == 0 {
		return entry{}, false
	}
	old := es[0]
	for _, e := range es[1:] {
		if e.stamp < old.stamp {
			old = e
		}
	}
	return old, true
}

// appendSubset appends up to l random view entries (excluding the one with
// the peer's ID — it is replaced by the fresh self-descriptor) onto dst and
// returns the extended slice. The RNG draw pattern matches the historical
// subset helper exactly: no draw when the filtered pool fits in l, one
// AppendSample(_, len(pool), l) otherwise.
func (cy *Cyclon) appendSubset(dst []entry, r *rng.RNG, l int, exclude sim.NodeID) []entry {
	pool := sized(cy.poolScratch, cy.C)
	for _, e := range cy.view.items {
		if e.id != exclude {
			pool = append(pool, e)
		}
	}
	cy.poolScratch = pool
	if len(pool) <= l {
		return append(dst, pool...)
	}
	if cap(cy.sampleScratch) < l {
		cy.sampleScratch = make([]int, 0, cy.L)
	}
	cy.sampleScratch = r.AppendSample(cy.sampleScratch[:0], len(pool), l)
	for _, i := range cy.sampleScratch {
		dst = append(dst, pool[i])
	}
	return dst
}

// shuffleReq is Cyclon's proposed exchange: the initiator's shuffle subset
// (L-1 random descriptors plus a fresh self-descriptor). Pooled via
// sim.Recyclable, like Newscast's payloads; both payloads' buffers are
// sized once, at exactly L.
type shuffleReq struct {
	Sent []entry
}

// shuffleRep is the answer leg: the partner's reply subset plus an echo of
// what the initiator sent, so the initiator can do its own swap
// bookkeeping node-locally (discard what it sent, merge what it got).
// Echo is a copy of the request's Sent, in the reply's own buffer: a net
// model may delay the reply past the cycle end that recycles the request,
// and an alias would then read whatever request reused that buffer.
type shuffleRep struct {
	Reply []entry
	Echo  []entry
}

var (
	shuffleReqPool sim.FreeList[shuffleReq]
	shuffleRepPool sim.FreeList[shuffleRep]
)

// Recycle implements sim.Recyclable.
func (s *shuffleReq) Recycle(c *sim.PayloadCache) {
	s.Sent = s.Sent[:0]
	shuffleReqPool.Put(c, s)
}

// Recycle implements sim.Recyclable.
func (s *shuffleRep) Recycle(c *sim.PayloadCache) {
	s.Reply, s.Echo = s.Reply[:0], s.Echo[:0]
	shuffleRepPool.Put(c, s)
}

// Propose implements sim.Proposer: select the oldest neighbor and propose
// a shuffle, sending L-1 random descriptors plus a fresh self-descriptor.
// The initiator's view is not yet modified — swap bookkeeping happens when
// the reply is computed in Receive (or in Undelivered on failure).
func (cy *Cyclon) Propose(n *sim.Node, px *sim.Proposals) {
	target, ok := cy.oldest()
	if !ok {
		return
	}
	cy.Exchanges++
	req := shuffleReqPool.Get(px.Payloads())
	req.Sent = cy.appendSubset(sized(req.Sent, cy.L), n.RNG, cy.L-1, target.id)
	req.Sent = append(req.Sent, entryOf(Descriptor{ID: cy.self, Stamp: px.Cycle()}))
	px.Send(target.id, cy.Slot, req)
}

// Receive implements sim.Receiver, node-locally. On the request leg the
// contacted peer answers with L of its own descriptors (never including
// the initiator), settles its side of the swap — discard what it sent,
// merge what it received — and mails the reply (plus an echo of the
// request) back. On the reply leg the initiator settles its side: replace
// the target's entry and the echoed descriptors it sent away with the
// reply subset.
func (cy *Cyclon) Receive(n *sim.Node, ax *sim.ApplyContext, msg sim.Message) {
	switch req := msg.Data.(type) {
	case *shuffleReq:
		rep := shuffleRepPool.Get(ax.Payloads())
		rep.Reply = cy.appendSubset(sized(rep.Reply, cy.L), n.RNG, cy.L, msg.From)
		for _, e := range rep.Reply {
			cy.view.Remove(e.id)
		}
		cy.view.mergeBatch(cy.self, req.Sent)
		rep.Echo = append(sized(rep.Echo, cy.L), req.Sent...)
		ax.Send(msg.From, cy.Slot, rep)
	case *shuffleRep:
		cy.view.Remove(msg.From)
		for _, e := range req.Echo {
			if e.id != cy.self {
				cy.view.Remove(e.id)
			}
		}
		cy.view.mergeBatch(cy.self, req.Reply)
	}
}

// Undelivered implements sim.Undeliverable: the oldest neighbor was dead —
// exactly the case Cyclon's oldest-first policy is designed to flush. A
// dead reply leg (one-way partition) also flushes the unreachable peer,
// but only a failed initiation counts as a FailedExchange.
func (cy *Cyclon) Undelivered(n *sim.Node, ax *sim.ApplyContext, msg sim.Message) {
	if _, initiated := msg.Data.(*shuffleReq); initiated {
		cy.FailedExchanges++
	}
	cy.view.Remove(msg.To)
}

// InitCyclon wires Cyclon into protocol slot `slot` of every live node,
// bootstrapping with up to c random peers.
func InitCyclon(e *sim.Engine, slot, c, l int) {
	initSamplers(e, slot, c, func(self sim.NodeID) bootstrapper { return NewCyclon(self, c, l, slot) })
}
