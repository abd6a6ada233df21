package overlay

import (
	"cmp"
	"slices"

	"gossipopt/internal/rng"
	"gossipopt/internal/sim"
)

// TMan is the gossip-based topology construction protocol of Jelasity &
// Babaoglu (ESOA 2005), cited by the paper as the canonical way a
// topology service can build *structured* overlays (e.g. a mesh
// partitioning the search space) out of the random Newscast substrate.
//
// Each node keeps a T-Man view of the c peers closest to it under a
// problem-specific ranking (distance function). Periodically it picks the
// closest known peer, exchanges views, and keeps the c closest of the
// union. Starting from a random overlay, the target topology emerges in
// O(log n) cycles.
//
// TMan speaks the engine's two-phase exchange contract: Propose samples
// the random injection and mails the node's view to its closest neighbor;
// the symmetric merge completes through a reply message in Receive. A
// failed contact reports back through Undelivered, which distinguishes a *confirmed
// crash* (destination dead: tombstone it so third-party merges cannot
// resurrect it) from an *unreachable* peer (network partition: drop it
// from the view without a tombstone, so it is re-adopted once the
// partition heals).
type TMan struct {
	// C is the view size. Slot is TMan's protocol slot on all nodes.
	// RandSlot, when >= 0, points at a peer-sampling protocol used to
	// keep injecting random descriptors (prevents partitioning into
	// local clusters).
	C        int
	Slot     int
	RandSlot int
	// Distance ranks candidate neighbors: smaller is closer. It must be
	// symmetric and zero only for a == b.
	Distance func(a, b sim.NodeID) float64

	self  sim.NodeID
	peers []sim.NodeID
	// dead tombstones peers whose crash was confirmed (the engine bounced
	// a message off a dead node), so third-party merges do not resurrect
	// them. Peers that are merely unreachable (partitions) are never
	// tombstoned, and a direct message from a tombstoned peer — proof it
	// restarted (scripted revive) — clears its tombstone in Receive; a
	// real deployment would additionally expire tombstones by age.
	dead map[sim.NodeID]bool

	// Exchanges counts initiated view exchanges; Lost counts initiations
	// that died in transit (dead peer or network partition).
	Exchanges int64
	Lost      int64

	// merge scratch, reused across calls: merge runs at least twice per
	// node per cycle (random injection + exchange), so a per-call slice
	// allocation would dominate the protocol's cost.
	mergeScratch []tmanRanked
}

// tmanRanked is a candidate neighbor with its precomputed distance
// (merge scratch element).
type tmanRanked struct {
	id sim.NodeID
	d  float64
}

// tmanSwap is the proposed exchange: the initiator's view snapshot plus
// its own descriptor, delivered to the closest known neighbor. Pooled via
// sim.Recyclable, like the peer-sampling payloads.
type tmanSwap struct {
	Peers []sim.NodeID
}

// tmanReply is the pull half: the contacted peer's pre-merge view plus its
// own descriptor, mailed back to the initiator in the next apply round.
type tmanReply struct {
	Peers []sim.NodeID
}

var (
	tmanSwapPool  sim.FreeList[tmanSwap]
	tmanReplyPool sim.FreeList[tmanReply]
)

// Recycle implements sim.Recyclable.
func (s *tmanSwap) Recycle(c *sim.PayloadCache) {
	s.Peers = s.Peers[:0]
	tmanSwapPool.Put(c, s)
}

// Recycle implements sim.Recyclable.
func (s *tmanReply) Recycle(c *sim.PayloadCache) {
	s.Peers = s.Peers[:0]
	tmanReplyPool.Put(c, s)
}

// Compile-time guards: sim.Protocol is untyped, so assert the two-phase
// contracts explicitly — a signature drift must fail the build, not turn
// the protocol into a silent no-op.
var (
	_ sim.Proposer      = (*TMan)(nil)
	_ sim.Receiver      = (*TMan)(nil)
	_ sim.Undeliverable = (*TMan)(nil)
)

// NewTMan creates a T-Man instance for node self.
func NewTMan(self sim.NodeID, c, slot, randSlot int, dist func(a, b sim.NodeID) float64) *TMan {
	return &TMan{C: c, Slot: slot, RandSlot: randSlot, Distance: dist, self: self}
}

// Neighbors implements PeerSampler: the current closest-known peers.
func (t *TMan) Neighbors() []sim.NodeID {
	return append([]sim.NodeID(nil), t.peers...)
}

// SamplePeer implements PeerSampler.
func (t *TMan) SamplePeer(r *rng.RNG) (sim.NodeID, bool) {
	if len(t.peers) == 0 {
		return 0, false
	}
	return t.peers[r.Intn(len(t.peers))], true
}

// Bootstrap seeds the view.
func (t *TMan) Bootstrap(peers []sim.NodeID) { t.merge(peers) }

// Tombstoned reports whether the peer's crash has been confirmed and it is
// barred from re-entering the view.
func (t *TMan) Tombstoned(id sim.NodeID) bool { return t.dead[id] }

// merge folds candidates into the view, keeping the C closest distinct
// non-self peers. Distances are computed once per candidate (not inside
// the sort comparator, which would re-evaluate Distance O(k log k) times
// per merge on the protocol's hot path — see BenchmarkTManMerge).
func (t *TMan) merge(candidates []sim.NodeID) {
	all := t.mergeScratch[:0]
	// An id already ranked is found by scanning all: at most C plus one
	// batch of ids, which is cheaper than a map cleared on every merge.
	ranked := func(id sim.NodeID) bool {
		for i := range all {
			if all[i].id == id {
				return true
			}
		}
		return false
	}
	rank := func(ids []sim.NodeID) {
		for _, id := range ids {
			if id != t.self && !t.dead[id] && !ranked(id) {
				all = append(all, tmanRanked{id: id, d: t.Distance(t.self, id)})
			}
		}
	}
	rank(t.peers)
	rank(candidates)
	t.mergeScratch = all
	// rank keeps ids distinct, so the (distance, id) comparator is a total
	// order and the non-allocating sort is algorithm-independent.
	slices.SortFunc(all, func(a, b tmanRanked) int {
		if a.d != b.d {
			return cmp.Compare(a.d, b.d)
		}
		return cmp.Compare(a.id, b.id)
	})
	if len(all) > t.C {
		all = all[:t.C]
	}
	t.peers = t.peers[:0]
	for _, c := range all {
		t.peers = append(t.peers, c.id)
	}
}

// remove deletes one peer from the view, preserving the distance order.
func (t *TMan) remove(id sim.NodeID) {
	for i, p := range t.peers {
		if p == id {
			t.peers = append(t.peers[:i], t.peers[i+1:]...)
			return
		}
	}
}

// closest returns the nearest current neighbor.
func (t *TMan) closest() (sim.NodeID, bool) {
	if len(t.peers) == 0 {
		return 0, false
	}
	return t.peers[0], true // merge keeps peers sorted by distance
}

// Propose implements sim.Proposer: merge one random descriptor from the
// underlying peer-sampling layer (maintains global connectivity), then
// propose one view exchange with the closest neighbor. Only the node's
// own state is touched; the symmetric merge happens in Receive.
func (t *TMan) Propose(n *sim.Node, px *sim.Proposals) {
	if t.RandSlot >= 0 && t.RandSlot < len(n.Protocols) {
		if ps, ok := n.Protocol(t.RandSlot).(PeerSampler); ok {
			if id, ok := ps.SamplePeer(n.RNG); ok {
				t.merge([]sim.NodeID{id})
			}
		}
	}
	target, ok := t.closest()
	if !ok {
		return
	}
	t.Exchanges++
	sw := tmanSwapPool.Get(px.Payloads())
	sw.Peers = append(append(sw.Peers[:0], t.peers...), t.self)
	px.Send(target, t.Slot, sw)
}

// Receive implements sim.Receiver, node-locally. On the initiating leg the
// contacted peer merges the initiator's snapshot and mails its own
// pre-merge view (plus its descriptor) back; on the reply leg the
// initiator merges that snapshot — the same symmetric outcome as the
// historical inline exchange, with each leg crossing the delivery filter
// on its own.
func (t *TMan) Receive(n *sim.Node, ax *sim.ApplyContext, msg sim.Message) {
	switch sw := msg.Data.(type) {
	case *tmanSwap:
		// A message from a tombstoned peer is proof of life: the crash was
		// confirmed once, but the node has since restarted (scripted
		// revive). Direct contact — and only direct contact, never a
		// third-party merge — clears the tombstone.
		delete(t.dead, msg.From)
		// Snapshot the pre-merge view into the pooled reply before merge
		// mutates t.peers.
		rep := tmanReplyPool.Get(ax.Payloads())
		rep.Peers = append(append(rep.Peers[:0], t.peers...), t.self)
		t.merge(sw.Peers)
		ax.Send(msg.From, t.Slot, rep)
	case *tmanReply:
		delete(t.dead, msg.From)
		t.merge(sw.Peers)
	}
}

// Undelivered implements sim.Undeliverable: the exchange (or its reply
// leg) died in transit. A dead destination is a confirmed crash — drop it
// and tombstone it, or third-party merges would keep pinning it back into
// the view. A live but unreachable destination (delivery filter, i.e. a
// partition) is only dropped: no tombstone, so the peer is re-adopted
// through merges or random injection once the partition heals. Only a
// failed initiation counts toward Lost.
func (t *TMan) Undelivered(n *sim.Node, ax *sim.ApplyContext, msg sim.Message) {
	if _, initiated := msg.Data.(*tmanSwap); initiated {
		t.Lost++
	}
	t.remove(msg.To)
	if !ax.Alive(msg.To) {
		if t.dead == nil {
			t.dead = make(map[sim.NodeID]bool)
		}
		t.dead[msg.To] = true
	}
}

// RingDistance returns a distance function for building a ring over node
// IDs modulo n (the classic T-Man demonstration target).
func RingDistance(n int) func(a, b sim.NodeID) float64 {
	return func(a, b sim.NodeID) float64 {
		d := int64(a) - int64(b)
		if d < 0 {
			d = -d
		}
		d %= int64(n)
		if wrap := int64(n) - d; wrap < d {
			d = wrap
		}
		return float64(d)
	}
}

// InitTMan wires T-Man into slot `slot` of every live node, each
// bootstrapped with k random peers; randSlot may point at an existing
// peer-sampling protocol (pass -1 to disable random injection).
func InitTMan(e *sim.Engine, slot, randSlot, c int, dist func(a, b sim.NodeID) float64) {
	initSamplers(e, slot, c, func(self sim.NodeID) bootstrapper { return NewTMan(self, c, slot, randSlot, dist) })
}
