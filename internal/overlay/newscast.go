package overlay

import (
	"sort"

	"gossipopt/internal/rng"
	"gossipopt/internal/sim"
	"gossipopt/internal/stats"
)

// PeerSampler is the interface the coordination layer uses to obtain gossip
// partners: the peer-sampling service of Jelasity et al. Implementations
// include Newscast (dynamic, self-repairing) and the static topologies in
// static.go.
type PeerSampler interface {
	// SamplePeer returns a (hopefully live) peer drawn from the node's
	// current view. ok is false when the view is empty.
	SamplePeer(r *rng.RNG) (id sim.NodeID, ok bool)
	// Neighbors returns the node's current out-links (read by Health). The
	// result may alias the sampler's state: callers must not modify it.
	Neighbors() []sim.NodeID
}

// ViewHealth is the state of the live nodes' views: how many are empty,
// how many live nodes no live view names (orphans), the share of entries
// that name dead nodes, and the least, median and largest in-degree, the
// number of live views that name a live node.
type ViewHealth struct {
	Empty     int     `json:"empty"`
	Orphans   int     `json:"orphans"`
	DeadShare float64 `json:"dead_share"`
	InMin     int     `json:"in_min"`
	InMedian  float64 `json:"in_median"`
	InMax     int     `json:"in_max"`
}

// Health reads the PeerSamplers in protocol slot `slot` of e's live nodes,
// static ones included, and changes nothing: it draws no random value and
// writes no state. It returns nil when no live node has a sampler there.
func Health(e *sim.Engine, slot int) *ViewHealth {
	var h ViewHealth
	var live, buf []sim.NodeID
	in := make([]int32, e.Size())
	entries, dead := 0, 0
	for id := range sim.NodeID(e.Size()) {
		var ps PeerSampler
		if n := e.Node(id); n.Alive && slot < len(n.Protocols) {
			ps, _ = n.Protocols[slot].(PeerSampler)
		}
		nbrs := buf[:0]
		switch s := ps.(type) {
		case nil:
			continue
		case *Newscast: // read in place: a copy per view was most of what Health allocated
			nbrs = s.view.AppendIDs(nbrs)
			buf = nbrs
		default:
			nbrs = ps.Neighbors()
		}
		live = append(live, id)
		if len(nbrs) == 0 {
			h.Empty++
		}
		entries += len(nbrs)
		for _, t := range nbrs {
			if n := e.Node(t); n != nil && n.Alive {
				in[t]++
			} else {
				dead++
			}
		}
	}
	if len(live) == 0 {
		return nil
	}
	h.DeadShare = float64(dead) / float64(max(entries, 1))
	degs := make([]float64, len(live))
	for i, id := range live {
		degs[i] = float64(in[id])
	}
	sort.Float64s(degs)
	h.Orphans = sort.SearchFloat64s(degs, 1) // the in-degrees of 0
	h.InMin, h.InMax = int(degs[0]), int(degs[len(degs)-1])
	h.InMedian = stats.Median(degs)
	return &h
}

// Newscast is the paper's topology service. Each node maintains a view of c
// descriptors; once per cycle it (i) picks a random peer from its view,
// (ii) refreshes its own descriptor with the current logical time, and
// (iii) performs a symmetric view exchange: both sides merge the union of
// the two views plus the other side's fresh descriptor, keeping the c
// freshest.
//
// The periodic exchange continuously shuffles views (≈ random graph with
// out-degree c), keeps the overlay strongly connected (c = 20 is already
// very robust per the Newscast literature) and self-heals by aging alone:
// crashed nodes stop injecting fresh descriptors, so their stale entries
// age out. A lost leg says nothing about liveness and changes no view.
type Newscast struct {
	// Slot is the protocol slot index where Newscast instances live on
	// every node, so a node can address its partner's instance.
	Slot int

	self sim.NodeID
	view *View
}

// Compile-time guards: sim.Protocol is untyped, so assert the two-phase
// contracts explicitly — a signature drift must fail the build, not turn
// the protocol into a silent no-op.
var _ sim.Proposer = (*Newscast)(nil)
var _ sim.Receiver = (*Newscast)(nil)

// NewNewscast creates the Newscast instance for the given node.
func NewNewscast(self sim.NodeID, c, slot int) *Newscast {
	return &Newscast{Slot: slot, self: self, view: NewView(c)}
}

// View exposes the node's current view, for reading.
func (nc *Newscast) View() *View { return nc.view }

// SamplePeer implements PeerSampler by uniform choice over the view.
func (nc *Newscast) SamplePeer(r *rng.RNG) (sim.NodeID, bool) {
	return nc.view.SampleID(r)
}

// Neighbors implements PeerSampler.
func (nc *Newscast) Neighbors() []sim.NodeID { return nc.view.AppendIDs(nil) }

// Bootstrap seeds the view with the given peers at logical time 0. Up to
// mergeStack peers the batch stays on the stack.
func (nc *Newscast) Bootstrap(peers []sim.NodeID) {
	var buf [mergeStack]Descriptor
	batch := buf[:0]
	for _, id := range peers {
		batch = append(batch, Descriptor{ID: id})
	}
	nc.view.Merge(nc.self, batch)
}

// viewSwap is Newscast's proposed exchange: a snapshot of the initiator's
// view plus the logical time of the cycle, delivered to the chosen partner.
// Payloads are pooled (sim.Recyclable): a cycle at large n creates one
// snapshot per live node, so recycling the descriptor buffers removes the
// dominant per-cycle allocation. The request also carries the reply home
// (see Newscast.exchange): an exchange needs one header and one buffer
// besides the views.
//
// Descs is a view verbatim, so it is strictly sorted under the canonical
// order and the receiver merges it without sorting. The two fresh
// descriptors of the exchange are not in it: the receiver's own would be
// dropped as self, and the sender's is {Message.From, Stamp}.
type viewSwap struct {
	Descs []entry
	Stamp int64
}

// viewSwapReply is the pull half of the exchange: the partner's pre-merge
// view, mailed back to the initiator in the next apply round in the
// request it answers, converted (see Newscast.exchange). Descs is sorted
// like viewSwap's. Stamp repeats the request's, not the time the reply was
// posted or arrives: a leg the network delays still announces its sender as
// of the cycle the exchange began in.
type viewSwapReply viewSwap

// viewSwapPool holds the headers of both legs, each with its buffer. It is
// process-global, so engines with different view sizes draw each other's
// buffers; whoever fills one replaces it if it is too small (sized).
var viewSwapPool sim.FreeList[viewSwap]

// Recycle implements sim.Recyclable.
func (s *viewSwap) Recycle(c *sim.PayloadCache) {
	s.Descs = s.Descs[:0]
	viewSwapPool.Put(c, s)
}

// Recycle implements sim.Recyclable: the header returns to the request
// pool it came from.
func (s *viewSwapReply) Recycle(c *sim.PayloadCache) {
	s.Descs = s.Descs[:0]
	viewSwapPool.Put(c, (*viewSwap)(s))
}

// Propose implements sim.Proposer: pick a partner from the node's own view
// and propose a symmetric view exchange. Only the node's own state is
// touched — the exchange itself happens in Receive during the apply phase.
func (nc *Newscast) Propose(n *sim.Node, px *sim.Proposals) {
	peerID, ok := nc.SamplePeer(n.RNG)
	if !ok {
		return
	}
	sw := viewSwapPool.Get(px.Payloads())
	sw.Descs = nc.view.snapshotInto(sw.Descs)
	sw.Stamp = px.Cycle()
	px.Send(peerID, nc.Slot, sw)
}

// Receive implements sim.Receiver, node-locally. On the initiating leg the
// receiver merges the initiator's snapshot and fresh descriptor and mails
// its own pre-merge view back; on the reply leg the initiator merges that
// view and the partner's fresh descriptor — the same symmetric outcome as
// an inline exchange, with each leg crossing the network (and the delivery
// filter) on its own.
func (nc *Newscast) Receive(n *sim.Node, ax *sim.ApplyContext, msg sim.Message) {
	switch sw := msg.Data.(type) {
	case *viewSwap:
		nc.exchange(msg.From, sw)
		ax.Forward(msg.From, nc.Slot, (*viewSwapReply)(sw))
	case *viewSwapReply:
		nc.view.mergeInPlace(nc.self, sw.Descs, entryOf(Descriptor{ID: msg.From, Stamp: sw.Stamp}))
	}
}

// exchange is the request leg: it merges the initiator's snapshot into the
// view in place and overwrites the snapshot, which is dead once merged,
// with the pre-merge view: the request becomes its own reply. As on the
// reply leg, the view moves to the stack first, so its items buffer never
// changes.
func (nc *Newscast) exchange(from sim.NodeID, sw *viewSwap) {
	v := nc.view
	var bufA [mergeStack]entry
	a := append(bufA[:0], v.items...)
	v.items = mergeRuns(sized(v.items, v.c), a, sw.Descs, entryOf(Descriptor{ID: from, Stamp: sw.Stamp}), nc.self, v.c)
	sw.Descs = append(sized(sw.Descs, v.c), a...)
}

// InitNewscast wires a Newscast instance into protocol slot `slot` of every
// node of e, bootstrapping each view with up to c random peers chosen by the
// engine RNG. Call after all initial nodes are added. Joiners (churn) get
// their instance from the node factory, which should Bootstrap it with a
// known node, as a bootstrap server would: an empty view never initiates.
// That entry stays until fresher ones push it out, legs lost or not.
func InitNewscast(e *sim.Engine, slot, c int) {
	nodes := e.LiveNodes()
	// One AppendSample(_, n, k+1) of the engine RNG per node, in live order.
	k := min(c, len(nodes)-1)
	peers := make([]sim.NodeID, 0, max(k, 0))
	sample := make([]int, 0, k+1)
	for _, n := range nodes {
		peers = peers[:0]
		sample = e.RNG().AppendSample(sample[:0], len(nodes), k+1)
		for _, idx := range sample {
			if id := nodes[idx].ID; id != n.ID && len(peers) < k {
				peers = append(peers, id)
			}
		}
		nc := NewNewscast(n.ID, c, slot)
		nc.Bootstrap(peers)
		for len(n.Protocols) <= slot {
			n.Protocols = append(n.Protocols, nil)
		}
		n.Protocols[slot] = nc
	}
}
