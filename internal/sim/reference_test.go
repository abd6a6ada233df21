package sim

import (
	"cmp"
	"fmt"
	"hash/fnv"
	"slices"
	"testing"

	"gossipopt/internal/rng"
)

// The differential test of the apply path: a literal sequential engine
// (refEngine, below) routes and handles one message at a time in canonical
// order and builds each next round by moving the forwarded slots to the
// front; the real engine must agree with it at every worker count on
// everything a run can observe.

// refPayload is the test's only payload type. Its id is a path — the
// proposal's name plus one "/f" per forward — so the same payload has the
// same identity in the engine's world and the reference's: a payload
// forwarded as a follow-up takes the follow-up's id. Recycle logs the id
// in the owning world, with the canonical slot that holds the payload,
// before returning the struct to a free list, which makes both the order
// of end-of-cycle recycling and where every round built in the canonical
// list left each payload observable.
type refPayload struct {
	id    string
	hops  int
	world *refWorld
}

var refPayloads FreeList[refPayload]

func (p *refPayload) Recycle(c *PayloadCache) {
	list := p.world.canonical()
	slot := slices.IndexFunc(list, func(m Message) bool { return m.Data == any(p) })
	p.world.recycled = append(p.world.recycled, refRecycled{p.id, slot})
	*p = refPayload{}
	refPayloads.Put(c, p)
}

// refRecycled is one entry of the recycle log: a payload's id and the slot
// of the canonical list it was released from.
type refRecycled struct {
	id   string
	slot int
}

// refWorld is what one run leaves behind besides its counters.
type refWorld struct {
	nodes     int // IDs below this exist (some dead); a few above are addressed too
	recycled  []refRecycled
	protos    []*refProto
	canonical func() []Message // the canonical list of the cycle being released
}

// refCall is one handler invocation as the handled node saw it.
type refCall struct {
	cycle     int64
	id        string // payload id, or "corrupted"
	deliver   bool
	forwarded bool
}

// refProto logs every handler call and, from Receive and Undelivered
// alike, forwards three in four of the payloads it handles that have hops
// left (ApplyContext.Forward), chosen from the payload id so both worlds
// make the same choices without sharing a random stream. A forwarded
// payload's old id is never recycled.
type refProto struct {
	world     *refWorld
	calls     []refCall
	created   []string
	forwarded []string
}

func refHash(id string, salt byte) uint64 {
	h := fnv.New64a()
	h.Write([]byte(id))
	h.Write([]byte{salt})
	return h.Sum64()
}

// address picks a destination and slot for the payload with the given id:
// a quarter of the traffic hits the hub (node 0), some IDs do not exist,
// the sender itself is as likely as anyone, and one slot in eight is out
// of range on either side.
func (p *refProto) address(id string) (NodeID, int) {
	to := NodeID(refHash(id, 1) % uint64(p.world.nodes+3))
	if refHash(id, 2)%4 == 0 {
		to = 0
	}
	slot := 0
	switch refHash(id, 3) % 16 {
	case 0:
		slot = 7
	case 1:
		slot = -1
	}
	return to, slot
}

func (p *refProto) payload(c *PayloadCache, id string, hops int) *refPayload {
	pl := refPayloads.Get(c)
	*pl = refPayload{id: id, hops: hops, world: p.world}
	p.created = append(p.created, id)
	return pl
}

func (p *refProto) Propose(n *Node, px *Proposals) {
	base := fmt.Sprintf("c%dn%d", px.Cycle(), n.ID)
	for j := 0; j < int(refHash(base, 0)%3); j++ {
		id := fmt.Sprintf("%s#%d", base, j)
		to, slot := p.address(id)
		px.Send(to, slot, p.payload(px.Payloads(), id, 3+j))
	}
}

func (p *refProto) handle(ax *ApplyContext, msg Message, deliver bool) {
	call := refCall{cycle: ax.Cycle(), id: "corrupted", deliver: deliver}
	if pl, ok := msg.Data.(*refPayload); ok {
		call.id = pl.id
		if pl.hops > 0 && refHash(pl.id, 4)%4 != 0 {
			call.forwarded = true
			id := pl.id + "/f"
			to, slot := p.address(id)
			p.forwarded = append(p.forwarded, pl.id)
			p.created = append(p.created, id)
			pl.id, pl.hops = id, pl.hops-1
			ax.Forward(to, slot, pl)
		}
	}
	p.calls = append(p.calls, call)
}

func (p *refProto) Receive(n *Node, ax *ApplyContext, msg Message) { p.handle(ax, msg, true) }

func (p *refProto) Undelivered(n *Node, ax *ApplyContext, msg Message) { p.handle(ax, msg, false) }

// refEngine is the sequential reference: the engine's cycle with no
// sorting, sharding, batching or scratch reuse. It keeps the engine's one
// buffer rule literally, because that rule decides the slot each payload
// is recycled from: a reply Forward wrote into its request's slot stays
// there, and the next round is built in place by moving the marked slots
// to the front of the round, one swap each. It releases in the engine's
// node order: every slot the last round handed to no node, in slot order,
// then the last round's jobs sorted stably by handling node, from the end.
type refEngine struct {
	world       *refWorld
	nodes       []*Node
	rng, netRNG *rng.RNG
	filter      DeliveryFilter
	netmod      NetModel
	delayQ      []delayedMsg
	cycle       int64

	delivered, dropped, delayed, corrupted, jobs int64
	maxDepth                                     int
}

func (r *refEngine) addNode() {
	r.rng.Split() // the node's private stream; refProto never draws from it
	p := &refProto{world: r.world}
	r.world.protos = append(r.world.protos, p)
	r.nodes = append(r.nodes, &Node{ID: NodeID(len(r.nodes)), Alive: true, Protocols: []Protocol{p}})
}

func (r *refEngine) node(id NodeID) *Node {
	if id < 0 || int(id) >= len(r.nodes) {
		return nil
	}
	return r.nodes[id]
}

// route returns the node that handles the message in slot (nil: nobody),
// the message as it arrives there, and whether it is a delivery. The slot
// keeps the payload for end-of-cycle recycling unless the leg is delayed.
func (r *refEngine) route(slot *Message) (*Node, Message, bool) {
	m := *slot
	dst := r.node(m.To)
	if dst == nil || !dst.Alive || r.filter.blocked(m.From, m.To) {
		r.dropped++
		return r.node(m.From), m, false
	}
	if r.netmod != nil && m.From != m.To && m.trigger != redelivered {
		switch v := r.netmod.Judge(m.From, m.To, r.netRNG); v.Fate {
		case FateDrop:
			r.dropped++
			return r.node(m.From), m, false
		case FateBlackhole:
			r.dropped++
			return nil, m, false
		case FateDelay:
			r.delayed++
			m.trigger = redelivered
			r.delayQ = append(r.delayQ, delayedMsg{release: r.cycle + max(v.Delay, 1), msg: m})
			slot.Data = nil // the payload now belongs to the delay queue
			return nil, m, false
		case FateCorrupt:
			r.corrupted++
			r.dropped++
			m.Data = Corrupted{}
			return dst, m, true
		}
	}
	r.delivered++
	return dst, m, true
}

func (r *refEngine) runCycle() {
	var msgs []Message
	for _, n := range r.nodes {
		if n.Alive {
			px := &Proposals{cycle: r.cycle, from: n.ID}
			n.Protocols[0].(Proposer).Propose(n, px)
			msgs = append(msgs, px.msgs...)
		}
	}
	var held []delayedMsg
	for _, d := range r.delayQ {
		if d.release <= r.cycle {
			msgs = append(msgs, d.msg)
		} else {
			held = append(held, d)
		}
	}
	r.delayQ = held
	r.rng.Shuffle(len(msgs), func(i, j int) { msgs[i], msgs[j] = msgs[j], msgs[i] })

	depth := 0
	var last []refJob
	for round := msgs; len(round) > 0; depth++ {
		last = last[:0]
		for i := range round {
			n, m, deliver := r.route(&round[i])
			if n == nil {
				continue
			}
			r.jobs++
			last = append(last, refJob{slot: i, node: n.ID})
			if m.Slot < 0 || int(m.Slot) >= len(n.Protocols) {
				continue
			}
			ax := &ApplyContext{cycle: r.cycle, self: n.ID, handled: &round[i]}
			n.Protocols[m.Slot].(*refProto).handle(ax, m, deliver)
		}
		var next []Message
		for i := range round {
			if round[i].trigger == forwarded {
				j := len(next)
				round[i].trigger = 0
				round[i], round[j] = round[j], round[i]
				next = round[:j+1]
			}
		}
		round = next
	}
	r.maxDepth = max(r.maxDepth, depth)
	r.world.canonical = func() []Message { return msgs }
	handled := make([]bool, len(msgs))
	for _, j := range last {
		handled[j.slot] = true
	}
	for i := range msgs {
		if !handled[i] {
			recyclePayload(&msgs[i], nil)
		}
	}
	slices.SortStableFunc(last, func(a, b refJob) int { return cmp.Compare(a.node, b.node) })
	for t := len(last) - 1; t >= 0; t-- {
		recyclePayload(&msgs[last[t].slot], nil)
	}
	r.cycle++
}

// refJob is one message of a round that some node handles: its slot and
// the handling node.
type refJob struct {
	slot int
	node NodeID
}

// The scenario both worlds follow: a one-way partition, lossy
// and delaying links, one blackholing and one corrupting Byzantine node,
// two nodes dead from the start, a crash of a node with legs in flight,
// and a join that grows the arena mid-run.
const (
	refSeed   = 0x5eed
	refNodes  = 48
	refCycles = 14
)

func refNetModel() NetModel {
	byz := &Byzantine{}
	byz.Set(7, ByzDrop)
	byz.Set(9, ByzCorrupt)
	return Compose(byz, LossyLinks{Loss: 0.1, DelayMax: 2})
}

func refScript(cycle int64, crash func(NodeID), join func()) {
	switch cycle {
	case 0:
		crash(5)
		crash(11)
	case 5:
		crash(13)
	case 8:
		join()
	}
}

func runReference() *refEngine {
	r := &refEngine{
		world:  &refWorld{nodes: refNodes},
		rng:    rng.New(refSeed),
		filter: SplitGroupsOneWay(3),
		netmod: refNetModel(),
	}
	for i := 0; i < refNodes; i++ {
		r.addNode()
	}
	r.netRNG = r.rng.Split()
	for c := int64(0); c < refCycles; c++ {
		refScript(c, func(id NodeID) { r.nodes[id].Alive = false }, r.addNode)
		r.runCycle()
	}
	return r
}

func runEngine(workers, applyWorkers int) (*Engine, *refWorld) {
	w := &refWorld{nodes: refNodes}
	e := NewEngine(refSeed)
	w.canonical = func() []Message { return e.outScratch[0].msgs }
	e.SetWorkers(workers)
	e.SetApplyWorkers(applyWorkers)
	e.SetNodeFactory(func(n *Node) {
		p := &refProto{world: w}
		w.protos = append(w.protos, p)
		n.Protocols = []Protocol{p}
	})
	e.AddNodes(refNodes)
	e.SetDeliveryFilter(SplitGroupsOneWay(3))
	e.SetNetModel(refNetModel())
	for c := int64(0); c < refCycles; c++ {
		refScript(c, e.Crash, func() { e.AddNode() })
		e.RunCycle()
	}
	return e, w
}

// TestApplyMatchesSequentialReference runs the scenario above through the
// reference once and through the engine at every (propose × apply) worker
// combination of {1,2,8}², and compares: each node's handler-call log
// (cycle, payload identity, deliver or undelivered, forwarded or not); the
// recycle log, which lists every payload with the canonical slot it is
// released from once every round has been built in the list (which pins
// where each round put each follow-up), in release order (which pins the
// node order the next propose phase draws in); the routing counters; and
// the position of the net-model stream. The scenario must chain forwards
// at least four rounds deep and forward from both Receive and
// Undelivered. The engine runs under the free-list double-release
// detector, and the recycle log is checked to hold every created payload
// not still in the delay queue exactly once — the original of a corrupted
// leg, the payload of a delayed one and a payload forwarded under its new
// id included — and a forwarded payload's old id never.
func TestApplyMatchesSequentialReference(t *testing.T) {
	EnableFreeListDebug(true)
	defer EnableFreeListDebug(false)

	ref := runReference()
	if ref.maxDepth < 4 {
		t.Fatalf("reference chains only %d rounds deep, want >= 4", ref.maxDepth)
	}
	if ref.delayed == 0 || ref.corrupted == 0 || ref.dropped == 0 || ref.delivered == 0 || ref.jobs == ref.delivered {
		t.Fatalf("scenario lost its teeth: delivered=%d dropped=%d delayed=%d corrupted=%d jobs=%d",
			ref.delivered, ref.dropped, ref.delayed, ref.corrupted, ref.jobs)
	}
	var kept, received, bounced int
	for _, p := range ref.world.protos {
		for _, c := range p.calls {
			switch {
			case !c.forwarded:
				kept++
			case c.deliver:
				received++
			default:
				bounced++
			}
		}
	}
	if kept == 0 || received == 0 || bounced == 0 {
		t.Fatalf("handlers forwarded %d delivered and %d bounced payloads and kept %d; want all three", received, bounced, kept)
	}
	t.Logf("forwards chain %d rounds deep; %d forwarded from Receive, %d from Undelivered, %d kept", ref.maxDepth, received, bounced, kept)
	refDraw := ref.netRNG.Uint64()

	for _, w := range []int{1, 2, 8} {
		for _, aw := range []int{1, 2, 8} {
			e, world := runEngine(w, aw)
			name := fmt.Sprintf("workers=%d/%d", w, aw)
			s := e.Stats()
			got := [5]int64{s.Delivered, s.Dropped, s.Delayed, s.Corrupted, s.ApplyJobs}
			want := [5]int64{ref.delivered, ref.dropped, ref.delayed, ref.corrupted, ref.jobs}
			if got != want {
				t.Fatalf("%s: delivered/dropped/delayed/corrupted/jobs = %v, reference %v", name, got, want)
			}
			if e.netRNG.Uint64() != refDraw {
				t.Fatalf("%s: net-model stream is at a different position than the reference's", name)
			}
			if len(world.protos) != len(ref.world.protos) {
				t.Fatalf("%s: %d nodes, reference %d", name, len(world.protos), len(ref.world.protos))
			}
			for id, p := range world.protos {
				if !slices.Equal(p.calls, ref.world.protos[id].calls) {
					t.Fatalf("%s node %d: handler calls\n%v\nreference\n%v", name, id, p.calls, ref.world.protos[id].calls)
				}
			}
			if !slices.Equal(world.recycled, ref.world.recycled) {
				k := 0
				for k < min(len(world.recycled), len(ref.world.recycled)) && world.recycled[k] == ref.world.recycled[k] {
					k++
				}
				t.Fatalf("%s: recycle log differs from the reference at entry %d of %d and %d (id and slot):\n%v\nreference\n%v",
					name, k, len(world.recycled), len(ref.world.recycled), world.recycled[k:min(k+4, len(world.recycled))], ref.world.recycled[k:min(k+4, len(ref.world.recycled))])
			}

			count := map[string]int{}
			for _, r := range world.recycled {
				count[r.id]++
			}
			for _, d := range e.delayQ {
				count[d.msg.Data.(*refPayload).id]++
			}
			created, gone := 0, map[string]bool{}
			for _, p := range world.protos {
				created += len(p.created) - len(p.forwarded)
				for _, id := range p.forwarded {
					gone[id] = true
				}
			}
			for _, p := range world.protos {
				for _, id := range p.created {
					want := 1
					if gone[id] {
						want = 0
					}
					if count[id] != want {
						t.Fatalf("%s: payload %s recycled %d times, want %d", name, id, count[id], want)
					}
				}
			}
			if created != len(count) {
				t.Fatalf("%s: %d payloads created, %d distinct recycled or still delayed", name, created, len(count))
			}
			e.Close()
		}
	}
}

// TestUnroutableSlotIgnored: a message addressed to a slot the handling
// node does not have — past the end or negative — is routed and counted
// like any other but reaches no handler.
func TestUnroutableSlotIgnored(t *testing.T) {
	for _, slot := range []int{-1, 1} {
		e := NewEngine(1)
		p := &slotProbe{slot: slot}
		e.SetNodeFactory(func(n *Node) { n.Protocols = []Protocol{p} })
		e.AddNodes(2)
		e.Crash(1)
		e.Run(2)
		if p.handled != 0 {
			t.Fatalf("slot %d: %d handler calls, want none", slot, p.handled)
		}
		if e.Delivered() != 2 || e.Dropped() != 2 {
			t.Fatalf("slot %d: delivered=%d dropped=%d, want 2 and 2", slot, e.Delivered(), e.Dropped())
		}
		e.Close()
	}
}

// slotProbe sends one message to node 0 (delivered) and one to node 1
// (dead: bounced) per cycle, both to the configured slot.
type slotProbe struct{ slot, handled int }

func (p *slotProbe) Propose(n *Node, px *Proposals) {
	px.Send(0, p.slot, "x")
	px.Send(1, p.slot, "x")
}

func (p *slotProbe) Receive(n *Node, ax *ApplyContext, msg Message) { p.handled++ }

func (p *slotProbe) Undelivered(n *Node, ax *ApplyContext, msg Message) { p.handled++ }
