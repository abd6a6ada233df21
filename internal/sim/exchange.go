package sim

// The two-phase exchange model.
//
// Engine.RunCycle executes each cycle in two phases, both running on the
// engine's persistent worker pool:
//
//   - Phase 1 (parallel propose): live nodes are partitioned into
//     contiguous shards, one per propose worker. Each worker steps its
//     nodes' protocols; a protocol implementing Proposer performs its
//     node-local work (solver evaluation, timer bookkeeping, sampling a
//     partner from its own view) and *proposes* exchanges by posting
//     Messages through Proposals. During this phase a protocol may only
//     read and write the state of its own node — never a peer's — which
//     is what makes the phase safe to run on concurrent workers.
//
//   - Phase 2 (parallel apply): the other workers' outboxes are appended
//     onto worker 0's in shard order (= sender-ID order, independent of
//     the propose worker count), and that list is shuffled in place into a
//     seed-derived canonical order with the engine RNG. Delivery then
//     proceeds in *rounds*, each in three steps (Engine.applyRound). The
//     coordinator classifies the round in
//     canonical order: liveness, the delivery filter, the net model's
//     draws, the delay queue and the counters advance exactly as in a
//     sequential pass, and each message is assigned the node that must
//     handle it — the destination when deliverable, the sender otherwise.
//     The routed messages are then dispatched in node-ID order, each
//     node's messages kept in canonical order, the apply workers taking
//     contiguous spans of that order cut at node boundaries. A handler is
//     node-local: Receive/Undelivered may touch only the handled node's
//     state and post follow-up messages (replies) through the
//     ApplyContext. Finally the follow-ups become the next round, ordered
//     by the canonical index of the message that triggered them — in the
//     round's own buffer when each is a reply forwarded in its request
//     (ax.Forward), which takes the request's slot. Rounds repeat until no
//     protocol posts a follow-up.
//
// Determinism: because handlers are node-local, the only order a handler
// can observe is the order of its own node's messages, which is the
// canonical order restricted to that node whatever the order between
// nodes and however the spans are cut. Trigger indices are unique per
// routed message and a message's follow-ups sit contiguously, in emission
// order, in one worker's outbox, so placing them by trigger yields the
// sequence a sequential pass would have appended. Counters are classified
// on the coordinator, and every apply-phase random draw comes from the
// handled node's private RNG. A run's trace is therefore bit-identical for
// any (propose workers × apply workers) combination, 1×1 included —
// sim.TestApplyMatchesSequentialReference checks it against a literal
// one-message-at-a-time engine.
//
// The exchange idiom: symmetric protocols complete a pairwise exchange by
// replying in the next round (ax.Send back to msg.From) instead of
// reaching into the initiator through the engine, so each leg of the
// exchange crosses the network — and the delivery filter — on its own.
// A reply that cannot be delivered (a one-way partition) fires the
// replier's Undelivered hook, which is where a protocol compensates
// (gossip.Average rolls its half of the exchange back there, keeping the
// global sum conserved under asymmetric cuts). A reply that fits in the
// request goes out in it (ax.Forward): one payload per exchange.

// Message is one proposed exchange: a payload traveling from the proposing
// node to a peer's protocol slot, delivered during the apply phase.
type Message struct {
	// From is the proposing node; To is the destination node.
	From, To NodeID
	// Slot is the protocol slot addressed on the destination node. All
	// bundled protocols are symmetric (Newscast talks to Newscast, OptNode
	// to OptNode), so Slot also locates the sender's own instance when a
	// failure must be reported back.
	Slot int32
	// trigger is, on a follow-up, the canonical index of the message that
	// posted it, then its final index in the next round (see applyRound);
	// a leg a net-model delay held back carries redelivered instead, so its
	// release is checked against liveness and the filter but never judged
	// twice, and a reply Forward wrote into its request's slot carries
	// forwarded until the round ends. Released legs join the canonical
	// list, which ignores trigger. The four 32-bit fields pack ahead of
	// Data: a Message is 32 bytes.
	trigger int32
	// Data is the protocol-specific payload. Ownership transfers to the
	// receiver: proposers must not retain or mutate it after Send. A
	// payload implementing Recyclable returns to its free list when the
	// cycle ends (see freelist.go for the full ownership rules), so
	// handlers must not retain it — or slices inside it — across cycles.
	Data any
}

// The triggers that are not indices (see Message).
const (
	redelivered int32 = -1 // a delayed leg
	forwarded   int32 = -2 // a reply in its request's slot, this round
)

// Proposer is the phase-1 contract of the two-phase exchange model.
// Propose performs the node's local work for the cycle and posts exchange
// proposals. It runs concurrently with other nodes' Propose calls and must
// only touch n's own state (its protocols, its RNG) and px.
type Proposer interface {
	Propose(n *Node, px *Proposals)
}

// Receiver is the phase-2 contract: Receive handles one delivered message
// on the destination node n. It runs on an apply worker that owns n for
// the round, concurrently with other nodes' handlers, and therefore must
// be node-local: it may touch only n's own state (its protocols, its RNG)
// and ax. To complete a symmetric exchange it posts a reply through
// ax.Send, or ax.Forward in the payload it received — delivered in the
// next apply round of the same cycle — instead of mutating the initiator
// directly.
type Receiver interface {
	Receive(n *Node, ax *ApplyContext, msg Message)
}

// Undeliverable is implemented by protocols that want failure feedback:
// Undelivered is invoked on the *sender's* protocol instance when the
// destination node is dead or unreachable at delivery time (n is the
// sender) — the failure a real initiator would observe as a timed-out
// connection. Like Receive it runs on an apply worker and must stay
// node-local, and ax.Send lets a protocol compensate for a half-completed
// exchange whose reply leg died.
type Undeliverable interface {
	Undelivered(n *Node, ax *ApplyContext, msg Message)
}

// Proposals is a worker-local outbox handed to Propose. It also aggregates
// per-worker bookkeeping (function-evaluation counts) so phase 1 needs no
// shared atomics.
type Proposals struct {
	cycle int64
	from  NodeID
	msgs  []Message
	evals int64
	cache *PayloadCache
}

// Cycle returns the number of completed cycles, i.e. the logical timestamp
// of the cycle being proposed.
func (px *Proposals) Cycle() int64 { return px.cycle }

// Send proposes an exchange: data will be delivered to the given protocol
// slot of node `to` during the apply phase. Ownership of data (and any
// slices inside it) transfers to the receiver. A node's own messages keep
// their proposal order within the outbox; across nodes the engine imposes
// the canonical order.
func (px *Proposals) Send(to NodeID, slot int, data any) {
	px.msgs = append(px.msgs, Message{From: px.from, To: to, Slot: int32(slot), Data: data})
}

// CountEvals adds k objective evaluations to the engine's global counter
// (aggregated race-free at the phase barrier; see Engine.Evals).
func (px *Proposals) CountEvals(k int64) { px.evals += k }

// Payloads returns the worker's payload cache, which Propose passes to
// FreeList.Get. A Proposals no engine handed out has none, and Get then
// allocates.
func (px *Proposals) Payloads() *PayloadCache { return px.cache }

// begin readies the outbox for the next node of the worker's shard.
func (px *Proposals) begin(id NodeID) { px.from = id }

// ApplyContext is the restricted per-worker context handed to phase-2
// handlers (Receive/Undelivered). It deliberately does not expose the
// engine: a handler sees only the node it was invoked on, the logical
// cycle time, read-only liveness (frozen for the duration of the apply
// phase), counters, and an outbox for follow-up messages. That restriction
// is what makes the order between nodes free, and the apply phase
// shardable by handling node.
type ApplyContext struct {
	engine *Engine
	cycle  int64
	// self is the node currently being handled; follow-ups are sent from
	// it.
	self NodeID
	// trigger is the canonical index of the message being handled; every
	// follow-up carries it so the coordinator can place it where a
	// sequential apply would have appended it.
	trigger int32
	// handled is the round slot of the message being handled and first
	// the outbox length when its handler began (Forward); forwards counts
	// the replies written into handled slots this round.
	handled         *Message
	outbox          []Message
	first, forwards int
	evals           int64
	cache           *PayloadCache
}

// reset readies the context for a new apply round of e, drawing payloads
// through c.
func (ax *ApplyContext) reset(e *Engine, c *PayloadCache) {
	ax.engine = e
	ax.cycle = e.cycle
	ax.cache = c
	ax.outbox = ax.outbox[:0]
	ax.forwards, ax.evals = 0, 0
}

// Cycle returns the number of completed cycles, i.e. the logical timestamp
// of the cycle being applied (the same stamp Propose saw).
func (ax *ApplyContext) Cycle() int64 { return ax.cycle }

// Send posts a follow-up message from the handled node, delivered in the
// next apply round of the same cycle — the reply leg of a symmetric
// exchange. Ownership of data transfers to the receiver, exactly as with
// Proposals.Send. Follow-ups are re-canonicalized across workers by the
// triggering message's canonical index, so their delivery order is
// independent of the apply worker count.
func (ax *ApplyContext) Send(to NodeID, slot int, data any) {
	ax.outbox = append(ax.outbox, Message{From: ax.self, To: to, Slot: int32(slot), trigger: ax.trigger, Data: data})
}

// Forward is Send for the payload the handler received, or a pointer
// conversion of it to a type of its shape: the reply travels in the
// request, and takes the request's round slot unless the handler already
// posted a follow-up (then the slot drops its reference and the reply
// joins the outbox). Either way the payload is still recycled exactly
// once, with the follow-up (from the delay queue, if the net model holds
// it back). Call it at most once per handler call; on an ApplyContext no
// engine handed out it is Send.
func (ax *ApplyContext) Forward(to NodeID, slot int, data any) {
	if h := ax.handled; h != nil {
		if len(ax.outbox) == ax.first {
			*h = Message{From: ax.self, To: to, Slot: int32(slot), trigger: forwarded, Data: data}
			ax.forwards++
			return
		}
		h.Data = nil
	}
	ax.Send(to, slot, data)
}

// takeForwards moves the n replies Forward marked in round into the next
// round. With no other follow-up posted (next is empty) the round is built
// in place: the marked slots move to the front of round, in order, and
// the finished legs they displace stay behind for releaseApplyScratch.
// Otherwise they are appended to next, tagged with their slot index as
// trigger, and their slots emptied.
func takeForwards(round, next []Message, n int) []Message {
	inPlace := len(next) == 0
	for i, j := 0, 0; j < n && i < len(round); i++ {
		if round[i].trigger != forwarded {
			continue
		}
		if inPlace {
			round[i].trigger = int32(j)
			if i != j {
				round[i], round[j] = round[j], round[i]
			}
			next = round[:j+1]
		} else {
			round[i].trigger = int32(i)
			next = append(next, round[i])
			round[i] = Message{}
		}
		j++
	}
	return next
}

// CountEvals adds k objective evaluations to the engine's global counter
// (aggregated race-free at the round barrier; see Engine.Evals).
func (ax *ApplyContext) CountEvals(k int64) { ax.evals += k }

// Payloads returns the worker's payload cache, which a handler passes to
// FreeList.Get. An ApplyContext no engine handed out has none, and Get
// then allocates.
func (ax *ApplyContext) Payloads() *PayloadCache { return ax.cache }
