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
//     state and post at most one follow-up message (a reply) through the
//     ApplyContext. Finally the follow-ups become the next round, in the
//     round's own buffer: each is written into the slot of the message
//     that triggered it (ax.Forward), and the marked slots move to the
//     front, in order. Rounds repeat until no protocol posts a follow-up.
//
// Determinism: because handlers are node-local, the only order a handler can
// observe is the order of its own node's messages, which is the canonical
// order restricted to that node whatever the order between nodes and however
// the spans are cut. A follow-up sits in its trigger's slot, so the next
// round lists the follow-ups in the canonical order of their triggers, which
// is the sequence a sequential pass would have appended. Counters are
// classified on the coordinator, and every apply-phase random draw comes
// from the handled node's private RNG. A run's trace is therefore
// bit-identical for any (propose workers × apply workers) combination, 1×1
// included — sim.TestApplyMatchesSequentialReference checks it against a
// literal one-message-at-a-time engine.
//
// The exchange idiom: symmetric protocols complete a pairwise exchange by
// replying in the next round, in the payload the request brought
// (ax.Forward back to msg.From, the payload rewritten or converted to a
// reply type of its shape), instead of reaching into the initiator
// through the engine. Each leg of the exchange thus crosses the network —
// and the delivery filter — on its own, and an exchange costs one
// payload. A reply that cannot be delivered (a one-way partition) fires
// the replier's Undelivered hook, which is where a protocol compensates
// (gossip.Average rolls its half of the exchange back there, keeping the
// global sum conserved under asymmetric cuts). A request that carries
// nothing to answer in still travels as a payload of the reply's shape
// (gossip.Exchange's ask leg), so the reply has somewhere to go.

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
	// trigger marks two kinds of leg: a leg a net-model delay held back
	// carries redelivered, so its release is checked against liveness and
	// the filter but never judged twice, and a reply Forward wrote into its
	// request's slot carries forwarded until the round ends. The four
	// 32-bit fields pack ahead of Data: a Message is 32 bytes.
	trigger int32
	// Data is the protocol-specific payload. Ownership transfers to the
	// receiver: proposers must not retain or mutate it after Send. A
	// payload implementing Recyclable returns to its free list when the
	// cycle ends (see freelist.go for the full ownership rules), so
	// handlers must not retain it — or slices inside it — across cycles.
	Data any
}

// The marks a Message's trigger may carry besides none.
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
// and ax. To complete a symmetric exchange it replies in the payload it
// received, through ax.Forward — delivered in the next apply round of the
// same cycle — instead of mutating the initiator directly.
type Receiver interface {
	Receive(n *Node, ax *ApplyContext, msg Message)
}

// Undeliverable is implemented by protocols that want failure feedback:
// Undelivered is invoked on the *sender's* protocol instance when the
// destination node is dead or unreachable at delivery time (n is the
// sender) — the failure a real initiator would observe as a timed-out
// connection. Like Receive it runs on an apply worker and must stay
// node-local; it is where a protocol compensates for a half-completed
// exchange whose reply leg died, and it may Forward the bounced payload
// as Receive may the delivered one.
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
// cycle time, counters, payloads, and the slot of the message it handles,
// where its one follow-up goes. That restriction is what makes the order
// between nodes free, and the apply phase shardable by handling node.
type ApplyContext struct {
	cycle int64
	// self is the node currently being handled; follow-ups are sent from
	// it.
	self NodeID
	// handled is the round slot of the message being handled, which
	// Forward overwrites; forwards counts the slots it wrote this round.
	handled  *Message
	forwards int
	evals    int64
	cache    *PayloadCache
}

// reset readies the context for a new apply round of e, drawing payloads
// through c.
func (ax *ApplyContext) reset(e *Engine, c *PayloadCache) {
	ax.cycle = e.cycle
	ax.cache = c
	ax.forwards, ax.evals = 0, 0
}

// Cycle returns the number of completed cycles, i.e. the logical timestamp
// of the cycle being applied (the same stamp Propose saw).
func (ax *ApplyContext) Cycle() int64 { return ax.cycle }

// Forward posts the handled message's one follow-up, delivered in the next
// apply round of the same cycle: the payload the handler received, or a
// pointer conversion of it to a type of its shape, sent from the handled
// node — the reply leg of a symmetric exchange, travelling in its request.
// The follow-up takes the request's round slot, so the payload still has
// one owner and is recycled exactly once, with the follow-up (from the
// delay queue, if the net model holds it back). A second call in the same
// handler call replaces the first. On an ApplyContext no engine handed out
// it drops the follow-up.
func (ax *ApplyContext) Forward(to NodeID, slot int, data any) {
	h := ax.handled
	if h == nil {
		return
	}
	if h.trigger != forwarded {
		ax.forwards++
	}
	*h = Message{From: ax.self, To: to, Slot: int32(slot), trigger: forwarded, Data: data}
}

// takeForwards builds the next round in place: the n follow-ups Forward
// wrote into round move to its front, in order, unmarked, and the
// finished legs they displace stay behind for releaseApplyScratch.
func takeForwards(round []Message, n int) []Message {
	for i, j := 0, 0; j < n; i++ {
		if round[i].trigger != forwarded {
			continue
		}
		round[i].trigger = 0
		if i != j {
			round[i], round[j] = round[j], round[i]
		}
		j++
	}
	return round[:n]
}

// CountEvals adds k objective evaluations to the engine's global counter
// (aggregated race-free at the round barrier; see Engine.Evals).
func (ax *ApplyContext) CountEvals(k int64) { ax.evals += k }

// Payloads returns the worker's payload cache, which a handler passes to
// FreeList.Get. An ApplyContext no engine handed out has none, and Get
// then allocates.
func (ax *ApplyContext) Payloads() *PayloadCache { return ax.cache }
