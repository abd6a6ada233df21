// Package sim is a discrete simulator for large P2P networks, equivalent in
// role to PeerSim, which the paper used for its evaluation. It offers two
// execution models:
//
//   - a cycle-driven engine (Engine): in each cycle every live node's
//     protocols are stepped once, like PeerSim's CDSimulator but with a
//     two-phase exchange model (see exchange.go) that shards both the
//     propose and the apply work across a persistent pool of worker
//     goroutines while keeping every trace bit-identical to a
//     single-threaded run. This is what the paper's experiments use.
//   - an event-driven engine (EventEngine, see events.go): a time-ordered
//     event heap with configurable link latency and message loss, for
//     experiments where asynchrony matters.
//
// Determinism: given the same seed, node count and protocol stack, a run
// produces the identical trace — for any propose-worker and apply-worker
// count, 1×1 included. Each node owns a split RNG stream so that inspecting
// the network between cycles or reordering unrelated code does not perturb
// results, and so that stepping nodes on parallel workers neither races nor
// changes the per-node draw sequence.
package sim

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"gossipopt/internal/rng"
)

// NodeID identifies a simulated node. IDs are 32-bit and never reused
// within a run, so a crashed node's ID never names another node later.
type NodeID int32

// Protocol is one layer of a node's protocol stack in the cycle-driven
// model. An implementation provides the two-phase exchange contract of
// exchange.go: Proposer (node-local work on parallel propose workers) and
// usually Receiver/Undeliverable (node-local delivery handling on parallel
// apply workers). The historical sequential CycleStepper contract is gone:
// every message of every protocol flows through the mailbox, so delivery
// filters (partitions) and the Delivered/Dropped counters apply uniformly,
// and no phase of a cycle is serial.
//
// Protocol is intentionally untyped (a slot may hold a passive service
// that other protocols query, e.g. a static topology), so a drifted method
// signature compiles and the engine silently skips the protocol. Guard
// against that with a compile-time assertion next to every implementation,
// as the bundled protocols do:
//
//	var _ sim.Proposer = (*MyProto)(nil)
type Protocol interface{}

// Node is one simulated peer. Protocol state lives in the Protocols slice;
// slot indices are assigned by the experiment setup and shared across all
// nodes (slot 0 might be the topology service, slot 1 the optimizer, ...).
// Nodes live in the engine's dense arena; a *Node stays valid for the
// engine's lifetime.
type Node struct {
	ID    NodeID
	Alive bool
	// RNG is the node's private random stream.
	RNG *rng.RNG
	// Protocols holds one instance per protocol slot.
	Protocols []Protocol
}

// Protocol returns the protocol instance in the given slot.
func (n *Node) Protocol(slot int) Protocol { return n.Protocols[slot] }

// Engine is the cycle-driven simulation engine.
type Engine struct {
	rng *rng.RNG
	// arena stores every node, densely indexed by NodeID (IDs are
	// monotonic and never reused), replacing the historical
	// map[NodeID]*Node + ID-order slice double bookkeeping.
	arena nodeArena
	cycle int64

	// liveIdx is the maintained live index: every live node, in ID order.
	// Crash/Revive only mark it dirty; ensureLive rebuilds it lazily with
	// one arena scan, into the spare buffer so an iteration over the
	// previous index (ForEachLive callbacks that crash nodes) survives the
	// rebuild. Steady-state cycles touch it read-only, so the live
	// snapshot, LiveNodes, ForEachLive and RandomLiveNode cost no per-call
	// allocation and no map walk.
	liveIdx   []*Node
	liveSpare []*Node
	liveDirty bool

	// live is the maintained count of live nodes (kept by AddNode, Crash
	// and Revive so LiveCount is O(1); churn models call it per node).
	live int
	// evals is the maintained count of objective evaluations, fed by
	// Proposals.CountEvals and ApplyContext.CountEvals at each phase
	// barrier so budget checks are O(1) instead of an O(n) scan per cycle.
	evals int64

	// workers is the propose-phase parallelism; applyWorkers, when
	// positive, overrides it for the apply phase (see SetWorkers /
	// SetApplyWorkers).
	workers      int
	applyWorkers int

	// pool is the persistent worker pool both phases run on; it grows to
	// the largest parallelism requested and never spawns goroutines in the
	// per-cycle steady state.
	pool *workerPool

	// churn, when non-nil, is applied at the start of every cycle.
	churn ChurnModel
	// makeNode builds the protocol stack for a (re)joining node.
	makeNode func(n *Node)

	// filter, when non-nil, gates message delivery (network partitions).
	filter DeliveryFilter
	// netmod, when non-nil, judges every deliverable leg (loss, delay,
	// corruption, Byzantine behaviors; see netmodel.go); netRNG is its
	// dedicated stream, split lazily from the engine RNG on the first
	// SetNetModel so model-free runs keep their historical traces.
	netmod NetModel
	netRNG *rng.RNG
	// delayQ holds delayed legs until their release cycle; each re-enters
	// the canonical list of the cycle it is released into.
	delayQ []delayedMsg
	// delivered/dropped count apply-phase deliveries and messages lost to
	// dead destinations or the delivery filter, reply legs included;
	// delayed/corrupted count the net model's delay and corruption
	// verdicts (a corrupted leg also counts as dropped, a delayed one as
	// delivered or dropped at its actual delivery).
	delivered, dropped int64
	delayed, corrupted int64

	// scratch buffers reused across cycles; outScratch[0] is the canonical list.
	outScratch []Proposals
	applyCtxs  []ApplyContext
	// caches holds one payload cache per pool worker (see freelist.go).
	// Worker w's Proposals and ApplyContext both draw from caches[w] — the
	// phases never overlap — and the coordinator's, caches[0], also takes
	// the end-of-cycle release. flushCaches empties them at every barrier.
	caches []PayloadCache

	// Apply-round scratch (see applyRound), all index-only: jobKeys holds
	// one routing key per message of the round, in canonical order;
	// jobOrder the canonical indices of the routed jobs, sorted by handling
	// node; nodeJobs one counter per node ever created (the counting
	// sort's buckets); spans the workers' windows into jobOrder.
	jobKeys  []int32
	jobOrder []int32
	nodeJobs []int32
	spans    []int32
	// round is the round being dispatched, and spanFn the applySpan method
	// value bound once, so handing a round to the pool allocates no
	// closure.
	round  []Message
	spanFn func(w int)

	// Instrumentation accumulators (see stats.go). All are plain
	// coordinator-owned fields mutated on the hot path without atomics;
	// publishStats copies them into the race-safe snapshot once per
	// cycle.
	proposeNanos, applyNanos int64
	applyRounds, applyJobs   int64
	applyBatches             int64
	payloadsRecycled         int64
	flHits, flMisses         int64
	shardedRounds            int64
	shardMinSum, shardMaxSum int64
	shardMeanSum             float64
	liveRebuilds             int64
	// stats is the atomic snapshot behind Engine.Stats.
	stats engineStats
}

// delayedMsg is one leg held back by a FateDelay verdict: the message,
// carrying its payload, and the cycle whose apply phase re-admits it.
type delayedMsg struct {
	release int64
	msg     Message
}

// NewEngine creates an empty engine with a deterministic RNG stream.
func NewEngine(seed uint64) *Engine {
	e := &Engine{
		rng:     rng.New(seed),
		workers: 1,
		pool:    newWorkerPool(),
	}
	e.spanFn = e.applySpan
	return e
}

// Close releases the engine's worker pool. Optional: a dropped engine's
// pool is reclaimed by a finalizer backstop, but callers that build many
// engines (campaign runners) close deterministically. The engine must not
// run again after Close.
func (e *Engine) Close() { e.pool.shutdown() }

// RNG exposes the engine's private random stream (for setup code).
func (e *Engine) RNG() *rng.RNG { return e.rng }

// Cycle returns the number of completed cycles.
func (e *Engine) Cycle() int64 { return e.cycle }

// SetChurn installs a churn model applied at the start of each cycle.
func (e *Engine) SetChurn(c ChurnModel) { e.churn = c }

// SetDeliveryFilter installs (or, with nil, removes) the delivery filter
// consulted for every apply-phase message — the partition/heal hook for
// scripted scenarios. Every leg of an exchange is judged on its own,
// replies included, so a directional filter (SplitGroupsOneWay) models a
// one-way cut. Blocked messages take the same undeliverable path as
// messages to dead nodes: the sender's Undeliverable hook fires.
func (e *Engine) SetDeliveryFilter(f DeliveryFilter) { e.filter = f }

// SetNetModel installs (or, with nil, removes) the per-link network model
// judging every deliverable leg after the delivery filter (see
// netmodel.go for the fates and the determinism argument). The first
// installation splits a dedicated RNG stream off the engine RNG — one
// engine-stream draw, made exactly once per engine and only for runs that
// ever install a model, so model-free traces are bit-identical to
// historical ones. Swapping models mid-run keeps the stream: a scripted
// model change is itself deterministic.
func (e *Engine) SetNetModel(m NetModel) {
	e.netmod = m
	if m != nil && e.netRNG == nil {
		e.netRNG = e.rng.Split()
	}
}

// Delivered returns the count of apply-phase messages delivered to a live,
// reachable destination (reply legs included). Coordinator-side accessor:
// like every counter it is also folded into the Stats snapshot, which is
// what concurrent readers must use.
func (e *Engine) Delivered() int64 { return e.delivered }

// Dropped returns the count of apply-phase messages lost to a dead
// destination, to the delivery filter (partitions), or to a net-model
// drop/blackhole/corrupt verdict, reply legs included. Coordinator-side
// accessor; concurrent readers use Stats.
func (e *Engine) Dropped() int64 { return e.dropped }

// Delayed returns the count of legs the net model held back for later
// cycles. Coordinator-side accessor; concurrent readers use Stats.
func (e *Engine) Delayed() int64 { return e.delayed }

// Corrupted returns the count of legs the net model garbled (each also
// counted in Dropped). Coordinator-side accessor; concurrent readers use
// Stats.
func (e *Engine) Corrupted() int64 { return e.corrupted }

// SetWorkers sets the number of pool workers stepping nodes during the
// propose phase (values < 1 mean 1) — and, unless SetApplyWorkers has
// overridden it, the apply-phase parallelism too. The trace is
// bit-identical for every worker count; workers only change wall-clock
// speed.
func (e *Engine) SetWorkers(w int) {
	if w < 1 {
		w = 1
	}
	e.workers = w
}

// Workers returns the configured propose-phase parallelism.
func (e *Engine) Workers() int { return e.workers }

// SetApplyWorkers overrides the apply-phase parallelism independently of
// the propose phase (values < 1 mean 1). Until it is called, the apply
// phase follows SetWorkers. Traces are bit-identical for every
// (propose workers × apply workers) combination.
func (e *Engine) SetApplyWorkers(w int) {
	if w < 1 {
		w = 1
	}
	e.applyWorkers = w
}

// ApplyWorkers returns the effective apply-phase parallelism.
func (e *Engine) ApplyWorkers() int {
	if e.applyWorkers > 0 {
		return e.applyWorkers
	}
	return e.workers
}

// Evals returns the engine-maintained count of objective evaluations
// (reported by protocols through Proposals.CountEvals or
// ApplyContext.CountEvals). Evaluations of since-crashed nodes remain
// counted. O(1).
func (e *Engine) Evals() int64 { return e.evals }

// CountEvals adds k evaluations to the engine counter. Setup code may call
// it directly; phase code must use Proposals.CountEvals or
// ApplyContext.CountEvals instead.
func (e *Engine) CountEvals(k int64) { e.evals += k }

// SetNodeFactory installs the function used to populate the protocol stack
// of nodes created by AddNode or by churn-driven joins.
func (e *Engine) SetNodeFactory(f func(n *Node)) { e.makeNode = f }

// AddNode creates a new live node, populates its protocol stack via the
// node factory (if set) and returns it. The node turns live only after the
// factory ran, so factory code (bootstrap peer sampling) observes the
// population without it — exactly as when nodes were registered after the
// factory in the map era.
func (e *Engine) AddNode() *Node {
	n := e.arena.alloc()
	n.RNG = e.rng.Split()
	if e.makeNode != nil {
		e.makeNode(n)
	}
	e.arena.setAlive(n, true)
	e.live++
	if !e.liveDirty {
		// New IDs are strictly increasing, so appending keeps the live
		// index sorted; a dirty index is rebuilt from the arena on next
		// use and picks the node up then.
		e.liveIdx = append(e.liveIdx, n)
	}
	return n
}

// AddNodes creates count nodes and returns them.
func (e *Engine) AddNodes(count int) []*Node {
	out := make([]*Node, count)
	for i := range out {
		out[i] = e.AddNode()
	}
	return out
}

// Node returns the node with the given ID, or nil if it does not exist.
func (e *Engine) Node(id NodeID) *Node { return e.arena.at(id) }

// Crash marks the node as dead. Dead nodes are not stepped and are skipped
// by RandomLiveNode. The node's state is retained so that rejoin semantics
// can be modelled by the caller if desired.
func (e *Engine) Crash(id NodeID) {
	if n := e.arena.at(id); n != nil && n.Alive {
		e.arena.setAlive(n, false)
		e.live--
		e.liveDirty = true
	}
}

// Revive marks a crashed node as live again.
func (e *Engine) Revive(id NodeID) {
	if n := e.arena.at(id); n != nil && !n.Alive {
		e.arena.setAlive(n, true)
		e.live++
		e.liveDirty = true
	}
}

// LiveCount returns the number of live nodes. O(1): the count is
// maintained by AddNode/Crash/Revive, so per-node churn checks do not turn
// a cycle quadratic.
func (e *Engine) LiveCount() int { return e.live }

// Size returns the total number of nodes ever created and not removed.
func (e *Engine) Size() int { return e.arena.len() }

// ensureLive rebuilds the live index if Crash/Revive invalidated it. The
// rebuild scans the arena once, into the spare buffer (swapped with the
// old index) so an in-flight iteration over the previous index is not
// clobbered by one nested rebuild.
func (e *Engine) ensureLive() {
	if !e.liveDirty {
		return
	}
	e.liveRebuilds++
	idx := e.liveSpare[:0]
	for ci := range e.arena.chunks {
		c := e.arena.chunks[ci]
		for i := range c {
			if c[i].Alive {
				idx = append(idx, &c[i])
			}
		}
	}
	e.liveSpare = e.liveIdx
	e.liveIdx = idx
	e.liveDirty = false
}

// AllNodes returns every node ever created, dead or alive, in ID order.
// It allocates a fresh slice; hot paths use AppendAllNodes.
func (e *Engine) AllNodes() []*Node {
	return e.AppendAllNodes(make([]*Node, 0, e.arena.len()))
}

// AppendAllNodes appends every node, dead or alive, in ID order onto buf
// and returns the extended slice — the allocation-free variant of AllNodes
// for callers that keep a scratch buffer across cycles.
func (e *Engine) AppendAllNodes(buf []*Node) []*Node {
	for ci := range e.arena.chunks {
		c := e.arena.chunks[ci]
		for i := range c {
			buf = append(buf, &c[i])
		}
	}
	return buf
}

// LiveNodes returns all live nodes in ID order (deterministic). It
// allocates a fresh slice; hot paths use AppendLiveNodes.
func (e *Engine) LiveNodes() []*Node {
	e.ensureLive()
	return append(make([]*Node, 0, len(e.liveIdx)), e.liveIdx...)
}

// AppendLiveNodes appends all live nodes in ID order onto buf and returns
// the extended slice — the allocation-free variant of LiveNodes for
// callers that keep a scratch buffer across cycles (churn models, scenario
// event sampling).
func (e *Engine) AppendLiveNodes(buf []*Node) []*Node {
	e.ensureLive()
	return append(buf, e.liveIdx...)
}

// ForEachLive calls f for every live node in ID order. Liveness is
// re-checked at visit time, so a callback crashing a later node keeps that
// node from being visited.
func (e *Engine) ForEachLive(f func(n *Node)) {
	e.ensureLive()
	idx := e.liveIdx
	for _, n := range idx {
		if n.Alive {
			f(n)
		}
	}
}

// RandomLiveNode returns a uniformly random live node different from
// exclude (pass -1 to allow any). Returns nil if no eligible node exists.
// This is the simulator-level oracle; protocols that must be realistic use
// the peer-sampling service instead.
//
// The draw consumes exactly one engine-RNG value with the same modulus as
// the historical build-a-candidate-slice implementation — the excluded
// node's index is located by binary search and skipped arithmetically — so
// traces are unchanged while the call allocates nothing.
func (e *Engine) RandomLiveNode(exclude NodeID) *Node {
	e.ensureLive()
	idx := e.liveIdx
	m := len(idx)
	pos := m // sentinel: nothing to skip
	if exclude >= 0 {
		if i, found := slices.BinarySearchFunc(idx, exclude,
			func(n *Node, id NodeID) int { return cmp.Compare(n.ID, id) }); found {
			pos = i
			m--
		}
	}
	if m == 0 {
		return nil
	}
	k := e.rng.Intn(m)
	if k >= pos {
		k++
	}
	return idx[k]
}

// RunCycle executes one cycle of the two-phase exchange model: churn, the
// parallel propose phase, then the parallel apply phase. Threshold stops
// are the caller's (core.Network.RunUntil checks between cycles).
// See exchange.go for the model's contracts and the determinism argument.
func (e *Engine) RunCycle() {
	if e.churn != nil {
		e.churn.Apply(e)
	}
	// Stateful net models (RegionalOutage's Markov chains) advance once
	// per cycle, on the coordinator, from the model's dedicated stream.
	if t, ok := e.netmod.(NetTicker); ok {
		t.Tick(e.cycle, e.netRNG)
	}

	// Snapshot the live population: churn is done for this cycle and
	// handlers cannot crash nodes, so liveness is frozen through both
	// phases and the maintained live index IS the snapshot — no per-cycle
	// copy.
	e.ensureLive()
	live := e.liveIdx

	// Phase 1: parallel propose over contiguous shards. Each worker owns
	// its shard's nodes and a private outbox; concatenating the outboxes
	// in shard order yields the messages in sender-ID order no matter how
	// many workers ran.
	//simcheck:allow determinism phase timing feeds Stats only, never the trace
	phaseStart := time.Now()
	workers := e.workers
	if workers > len(live) {
		workers = len(live)
	}
	if workers < 1 {
		workers = 1
	}
	if cap(e.outScratch) < workers {
		e.outScratch = make([]Proposals, workers)
	}
	outs := e.outScratch[:workers]
	e.growCaches(workers)
	for w := range outs {
		outs[w].msgs = outs[w].msgs[:0]
		outs[w].evals = 0
		outs[w].cache = &e.caches[w]
	}
	e.pool.run(workers, func(w int) {
		px := &outs[w]
		px.cycle = e.cycle
		lo, hi := w*len(live)/workers, (w+1)*len(live)/workers
		for _, n := range live[lo:hi] {
			px.begin(n.ID)
			for _, p := range n.Protocols {
				if pr, ok := p.(Proposer); ok {
					pr.Propose(n, px)
				}
			}
		}
	})
	for w := range outs {
		e.evals += outs[w].evals
	}
	e.flushCaches()
	//simcheck:allow determinism phase timing feeds Stats only, never the trace
	now := time.Now()
	e.proposeNanos += now.Sub(phaseStart).Nanoseconds()
	phaseStart = now

	// Phase 2: deterministic parallel apply. Worker 0's outbox becomes the
	// canonical list: append the other outboxes onto it, shuffle it into
	// the cycle's canonical delivery order with the engine RNG, then
	// deliver in rounds (see applyRound) until no handler posts a
	// follow-up. Each round is built in a prefix of the one before, so the
	// canonical list holds every payload of the cycle, and payload
	// references die — and recyclable payloads return to their free lists —
	// in one place, releaseApplyScratch, once the rounds are done.
	msgs := outs[0].msgs
	for w := 1; w < len(outs); w++ {
		msgs = append(msgs, outs[w].msgs...)
	}
	// Released delayed legs join before the canonical shuffle, so their
	// position in this cycle's delivery order is as seed-determined as
	// everyone else's. The queue compacts in place; vacated tail slots are
	// cleared so a released payload is pinned by nothing but the canonical
	// list that now owns (and will recycle) it.
	if len(e.delayQ) > 0 {
		q := e.delayQ[:0]
		for _, d := range e.delayQ {
			if d.release <= e.cycle {
				msgs = append(msgs, d.msg)
			} else {
				q = append(q, d)
			}
		}
		clear(e.delayQ[len(q):])
		e.delayQ = q
	}
	outs[0].msgs = msgs
	for i := len(msgs) - 1; i > 0; i-- { // rng.Shuffle's draws, no closure
		j := e.rng.Intn(i + 1)
		msgs[i], msgs[j] = msgs[j], msgs[i]
	}
	for round := msgs; len(round) > 0; {
		round = e.applyRound(round)
	}
	e.releaseApplyScratch(outs)
	//simcheck:allow determinism phase timing feeds Stats only, never the trace
	e.applyNanos += time.Since(phaseStart).Nanoseconds()

	e.cycle++
	e.publishStats()
}

// A routing key is all the coordinator records about one message of a
// round: the handling node's ID above two flag bits, or noHandler when no
// handler fires at all (no sender exists, a blackhole swallowed the leg,
// or the leg was delayed). That leaves 29 ID bits, so the arena issues at
// most MaxNodes IDs.
const (
	// keyDeliver selects the destination's Receive; without it the key
	// names the sender, whose Undeliverable hook fires.
	keyDeliver int32 = 1 << iota
	// keyCorrupt has dispatch substitute a Corrupted payload.
	keyCorrupt
	keyShift        = 2
	noHandler int32 = -1
	// MaxNodes is the most nodes an engine holds over its lifetime,
	// initial population and joins together: the IDs a routing key can
	// name.
	MaxNodes = 1 << (31 - keyShift)
)

// route classifies one canonical message on the coordinator: delivered to
// the destination's Receiver when the destination is alive and reachable,
// otherwise bounced to the sender's Undeliverable hook (the failure
// feedback a real initiator would get from a timed-out connection), moving
// the Delivered/Dropped counters deterministically. The delivery filter is
// consulted here, at delivery time, so a partition installed mid-run also
// blocks messages proposed earlier in the same cycle; the net model (when
// installed) judges what the filter let through. m points into the round
// buffer, which keeps owning the payload for end-of-cycle recycling — also
// for a corrupted leg, whose substitute payload exists only in dispatch's
// copy. The one exception is a delayed leg: its payload moves to the delay
// queue and the slot is nilled so this cycle's recycling skips it.
func (e *Engine) route(m *Message) int32 {
	if !e.arena.alive(m.To) || e.filter.blocked(m.From, m.To) {
		e.dropped++
		return e.senderKey(m.From)
	}
	if e.netmod != nil && m.From != m.To && m.trigger != redelivered {
		switch v := e.netmod.Judge(m.From, m.To, e.netRNG); v.Fate {
		case FateDrop:
			e.dropped++
			return e.senderKey(m.From)
		case FateBlackhole:
			e.dropped++
			return noHandler
		case FateDelay:
			e.delayed++
			m.trigger = redelivered
			e.delayQ = append(e.delayQ, delayedMsg{release: e.cycle + max(v.Delay, 1), msg: *m})
			m.Data = nil
			return noHandler
		case FateCorrupt:
			e.corrupted++
			e.dropped++
			return int32(m.To)<<keyShift | keyDeliver | keyCorrupt
		}
	}
	e.delivered++
	return int32(m.To)<<keyShift | keyDeliver
}

// senderKey routes an undeliverable leg back to its sender, dead or alive,
// as long as it exists.
func (e *Engine) senderKey(from NodeID) int32 {
	if e.arena.at(from) == nil {
		return noHandler
	}
	return int32(from) << keyShift
}

// sized returns buf resliced to n elements, reallocated with 1/8 headroom
// — never by doubling — when its capacity falls short. Contents are not
// preserved: every caller overwrites or clears the whole extent.
func sized[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n, n+n/8)
	}
	return buf[:n]
}

// applyRound delivers one non-empty round of messages and returns the
// follow-ups its handlers posted, in the order of their triggers, built in
// place in a prefix of round. One path serves every worker count:
//
//  1. Classify in canonical order. The coordinator routes every message
//     (see route) — liveness, the delivery filter, the net model's draws,
//     the delay queue and the counters all advance exactly as a sequential
//     pass would — and records one routing key per message.
//  2. Dispatch in arena order. A stable counting sort of the canonical
//     indices by handling-node ID yields the job order. Handlers are
//     node-local, so the only order one can observe is the order of its
//     own node's messages, and the stable sort keeps that canonical; the
//     order *between* nodes is free, and ID order is the order in which
//     the nodes, their protocol tables and protocol structs were
//     allocated, so consecutive jobs touch neighbouring memory instead of
//     chasing the canonical shuffle through the heap. Workers take
//     contiguous spans of the job order (see cutSpans), so one node's
//     messages also land on one worker whatever the worker count.
//  3. Take the follow-ups. Each handler posts at most one, written over
//     its trigger's slot (ApplyContext.Forward) and marked there; the
//     marked slots move to the front of round, in order, so the next round
//     lists the follow-ups in their triggers' canonical order, and the
//     finished legs they displace stay behind until releaseApplyScratch.
func (e *Engine) applyRound(round []Message) []Message {
	workers := min(e.ApplyWorkers(), len(round))
	if cap(e.applyCtxs) < workers {
		e.applyCtxs = make([]ApplyContext, workers)
	}
	ctxs := e.applyCtxs[:workers]
	e.growCaches(workers)
	e.applyRounds++

	keys := sized(e.jobKeys, len(round))
	counts := sized(e.nodeJobs, e.arena.len())
	e.jobKeys, e.nodeJobs = keys, counts
	clear(counts)
	jobs := 0
	for i := range round {
		k := e.route(&round[i])
		keys[i] = k
		if k != noHandler {
			counts[k>>keyShift]++
			jobs++
		}
	}

	// Turn the per-node counts into each node's first offset in the job
	// order, then place the jobs; canonical iteration makes the sort
	// stable. Afterwards counts[id] is the END of id's run, which is what
	// cutSpans reads.
	nodes, off := 0, int32(0)
	for id, c := range counts {
		counts[id] = off
		off += c
		if c != 0 {
			nodes++
		}
	}
	order := sized(e.jobOrder, jobs)
	e.jobOrder = order
	for i, k := range keys {
		if k != noHandler {
			id := k >> keyShift
			order[counts[id]] = int32(i)
			counts[id]++
		}
	}
	e.applyJobs += int64(jobs)
	e.applyBatches += int64(nodes)
	e.cutSpans(workers)

	e.round = round
	e.pool.run(workers, e.spanFn)
	e.round = nil
	e.flushCaches()

	forwards := 0
	for w := range ctxs {
		e.evals += ctxs[w].evals
		forwards += ctxs[w].forwards
	}
	return takeForwards(round, forwards)
}

// cutSpans divides the sorted job order among the workers: spans[w] to
// spans[w+1] is worker w's window, cut by cumulative load and moved
// forward to the end of the node the cut falls in, so a node's jobs are
// never split. No span exceeds jobs/workers by more than one node's
// messages; a hotspot node leaves the workers it overshoots idle. Spans
// of rounds on more than one worker feed the shard-load statistics.
func (e *Engine) cutSpans(workers int) {
	spans := sized(e.spans, workers+1)
	e.spans = spans
	jobs := len(e.jobOrder)
	spans[0] = 0
	for w := 1; w < workers; w++ {
		cut := spans[w-1]
		if t := int32(w * jobs / workers); t > cut {
			cut = e.nodeJobs[e.jobKeys[e.jobOrder[t-1]]>>keyShift]
		}
		spans[w] = cut
	}
	spans[workers] = int32(jobs)
	if workers > 1 {
		minLoad, maxLoad := int32(jobs), int32(0)
		for w := 0; w < workers; w++ {
			load := spans[w+1] - spans[w]
			minLoad, maxLoad = min(minLoad, load), max(maxLoad, load)
		}
		e.shardedRounds++
		e.shardMinSum += int64(minLoad)
		e.shardMaxSum += int64(maxLoad)
		e.shardMeanSum += float64(jobs) / float64(workers)
	}
}

// applySpan is the body of one apply worker: it handles the jobs of span
// w in order. The handling node's protocol table is read here, at dispatch
// time, so protocols swapped in after construction are honoured.
func (e *Engine) applySpan(w int) {
	ax := &e.applyCtxs[w]
	ax.reset(e, &e.caches[w])
	keys, round := e.jobKeys, e.round
	for _, i := range e.jobOrder[e.spans[w]:e.spans[w+1]] {
		k := keys[i]
		n := e.arena.at(NodeID(k >> keyShift))
		m := round[i]
		if k&keyCorrupt != 0 {
			m.Data = Corrupted{}
		}
		if uint(m.Slot) >= uint(len(n.Protocols)) {
			continue
		}
		ax.self, ax.handled = n.ID, &round[i]
		if k&keyDeliver != 0 {
			if r, ok := n.Protocols[m.Slot].(Receiver); ok {
				r.Receive(n, ax, m)
			}
		} else if u, ok := n.Protocols[m.Slot].(Undeliverable); ok {
			u.Undelivered(n, ax, m)
		}
	}
}

// growCaches makes sure there is a payload cache for each worker of the
// phase about to run.
func (e *Engine) growCaches(workers int) {
	if len(e.caches) < workers {
		e.caches = append(e.caches, make([]PayloadCache, workers-len(e.caches))...)
	}
}

// flushCaches is the barrier step of the payload free lists: it empties
// every worker's cache into the depots, so that between phases any worker
// of any engine can draw every idle payload, and folds the caches' hit and
// miss counts into the engine's.
func (e *Engine) flushCaches() {
	for w := range e.caches {
		c := &e.caches[w]
		c.flush()
		e.flHits += c.hits
		e.flMisses += c.misses
		c.hits, c.misses = 0, 0
	}
}

// releaseApplyScratch is the one place a cycle's payload references die.
// First every payload the cycle sent is offered back to its free list —
// each lives in exactly one slot of the canonical list (outs[0]), in which
// every round was built, so Recycle runs exactly once per payload. The
// order is by node, not the canonical shuffle: first every slot the last
// round handed to no node, in slot order, then the last round's jobs in
// descending job order, which applyRound left sorted by handling node in
// jobOrder (its keys cover the first len(jobKeys) slots). In an exchange
// the last round is the replies, handled by their proposers, and the free
// lists are LIFO, so the next propose phase, running in ID order, draws
// each node's payload back in its place of this cycle: its snapshot
// writes, and the reply leg's reads, walk memory in address order (see
// freelist.go). Then the propose outboxes, the only buffers that carry
// payloads, are cleared over their full capacity; otherwise stale entries
// beyond the next cycle's high-water mark would pin delivered payloads for
// the engine's lifetime. The routing keys, the job order, the per-node
// counters and the spans hold only indices, pin nothing, and are
// deliberately not cleared — at n = 10^6 that skips megabytes of per-cycle
// memset.
func (e *Engine) releaseApplyScratch(outs []Proposals) {
	e.growCaches(1)
	c := &e.caches[0]
	msgs, keys, order := outs[0].msgs, e.jobKeys, e.jobOrder
	if len(msgs) == 0 { // no round ran: the keys are an older cycle's
		keys, order = nil, nil
	}
	for i := range msgs {
		if i < len(keys) && keys[i] != noHandler {
			continue
		}
		if recyclePayload(&msgs[i], c) {
			e.payloadsRecycled++
		}
	}
	for t := len(order) - 1; t >= 0; t-- {
		if recyclePayload(&msgs[order[t]], c) {
			e.payloadsRecycled++
		}
	}
	e.flushCaches()
	for w := range outs {
		clear(outs[w].msgs[:cap(outs[w].msgs)])
	}
}

// Run executes cycles cycles.
func (e *Engine) Run(cycles int64) {
	for range cycles {
		e.RunCycle()
	}
}

// String summarizes the engine state.
func (e *Engine) String() string {
	return fmt.Sprintf("sim.Engine{cycle=%d nodes=%d live=%d workers=%d apply=%d}",
		e.cycle, e.Size(), e.LiveCount(), e.workers, e.ApplyWorkers())
}
