package sim

import "gossipopt/internal/rng"

// Per-link network models. A NetModel generalizes the boolean
// DeliveryFilter into a composable per-(sender, receiver) judgment with
// four failure fates: a message leg can be dropped (lost in transit, with
// the sender's Undeliverable feedback), swallowed silently (a Byzantine
// blackhole gives no feedback at all), delayed by whole cycles (the leg
// re-enters a later cycle's apply phase), or corrupted (delivered as a
// Corrupted marker that no protocol can parse, counted as dropped).
//
// The model is consulted in Engine.route, on the coordinator, in the
// cycle's canonical message order — exactly where the delivery filter
// already runs — so every random draw it makes comes from one engine-owned
// stream (see Engine.SetNetModel) in a worker-independent order. That is
// the whole determinism argument: traces stay bit-identical across every
// (propose × apply) worker combination with any model installed.
//
// Judgment order per leg: liveness and the DeliveryFilter first (a dead
// destination or a partition beats the link model), then the NetModel,
// self-messages exempt. A delayed leg is judged by the model exactly once,
// at send time; when it re-enters a later cycle it is re-checked only
// against liveness and the filter then in force — like a packet that left
// the queue before the link went down but arrives after.

// LinkFate is a NetModel's per-leg decision.
type LinkFate uint8

// The leg fates a NetModel can return.
const (
	// FateDeliver lets the leg through unchanged.
	FateDeliver LinkFate = iota
	// FateDrop loses the leg in transit: the sender's Undeliverable hook
	// fires (the timed-out-connection feedback) and Dropped counts it.
	FateDrop
	// FateBlackhole swallows the leg silently: no handler fires at all —
	// the sender never learns — and Dropped counts it. This is the
	// Byzantine absorber; honest loss uses FateDrop.
	FateBlackhole
	// FateDelay holds the leg back Verdict.Delay cycles (minimum 1); it
	// re-enters the apply phase of the release cycle through the canonical
	// shuffle, and Delayed counts it (Delivered/Dropped move at actual
	// delivery).
	FateDelay
	// FateCorrupt garbles the leg: the destination's Receive fires with a
	// Corrupted payload in place of the original (the bundled protocols
	// ignore payload types they do not recognize, modelling a failed
	// checksum), the sender gets no feedback, and the leg counts as
	// Dropped — never Delivered — plus Corrupted.
	FateCorrupt
)

// Verdict is a NetModel's judgment of one message leg.
type Verdict struct {
	Fate LinkFate
	// Delay is the hold-back in whole cycles when Fate is FateDelay;
	// values below 1 mean 1 (a zero-cycle delay would reorder the
	// canonical list, not model latency).
	Delay int64
}

// Corrupted is the payload a corrupted leg delivers in place of the
// original: an unparseable marker, as after a failed checksum. Protocols
// following the bundled convention — type-switch on the payload and
// ignore unknown types — absorb it without state change; a protocol that
// wants to react to garbage can match it explicitly.
type Corrupted struct{}

// NetModel judges message legs. Judge runs on the coordinator goroutine
// in canonical message order; r is the engine's dedicated net-model
// stream (never nil), and every random decision must draw from it so the
// judgment sequence is a pure function of the seed. Implementations may
// keep state (RegionalOutage does) — route is single-goroutine.
type NetModel interface {
	Judge(from, to NodeID, r *rng.RNG) Verdict
}

// NetTicker is the optional per-cycle hook of a stateful NetModel: Tick
// runs once at the start of every cycle (after churn, before propose), on
// the coordinator, with the same net-model stream Judge draws from.
type NetTicker interface {
	Tick(cycle int64, r *rng.RNG)
}

// LossyLinks is an i.i.d. per-link loss and delay model: each leg is lost
// with probability Loss, and each surviving leg is delayed by a whole
// number of cycles drawn uniformly from [DelayMin, DelayMax] (a draw of 0
// delivers in the current cycle). The zero value delivers everything.
type LossyLinks struct {
	// Loss is the per-leg loss probability in [0, 1].
	Loss float64
	// DelayMin and DelayMax bound the per-leg uniform delay draw in
	// cycles; with DelayMax <= 0 no delay is drawn.
	DelayMin, DelayMax int64
}

// Judge implements NetModel.
func (l LossyLinks) Judge(from, to NodeID, r *rng.RNG) Verdict {
	if l.Loss > 0 && r.Bool(l.Loss) {
		return Verdict{Fate: FateDrop}
	}
	if l.DelayMax > 0 {
		lo := l.DelayMin
		if lo < 0 {
			lo = 0
		}
		if d := lo + int64(r.Uint64n(uint64(l.DelayMax-lo+1))); d > 0 {
			return Verdict{Fate: FateDelay, Delay: d}
		}
	}
	return Verdict{Fate: FateDeliver}
}

// RegionalOutage models correlated failures: nodes belong to Regions
// regions by ID mod Regions, and each region is an independent two-state
// Markov chain ticked once per cycle — an up region goes down with
// probability FailProb, a down region recovers with probability
// RecoverProb. While a region is down, every leg into or out of it is
// dropped (FateDrop: senders get failure feedback, as when a datacenter
// falls off the backbone). Construct with NewRegionalOutage.
type RegionalOutage struct {
	regions               int
	failProb, recoverProb float64
	down                  []bool
}

// NewRegionalOutage builds a RegionalOutage over max(regions, 1) regions,
// all initially up.
func NewRegionalOutage(regions int, failProb, recoverProb float64) *RegionalOutage {
	if regions < 1 {
		regions = 1
	}
	return &RegionalOutage{
		regions:     regions,
		failProb:    failProb,
		recoverProb: recoverProb,
		down:        make([]bool, regions),
	}
}

// Tick implements NetTicker: advance every region's Markov chain one step.
func (o *RegionalOutage) Tick(cycle int64, r *rng.RNG) {
	for i := range o.down {
		if o.down[i] {
			o.down[i] = !r.Bool(o.recoverProb)
		} else {
			o.down[i] = r.Bool(o.failProb)
		}
	}
}

// Judge implements NetModel: a leg touching a down region is dropped.
func (o *RegionalOutage) Judge(from, to NodeID, r *rng.RNG) Verdict {
	if o.down[int(uint64(from)%uint64(o.regions))] || o.down[int(uint64(to)%uint64(o.regions))] {
		return Verdict{Fate: FateDrop}
	}
	return Verdict{Fate: FateDeliver}
}

// ByzBehavior is one node's Byzantine repertoire.
type ByzBehavior uint8

// The per-node Byzantine behaviors.
const (
	// ByzDrop blackholes every leg sent to the node: messages are
	// swallowed without feedback (FateBlackhole). The node itself keeps
	// sending — a data sink that starves its peers of replies.
	ByzDrop ByzBehavior = iota + 1
	// ByzDelay delays every leg the node sends by a uniform draw of 1 to 3
	// cycles — a laggard that stays protocol-correct but serves stale
	// state.
	ByzDelay
	// ByzCorrupt garbles every leg the node sends (FateCorrupt) — its
	// messages arrive as unparseable Corrupted payloads.
	ByzCorrupt
)

// Byzantine assigns adversarial behaviors to individual nodes. Honest
// pairs pass through untouched, so it composes with a link model via
// Compose. The zero value has no adversaries; populate it with Set.
type Byzantine struct {
	behavior map[NodeID]ByzBehavior
}

// Set assigns (or, with 0, clears) a node's behavior.
func (b *Byzantine) Set(id NodeID, beh ByzBehavior) {
	if b.behavior == nil {
		b.behavior = make(map[NodeID]ByzBehavior)
	}
	if beh == 0 {
		delete(b.behavior, id)
		return
	}
	b.behavior[id] = beh
}

// Clear removes every assigned behavior.
func (b *Byzantine) Clear() { clear(b.behavior) }

// Len returns the number of nodes with an assigned behavior.
func (b *Byzantine) Len() int { return len(b.behavior) }

// Judge implements NetModel. Receiver blackholing is judged before sender
// behaviors: a leg from a corrupting node into a blackholing one is
// swallowed, not delivered as garbage.
func (b *Byzantine) Judge(from, to NodeID, r *rng.RNG) Verdict {
	if b.behavior[to] == ByzDrop {
		return Verdict{Fate: FateBlackhole}
	}
	switch b.behavior[from] {
	case ByzDelay:
		return Verdict{Fate: FateDelay, Delay: 1 + int64(r.Uint64n(3))}
	case ByzCorrupt:
		return Verdict{Fate: FateCorrupt}
	}
	return Verdict{Fate: FateDeliver}
}

// Compose chains models: a leg is judged by each in order and the first
// non-deliver verdict wins (so an earlier model's drop spends no later
// model's random draws); Tick reaches every NetTicker in the same order.
// nil entries are skipped; composing zero or one effective model returns
// it unwrapped.
func Compose(models ...NetModel) NetModel {
	eff := make([]NetModel, 0, len(models))
	for _, m := range models {
		if m != nil {
			eff = append(eff, m)
		}
	}
	switch len(eff) {
	case 0:
		return nil
	case 1:
		return eff[0]
	}
	return composite(eff)
}

// composite is Compose's chain.
type composite []NetModel

// Judge implements NetModel: first non-deliver verdict wins.
func (c composite) Judge(from, to NodeID, r *rng.RNG) Verdict {
	for _, m := range c {
		if v := m.Judge(from, to, r); v.Fate != FateDeliver {
			return v
		}
	}
	return Verdict{Fate: FateDeliver}
}

// Tick implements NetTicker by forwarding to every ticking member.
func (c composite) Tick(cycle int64, r *rng.RNG) {
	for _, m := range c {
		if t, ok := m.(NetTicker); ok {
			t.Tick(cycle, r)
		}
	}
}
