package sim

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"gossipopt/internal/rng"
)

// fateModel is a test model returning one fixed verdict for every leg.
type fateModel struct{ v Verdict }

func (f fateModel) Judge(from, to NodeID, r *rng.RNG) Verdict { return f.v }

// crossIsland is a test model that drops every leg between the two
// islands of SplitGroups(2), even and odd IDs.
type crossIsland struct{}

func (crossIsland) Judge(from, to NodeID, r *rng.RNG) Verdict {
	if from%2 != to%2 {
		return Verdict{Fate: FateDrop}
	}
	return Verdict{Fate: FateDeliver}
}

func TestNetModelFullLossDropsEverything(t *testing.T) {
	e, protos := buildPingRing(31, 4, 1)
	e.SetNetModel(LossyLinks{Loss: 1})
	e.Run(3)
	for i, p := range protos {
		if p.got != 0 || p.failed != 3 {
			t.Fatalf("node %d under 100%% loss: got=%d failed=%d, want 0/3", i, p.got, p.failed)
		}
	}
	if e.Delivered() != 0 || e.Dropped() != 12 {
		t.Fatalf("counters: delivered=%d dropped=%d, want 0/12", e.Delivered(), e.Dropped())
	}
}

func TestNetModelDelayShiftsDeliveryByExactlyD(t *testing.T) {
	e, protos := buildPingRing(32, 4, 1)
	e.SetNetModel(fateModel{Verdict{Fate: FateDelay, Delay: 2}})
	// Each cycle's pings arrive two cycles later; an always-delay model
	// must not re-delay a released leg (it is judged exactly once).
	e.Run(2)
	for i, p := range protos {
		if p.got != 0 {
			t.Fatalf("node %d: got=%d before any release, want 0", i, p.got)
		}
	}
	if e.Delayed() != 8 || e.Delivered() != 0 {
		t.Fatalf("after 2 cycles: delayed=%d delivered=%d, want 8/0", e.Delayed(), e.Delivered())
	}
	e.Run(3)
	for i, p := range protos {
		if p.got != 3 || p.failed != 0 {
			t.Fatalf("node %d after 5 cycles: got=%d failed=%d, want 3/0 (cycle-0..2 pings released)", i, p.got, p.failed)
		}
	}
	if e.Delivered() != 12 || e.Delayed() != 20 {
		t.Fatalf("after 5 cycles: delivered=%d delayed=%d, want 12/20", e.Delivered(), e.Delayed())
	}
}

func TestNetModelDelayedLegObeysFilterAtRelease(t *testing.T) {
	// A leg delayed before a partition forms must still be blocked when it
	// arrives during the partition — and its sender gets the feedback.
	e, protos := buildPingRing(33, 4, 1)
	e.SetNetModel(fateModel{Verdict{Fate: FateDelay, Delay: 2}})
	e.Run(1) // cycle-0 pings now queued for cycle 2
	e.SetNetModel(nil)
	e.SetDeliveryFilter(SplitGroups(4)) // ring pings all cross islands
	e.Run(2)
	for i, p := range protos {
		if p.got != 0 || p.failed != 3 {
			t.Fatalf("node %d: got=%d failed=%d, want 0 got (partition blocks the released leg too) / 3 failed", i, p.got, p.failed)
		}
	}
}

// recordProto captures every payload its node receives.
type recordProto struct {
	next              NodeID
	payloads          []any
	got, failed, sent int
}

func (p *recordProto) Propose(n *Node, px *Proposals) {
	p.sent++
	px.Send(p.next, 0, fmt.Sprintf("ping-from-%d", n.ID))
}

func (p *recordProto) Receive(n *Node, ax *ApplyContext, msg Message) {
	p.got++
	p.payloads = append(p.payloads, msg.Data)
}

func (p *recordProto) Undelivered(n *Node, ax *ApplyContext, msg Message) { p.failed++ }

func buildRecordRing(seed uint64, n int) (*Engine, []*recordProto) {
	e := NewEngine(seed)
	protos := make([]*recordProto, 0, n)
	e.SetNodeFactory(func(nd *Node) {
		p := &recordProto{next: NodeID((int64(nd.ID) + 1) % int64(n))}
		protos = append(protos, p)
		nd.Protocols = []Protocol{p}
	})
	e.AddNodes(n)
	return e, protos
}

func TestByzantineCorruptDeliversMarkerAndCountsDropped(t *testing.T) {
	e, protos := buildRecordRing(34, 4)
	byz := &Byzantine{}
	byz.Set(0, ByzCorrupt)
	e.SetNetModel(byz)
	e.Run(3)
	// Node 0's pings reach node 1 as Corrupted markers; everyone else's
	// arrive intact. No sender gets failure feedback from corruption.
	for i, p := range protos {
		if p.got != 3 || p.failed != 0 {
			t.Fatalf("node %d: got=%d failed=%d, want 3/0", i, p.got, p.failed)
		}
	}
	for _, d := range protos[1].payloads {
		if _, ok := d.(Corrupted); !ok {
			t.Fatalf("node 1 received %T from the corrupting node, want sim.Corrupted", d)
		}
	}
	for _, d := range protos[2].payloads {
		if _, ok := d.(string); !ok {
			t.Fatalf("honest leg delivered %T, want string", d)
		}
	}
	if e.Corrupted() != 3 || e.Dropped() != 3 || e.Delivered() != 9 {
		t.Fatalf("corrupted=%d dropped=%d delivered=%d, want 3/3/9",
			e.Corrupted(), e.Dropped(), e.Delivered())
	}
}

func TestByzantineBlackholeGivesNoFeedback(t *testing.T) {
	e, protos := buildRecordRing(35, 4)
	byz := &Byzantine{}
	byz.Set(1, ByzDrop)
	e.SetNetModel(byz)
	e.Run(3)
	// Node 0 sends into the blackhole: nothing arrives AND nothing bounces
	// (no Undeliverable), unlike an honest drop.
	if protos[1].got != 0 {
		t.Fatalf("blackhole node received %d messages", protos[1].got)
	}
	if protos[0].failed != 0 {
		t.Fatalf("sender into blackhole got %d Undelivered callbacks, want 0 (silent)", protos[0].failed)
	}
	if e.Dropped() != 3 || e.Delivered() != 9 {
		t.Fatalf("dropped=%d delivered=%d, want 3/9", e.Dropped(), e.Delivered())
	}
}

// lagProto pings its successor with its propose count, which is one more
// than the cycle number, and records how many cycles each ping it receives
// took to arrive.
type lagProto struct {
	next  NodeID
	cycle int
	lags  []int
}

func (p *lagProto) Propose(n *Node, px *Proposals) {
	p.cycle++
	px.Send(p.next, 0, p.cycle)
}

func (p *lagProto) Receive(n *Node, ax *ApplyContext, msg Message) {
	p.lags = append(p.lags, p.cycle-msg.Data.(int))
}

func TestByzantineDelayLagsOneToThreeCycles(t *testing.T) {
	const n, cycles = 4, 60
	e := NewEngine(36)
	protos := make([]*lagProto, n)
	for i, nd := range e.AddNodes(n) {
		protos[i] = &lagProto{next: NodeID((i + 1) % n)}
		nd.Protocols = []Protocol{protos[i]}
	}
	var byz Byzantine
	byz.Set(0, ByzDelay)
	e.SetNetModel(&byz)
	e.Run(cycles)
	if e.Delayed() != cycles {
		t.Fatalf("delayed=%d, want every one of node 0's %d legs", e.Delayed(), cycles)
	}
	// Node 0's legs lag 1, 2 or 3 cycles, and each lag occurs; the last
	// few may still be queued. Honest legs arrive in the cycle they were
	// sent.
	seen := map[int]int{}
	for _, lag := range protos[1].lags {
		if lag < 1 || lag > 3 {
			t.Fatalf("lagged leg arrived %d cycles late, want 1-3", lag)
		}
		seen[lag]++
	}
	if len(seen) != 3 || len(protos[1].lags) < cycles-3 {
		t.Fatalf("lags %v over %d arrivals, want all of 1-3 over at least %d", seen, len(protos[1].lags), cycles-3)
	}
	for i, p := range protos[2:] {
		for _, lag := range p.lags {
			if lag != 0 {
				t.Fatalf("honest leg into node %d lagged %d cycles", i+2, lag)
			}
		}
	}
}

func TestComposeFirstNonDeliverVerdictWins(t *testing.T) {
	r := rng.New(1)
	m := Compose(nil, crossIsland{}, fateModel{Verdict{Fate: FateCorrupt}})
	if v := m.Judge(0, 1, r); v.Fate != FateDrop {
		t.Fatalf("cross-island leg: fate=%v, want FateDrop from the island model", v.Fate)
	}
	if v := m.Judge(0, 2, r); v.Fate != FateCorrupt {
		t.Fatalf("same-island leg: fate=%v, want the later model's FateCorrupt", v.Fate)
	}
	if Compose() != nil || Compose(nil, nil) != nil {
		t.Fatal("empty composition must be nil (no model)")
	}
	single := LossyLinks{Loss: 1}
	if got := Compose(nil, single); got != NetModel(single) {
		t.Fatalf("single-model composition must return it unwrapped, got %T", got)
	}
}

// recyclePayloadT counts its recycles, guarding the delay queue's payload
// ownership: a delayed payload is recycled exactly once, at the end of
// the cycle that finally routed it, never while it waits in the queue.
type recycleCounter struct {
	recycles *int
}

func (r *recycleCounter) Recycle(*PayloadCache) { *r.recycles++ }

type recycleProto struct {
	next     NodeID
	recycles *int
}

func (p *recycleProto) Propose(n *Node, px *Proposals) {
	px.Send(p.next, 0, &recycleCounter{recycles: p.recycles})
}

func (p *recycleProto) Receive(n *Node, ax *ApplyContext, msg Message) {}

func TestDelayedPayloadRecycledExactlyOnce(t *testing.T) {
	e := NewEngine(37)
	var recycles int
	e.SetNodeFactory(func(nd *Node) {
		nd.Protocols = []Protocol{&recycleProto{next: (nd.ID + 1) % 4, recycles: &recycles}}
	})
	e.AddNodes(4)
	e.SetNetModel(fateModel{Verdict{Fate: FateDelay, Delay: 1}})
	e.Run(3)
	// Cycles 0..2 propose 4 payloads each; cycle-0 and cycle-1 payloads
	// were released and recycled, cycle-2 payloads still sit in the queue.
	if recycles != 8 {
		t.Fatalf("recycles=%d after 3 cycles, want 8 (4 still queued)", recycles)
	}
	e.Run(1)
	if recycles != 12 {
		t.Fatalf("recycles=%d after 4 cycles, want 12", recycles)
	}
}

// TestNetModelWorkerGridInvariance: a composed model — i.i.d. loss+delay,
// regional outages ticking a Markov chain, and all three Byzantine
// behaviors — must leave the trace bit-identical across the propose×apply
// worker grid. The per-node receive sequence (sender order and payload
// kinds) is the trace evidence; the counters seal the totals.
func TestNetModelWorkerGridInvariance(t *testing.T) {
	type trace struct {
		Payloads                               [][]string
		Delivered, Dropped, Delayed, Corrupted int64
	}
	run := func(pw, aw int) trace {
		e, protos := buildRecordRing(38, 12)
		e.SetWorkers(pw)
		e.SetApplyWorkers(aw)
		byz := &Byzantine{}
		byz.Set(2, ByzDrop)
		byz.Set(3, ByzDelay)
		byz.Set(5, ByzCorrupt)
		e.SetNetModel(Compose(
			byz,
			NewRegionalOutage(3, 0.2, 0.5),
			LossyLinks{Loss: 0.2, DelayMin: 0, DelayMax: 2},
		))
		e.Run(20)
		tr := trace{
			Delivered: e.Delivered(), Dropped: e.Dropped(),
			Delayed: e.Delayed(), Corrupted: e.Corrupted(),
		}
		for _, p := range protos {
			seq := make([]string, len(p.payloads))
			for i, d := range p.payloads {
				seq[i] = fmt.Sprintf("%v", d)
			}
			tr.Payloads = append(tr.Payloads, seq)
		}
		e.Close()
		return tr
	}
	want := run(1, 1)
	if want.Delayed == 0 || want.Corrupted == 0 || want.Dropped == 0 {
		t.Fatalf("test not exercising the model: %+v", want)
	}
	for _, pw := range []int{2, 8} {
		for _, aw := range []int{1, 2, 8} {
			if got := run(pw, aw); !reflect.DeepEqual(got, want) {
				t.Fatalf("trace diverged at propose=%d apply=%d:\n got %+v\nwant %+v", pw, aw, got, want)
			}
		}
	}
}

// delayAll holds back every leg it judges for one cycle and counts its
// judgments. A leg judged again at its release would be held again and
// never arrive.
type delayAll struct{ judged int }

func (d *delayAll) Judge(from, to NodeID, r *rng.RNG) Verdict {
	d.judged++
	return Verdict{Fate: FateDelay, Delay: 1}
}

// foldLeg names one leg and the cycle it was sent in.
type foldLeg struct {
	id    string
	sent  int64
	reply bool
}

// foldProto sends one request a cycle to a peer drawn from its node's RNG
// and answers each request it receives in a follow-up, so the model judges
// reply legs as well as proposals.
type foldProto struct {
	nodes    int
	received []string
	posted   int
}

func (p *foldProto) Propose(n *Node, px *Proposals) {
	to := NodeID((int(n.ID) + 1 + n.RNG.Intn(p.nodes-1)) % p.nodes)
	px.Send(to, 0, foldLeg{id: fmt.Sprintf("c%dn%d", px.Cycle(), n.ID), sent: px.Cycle()})
	p.posted++
}

func (p *foldProto) Receive(n *Node, ax *ApplyContext, msg Message) {
	leg := msg.Data.(foldLeg)
	p.received = append(p.received, fmt.Sprintf("%s@%d", leg.id, ax.Cycle()-leg.sent))
	if !leg.reply {
		ax.Forward(msg.From, 0, foldLeg{id: leg.id + "/r", sent: ax.Cycle(), reply: true})
		p.posted++
	}
}

// TestDelayedLegsJudgedOnceDeliveredOnce checks the trigger sentinel that
// marks a delayed leg: under a model that delays every leg it judges, each
// leg, reply legs included, is judged once, held one cycle, and delivered
// exactly once at its release, and the receive logs are identical across
// the (propose × apply) worker grid.
func TestDelayedLegsJudgedOnceDeliveredOnce(t *testing.T) {
	const nodes, cycles = 24, 6
	run := func(pw, aw int) [][]string {
		e := NewEngine(39)
		e.SetWorkers(pw)
		e.SetApplyWorkers(aw)
		protos := make([]*foldProto, 0, nodes)
		e.SetNodeFactory(func(nd *Node) {
			p := &foldProto{nodes: nodes}
			protos = append(protos, p)
			nd.Protocols = []Protocol{p}
		})
		e.AddNodes(nodes)
		model := &delayAll{}
		e.SetNetModel(model)
		e.Run(cycles)
		defer e.Close()

		posted, seen := 0, map[string]int{}
		logs := make([][]string, nodes)
		for i, p := range protos {
			posted += p.posted
			logs[i] = p.received
			for _, r := range p.received {
				seen[r]++
			}
		}
		// Requests of cycles 0..4 arrive, and their replies are posted;
		// replies posted in cycles 1..4 arrive. Everything else is queued.
		wantPosted, wantArrived := nodes*cycles+nodes*(cycles-1), nodes*(cycles-1)+nodes*(cycles-2)
		if model.judged != posted || posted != wantPosted || e.Delayed() != int64(posted) {
			t.Fatalf("workers=%d/%d: %d legs posted (want %d), %d judged, %d delayed: each leg must be judged once",
				pw, aw, posted, wantPosted, model.judged, e.Delayed())
		}
		if len(seen) != wantArrived || e.Delivered() != int64(wantArrived) || len(e.delayQ) != posted-wantArrived {
			t.Fatalf("workers=%d/%d: %d distinct legs arrived, %d delivered, %d queued; want %d arrived",
				pw, aw, len(seen), e.Delivered(), len(e.delayQ), wantArrived)
		}
		for r, k := range seen {
			if k != 1 || !strings.HasSuffix(r, "@1") {
				t.Fatalf("workers=%d/%d: leg %s arrived %d times, want once, one cycle after it was sent", pw, aw, r, k)
			}
		}
		return logs
	}
	want := run(1, 1)
	for _, pw := range []int{1, 2, 8} {
		for _, aw := range []int{1, 2, 8} {
			if got := run(pw, aw); !reflect.DeepEqual(got, want) {
				t.Fatalf("receive logs diverged at propose=%d apply=%d", pw, aw)
			}
		}
	}
}

// TestLossyLinksVerdictsReplayStream judges 10⁵ legs per configuration at
// small loss rates, with and without a delay range, and requires every
// verdict to be the one a replay of the same seeded stream gives: a Bool
// draw at Loss per leg, then, for a surviving leg, one Uint64n draw over
// the delay range. Dropped legs must also number Loss·10⁵ within five
// standard deviations, so a model that skips small losses fails twice.
func TestLossyLinksVerdictsReplayStream(t *testing.T) {
	const legs = 100_000
	for _, loss := range []float64{0.001, 0.01, 0.05} {
		for _, delay := range [][2]int64{{0, 0}, {0, 2}, {1, 3}} {
			l := LossyLinks{Loss: loss, DelayMin: delay[0], DelayMax: delay[1]}
			seed := uint64(loss*1e6) + uint64(delay[1])
			r, replay := rng.New(seed), rng.New(seed)
			drops := 0
			for i := 0; i < legs; i++ {
				want := Verdict{Fate: FateDeliver}
				if replay.Bool(loss) {
					want = Verdict{Fate: FateDrop}
					drops++
				} else if l.DelayMax > 0 {
					if d := l.DelayMin + int64(replay.Uint64n(uint64(l.DelayMax-l.DelayMin+1))); d > 0 {
						want = Verdict{Fate: FateDelay, Delay: d}
					}
				}
				if got := l.Judge(NodeID(i), NodeID(i+1), r); got != want {
					t.Fatalf("%+v leg %d: verdict %+v, want %+v", l, i, got, want)
				}
			}
			if mean := loss * legs; math.Abs(float64(drops)-mean) > 5*math.Sqrt(mean) {
				t.Errorf("%+v: %d of %d legs dropped, want %.0f ± %.0f", l, drops, legs, mean, 5*math.Sqrt(mean))
			}
		}
	}
}
