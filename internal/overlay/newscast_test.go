package overlay

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"slices"
	"testing"

	"gossipopt/internal/rng"
	"gossipopt/internal/sim"
)

// buildNewscastNet creates an engine with n nodes running Newscast in slot 0.
func buildNewscastNet(seed uint64, n, c int) *sim.Engine {
	e := sim.NewEngine(seed)
	e.AddNodes(n)
	InitNewscast(e, 0, c)
	// Churn-joined nodes also need an instance: bootstrap from a random
	// live node, as a real deployment's bootstrap service would.
	e.SetNodeFactory(func(nd *sim.Node) {
		nc := NewNewscast(nd.ID, c, 0)
		if b := e.RandomLiveNode(nd.ID); b != nil {
			nc.Bootstrap([]sim.NodeID{b.ID})
		}
		nd.Protocols = []sim.Protocol{nc}
	})
	return e
}

func TestNewscastConnectivity(t *testing.T) {
	e := buildNewscastNet(1, 200, 20)
	e.Run(30)
	g := Snapshot(e, 0)
	if !IsConnected(g) {
		t.Fatalf("overlay disconnected: components %v", ConnectedComponents(g))
	}
}

func TestNewscastViewsFillUp(t *testing.T) {
	e := buildNewscastNet(2, 100, 20)
	e.Run(20)
	e.ForEachLive(func(n *sim.Node) {
		nc := n.Protocol(0).(*Newscast)
		if nc.View().Len() < 15 {
			t.Fatalf("node %d view has only %d entries after 20 cycles", n.ID, nc.View().Len())
		}
	})
}

func TestNewscastNoSelfNoDead(t *testing.T) {
	e := buildNewscastNet(3, 100, 10)
	e.Run(10)
	// Crash a third of the network, let the overlay heal.
	for id := sim.NodeID(0); id < 33; id++ {
		e.Crash(id)
	}
	e.Run(40)
	deadRefs := 0
	totalRefs := 0
	e.ForEachLive(func(n *sim.Node) {
		nc := n.Protocol(0).(*Newscast)
		for _, d := range nc.View().Descriptors() {
			if d.ID == n.ID {
				t.Fatalf("node %d has itself in view", n.ID)
			}
			totalRefs++
			if tgt := e.Node(d.ID); tgt == nil || !tgt.Alive {
				deadRefs++
			}
		}
	})
	// Self-healing: stale descriptors must have (almost) disappeared.
	if frac := float64(deadRefs) / float64(totalRefs); frac > 0.05 {
		t.Fatalf("%.1f%% of view entries still point at dead nodes after healing", frac*100)
	}
}

func TestNewscastHealsAfterMassCrash(t *testing.T) {
	e := buildNewscastNet(4, 300, 20)
	e.Run(20)
	// Kill 50 % of the network.
	live := e.LiveNodes()
	for i, n := range live {
		if i%2 == 0 {
			e.Crash(n.ID)
		}
	}
	e.Run(30)
	g := Snapshot(e, 0)
	if !IsConnected(g) {
		t.Fatalf("overlay failed to heal after 50%% crash: components %v", ConnectedComponents(g))
	}
}

func TestNewscastJoinersIntegrate(t *testing.T) {
	e := buildNewscastNet(5, 50, 10)
	e.Run(10)
	joiner := e.AddNode() // node factory bootstraps from node 0
	e.Run(15)
	nc := joiner.Protocol(0).(*Newscast)
	if nc.View().Len() < 5 {
		t.Fatalf("joiner's view has %d entries after 15 cycles", nc.View().Len())
	}
	// The joiner must also be known by others: no live node, the joiner
	// included, is in no live view.
	if h := Health(e, 0); h.Orphans != 0 {
		t.Fatalf("%d live nodes are in no live view: %+v", h.Orphans, *h)
	}
}

func TestNewscastRandomGraphShape(t *testing.T) {
	e := buildNewscastNet(6, 400, 20)
	e.Run(40)
	g := Snapshot(e, 0)
	out := 0
	for _, nbrs := range g {
		out += len(nbrs)
	}
	// Out-degree is bounded by C; after warmup it should be close to C.
	if avg := float64(out) / float64(len(g)); avg < 17 || avg > 20 {
		t.Fatalf("avg out-degree %.2f, want ≈ 20", avg)
	}
	// In-degree should concentrate near C (no superhubs).
	if h := Health(e, 0); h.InMax > 5*20 {
		t.Fatalf("max in-degree %d indicates hub formation", h.InMax)
	}
	// Path length should be short (log n / log c ≈ 2).
	if apl, ok := AvgPathLength(g, 50); !ok || apl > 4 {
		t.Fatalf("avg path length %.2f (ok=%v), want < 4", apl, ok)
	}
	// Newscast's full view exchange leaves both partners with nearly
	// identical views, so clustering is elevated above a pure random
	// graph (2c/n = 0.1 here) — Jelasity et al. report the same effect.
	// It must still stay far below lattice-like values (~0.6+).
	if cc := ClusteringCoefficient(g); cc > 0.45 {
		t.Fatalf("clustering coefficient %.3f, want < 0.45", cc)
	}
}

func TestNewscastSamplePeerEmpty(t *testing.T) {
	nc := NewNewscast(1, 5, 0)
	if _, ok := nc.SamplePeer(nil); ok {
		t.Fatal("SamplePeer on empty view returned ok")
	}
}

func TestNewscastUnderContinuousChurn(t *testing.T) {
	e := buildNewscastNet(7, 200, 20)
	e.Run(10)
	e.SetChurn(&sim.RateChurn{CrashProb: 0.01, JoinPerCycle: 2, MinLive: 50})
	e.Run(50)
	g := Snapshot(e, 0)
	cc := ConnectedComponents(g)
	if len(cc) == 0 {
		t.Fatal("empty overlay")
	}
	// The giant component must cover nearly all live nodes.
	if frac := float64(cc[0]) / float64(e.LiveCount()); frac < 0.95 {
		t.Fatalf("giant component covers only %.1f%% under churn", frac*100)
	}
}

// TestNewscastExchangeMatchesReference drives random exchanges through the
// handlers and through the construction they replaced — the sender's
// snapshot plus both fresh self-descriptors, folded in by the sort-the-union
// referenceMerge — and requires equal, strictly sorted views after every
// leg, and replies that carry the pre-merge view. Populations smaller and
// larger than c give short, empty and full views, initiators the receiver
// already knows, and self-addressed requests; replies are delivered late
// (their stamp older than what the views hold by then) or never.
//
// Payloads cycle through a real sim.PayloadCache the way an engine cycles
// them: every request is drawn from viewSwapPool and answered in place,
// becoming its own reply, and every reply is recycled once delivered, or
// at once when it is lost. A late reply thus arrives after later requests
// were drawn, filled and recycled — the last-in-first-out magazine hands
// the same few headers out again and again — and must still carry the
// pre-merge view: a reply that shared a buffer with any other payload
// would read another view by then.
func TestNewscastExchangeMatchesReference(t *testing.T) {
	type peer struct {
		node *sim.Node
		nc   *Newscast
		ref  []Descriptor
	}
	type lateReply struct {
		from, to int
		rep      *viewSwapReply
		pre      []Descriptor // the receiver's pre-merge view
		want     []Descriptor // the batch the old construction would have merged
	}
	var pc sim.PayloadCache
	for _, c := range viewCaps {
		for seq := 0; seq < 12; seq++ {
			r := rng.New(uint64(7000*c + seq))
			peers := make([]*peer, []int{1, 3, 30, 80}[seq%4])
			for i := range peers {
				id := sim.NodeID(i)
				p := &peer{node: &sim.Node{ID: id}, nc: NewNewscast(id, c, 0), ref: []Descriptor{}}
				var boot []sim.NodeID
				for k := r.Intn(4); k > 0; k-- { // some views start empty
					boot = append(boot, sim.NodeID(r.Intn(len(peers))))
				}
				p.nc.Bootstrap(boot)
				for _, b := range boot {
					p.ref = referenceMerge(c, p.ref, id, []Descriptor{{ID: b}})
				}
				peers[i] = p
			}
			check := func(leg string, p *peer) {
				t.Helper()
				got := p.nc.view.items
				if !slices.Equal(descriptors(got), p.ref) {
					t.Fatalf("c=%d seq=%d: node %d diverged on the %s leg\n got %v\nwant %v", c, seq, p.node.ID, leg, got, p.ref)
				}
				for i := 1; i < len(got); i++ {
					if !before(got[i-1], got[i]) {
						t.Fatalf("c=%d seq=%d: node %d not strictly sorted after the %s leg: %v", c, seq, p.node.ID, leg, got)
					}
				}
			}
			deliver := func(l lateReply) {
				t.Helper()
				if !slices.Equal(descriptors(l.rep.Descs), l.pre) {
					t.Fatalf("c=%d seq=%d: reply of node %d arrived carrying %v, want the pre-merge view %v",
						c, seq, l.from, l.rep.Descs, l.pre)
				}
				p := peers[l.to]
				p.ref = referenceMerge(c, p.ref, p.node.ID, l.want)
				p.nc.Receive(p.node, nil, sim.Message{From: sim.NodeID(l.from), To: p.node.ID, Data: l.rep})
				check("reply", p)
				l.rep.Recycle(&pc)
			}
			var late []lateReply
			var cycle int64
			for step := 0; step < 300; step++ {
				cycle += int64(r.Intn(2))
				i, j := r.Intn(len(peers)), r.Intn(len(peers)) // i == j: self-addressed
				ini, rcv := peers[i], peers[j]
				sw := viewSwapPool.Get(&pc)
				sw.Descs, sw.Stamp = ini.nc.view.snapshotInto(sw.Descs), cycle
				myDesc := Descriptor{ID: rcv.node.ID, Stamp: cycle}
				peerDesc := Descriptor{ID: ini.node.ID, Stamp: cycle}
				preMerge := slices.Clone(rcv.ref)
				rcv.ref = referenceMerge(c, rcv.ref, rcv.node.ID, append(descriptors(sw.Descs), peerDesc, myDesc))

				if r.Intn(4) == 0 {
					// Through Receive, which posts the reply where only an
					// engine can reach it: this exchange loses its reply leg.
					rcv.nc.Receive(rcv.node, new(sim.ApplyContext), sim.Message{From: ini.node.ID, To: rcv.node.ID, Data: sw})
					check("request", rcv)
					sw.Recycle(&pc)
					continue
				}
				rcv.nc.exchange(ini.node.ID, sw)
				rep := (*viewSwapReply)(sw)
				check("request", rcv)
				if !slices.Equal(descriptors(rep.Descs), preMerge) || rep.Stamp != cycle {
					t.Fatalf("c=%d seq=%d: reply of node %d carries %v stamped %d, want the pre-merge view %v stamped %d",
						c, seq, rcv.node.ID, rep.Descs, rep.Stamp, preMerge, cycle)
				}
				l := lateReply{from: j, to: i, rep: rep, pre: preMerge, want: append(slices.Clip(preMerge), myDesc, peerDesc)}
				if r.Intn(3) == 0 {
					late = append(late, l) // delayed: delivered after later exchanges
				} else {
					deliver(l)
				}
				if len(late) > 0 && r.Intn(4) == 0 {
					deliver(late[0])
					late = late[1:]
				}
			}
		}
	}
}

// viewsDigest folds every live node's view, in ID order, into one hash:
// the trace the shared-pool test compares.
func viewsDigest(e *sim.Engine) uint64 {
	h := uint64(14695981039346656037)
	e.ForEachLive(func(n *sim.Node) {
		for _, d := range n.Protocol(0).(*Newscast).view.items {
			h = (h ^ mix(d)) * 1099511628211
		}
		h = (h ^ uint64(n.ID)) * 1099511628211
	})
	return h
}

// TestNewscastViewsPinned pins the views themselves, not just the metrics
// computed from them: for Newscast at two sizes, 60 cycles under
// churn and 15% link loss, every live node's ID and view (IDs and stamps, in
// order) after each cycle are folded into one FNV-1a digest. Any change to
// the canonical order, the merge or a payload moves them.
//
// Both digests were recorded when a lost leg stopped evicting the partner
// from the initiator's view.
func TestNewscastViewsPinned(t *testing.T) {
	const c, cycles = 20, 60
	for _, tc := range []struct {
		proto    string
		n        int
		delayMax int64
		want     uint64
	}{
		{"newscast", 16, 2, 0x5cbda52076ac814f},
		{"newscast", 1000, 2, 0x103603f77b625359},
	} {
		t.Run(fmt.Sprintf("%s/n=%d/delay=%d", tc.proto, tc.n, tc.delayMax), func(t *testing.T) {
			e := sim.NewEngine(31)
			defer e.Close()
			e.AddNodes(tc.n)
			InitNewscast(e, 0, c)
			e.SetNodeFactory(func(nd *sim.Node) {
				p := NewNewscast(nd.ID, c, 0)
				if b := e.RandomLiveNode(nd.ID); b != nil {
					p.Bootstrap([]sim.NodeID{b.ID})
				}
				nd.Protocols = []sim.Protocol{p}
			})
			e.SetChurn(&sim.RateChurn{CrashProb: 0.01, JoinPerCycle: float64(tc.n) / 50, MinLive: tc.n / 2})
			e.SetNetModel(&sim.LossyLinks{Loss: 0.15, DelayMax: tc.delayMax})
			h := fnv.New64a()
			var buf []byte
			for i := 0; i < cycles; i++ {
				e.RunCycle()
				e.ForEachLive(func(nd *sim.Node) {
					ds := nd.Protocol(0).(*Newscast).View().Descriptors()
					buf = binary.LittleEndian.AppendUint64(buf[:0], uint64(nd.ID))
					buf = binary.LittleEndian.AppendUint64(buf, uint64(len(ds)))
					for _, d := range ds {
						buf = binary.LittleEndian.AppendUint64(buf, uint64(d.ID))
						buf = binary.LittleEndian.AppendUint64(buf, uint64(d.Stamp))
					}
					h.Write(buf)
				})
			}
			if got := h.Sum64(); got != tc.want {
				t.Fatalf("views digest %#x, want %#x", got, tc.want)
			}
		})
	}
}

// TestNewscastEnginesShareFreeLists steps an engine with c=8 views and one
// with c=40 views alternately in one process, so that each draws payload
// buffers the other recycled — too small for the one, oversized for the
// other — and requires the traces they produce alone. The double-release
// detector watches both.
func TestNewscastEnginesShareFreeLists(t *testing.T) {
	const n, cycles = 120, 50
	sim.EnableFreeListDebug(true)
	defer sim.EnableFreeListDebug(false)
	trace := func(e *sim.Engine) uint64 { e.RunCycle(); return viewsDigest(e) }
	alone := map[int][]uint64{}
	for _, c := range []int{8, 40} {
		e := buildNewscastNet(11, n, c)
		for i := 0; i < cycles; i++ {
			alone[c] = append(alone[c], trace(e))
		}
		e.Close()
	}
	small, large := buildNewscastNet(11, n, 8), buildNewscastNet(11, n, 40)
	defer small.Close()
	defer large.Close()
	for i := 0; i < cycles; i++ {
		if got := trace(small); got != alone[8][i] {
			t.Fatalf("cycle %d: the c=8 engine diverged from its solo trace", i)
		}
		if got := trace(large); got != alone[40][i] {
			t.Fatalf("cycle %d: the c=40 engine diverged from its solo trace", i)
		}
	}
	small.ForEachLive(func(nd *sim.Node) {
		if v := nd.Protocol(0).(*Newscast).view; v.Len() > 8 {
			t.Fatalf("node %d of the c=8 engine holds %d descriptors", nd.ID, v.Len())
		}
	})
}

// TestNewscastNoDoubleRelease runs 50 cycles under churn and link loss with
// the free-list double-release detector on: the buffer move of the request
// leg must leave every payload, and every buffer, with exactly one owner.
func TestNewscastNoDoubleRelease(t *testing.T) {
	sim.EnableFreeListDebug(true)
	defer sim.EnableFreeListDebug(false)
	e := buildNewscastNet(12, 300, 20)
	defer e.Close()
	e.SetChurn(&sim.RateChurn{CrashProb: 0.01, JoinPerCycle: 3, MinLive: 100})
	e.SetNetModel(&sim.LossyLinks{Loss: 0.1, DelayMax: 2})
	e.Run(50) // the detector panics at the second release of one pointer
	seen := map[*entry]sim.NodeID{}
	e.ForEachLive(func(n *sim.Node) {
		items := n.Protocol(0).(*Newscast).view.items
		if cap(items) == 0 {
			return
		}
		first := &items[:1][0]
		if other, dup := seen[first]; dup {
			t.Fatalf("nodes %d and %d share one items buffer", other, n.ID)
		}
		seen[first] = n.ID
	})
}

// TestNewscastLossEmptiesNoView: at overlay-vs-linkloss's shape (48 nodes,
// c = 8, 35% loss per leg, 120 cycles) no live view is empty at the end of
// any of 12 seeds, and at most 2 seeds end with a node that no live view
// names. Without eviction an orphan is transient: the node keeps
// initiating, and its next delivered request names it again (one seed of
// the 12 ends with one). An initiator that evicted its partner on each
// lost leg left 11 views empty and 21 nodes unnamed across the 12 seeds,
// 9 of which ended with an orphan, most unnamed for the rest of the run.
func TestNewscastLossEmptiesNoView(t *testing.T) {
	orphaned := 0
	for seed := uint64(1); seed <= 12; seed++ {
		e := buildNewscastNet(seed, 48, 8)
		e.SetNetModel(sim.LossyLinks{Loss: 0.35})
		e.Run(120)
		h := Health(e, 0)
		if h.Empty != 0 {
			t.Errorf("seed %d: %+v", seed, *h)
		}
		if h.Orphans != 0 {
			orphaned++
		}
		e.Close()
	}
	if orphaned > 2 {
		t.Errorf("%d of 12 seeds end with an orphan, want at most 2", orphaned)
	}
}

// TestNewscastHealthUnderCrashChurn: aging alone keeps dead entries rare.
// Under 1% crashes and joins a cycle with no loss, at most 2.5% of the
// live views' entries name dead nodes.
func TestNewscastHealthUnderCrashChurn(t *testing.T) {
	e := buildNewscastNet(13, 1000, 20)
	defer e.Close()
	e.SetChurn(&sim.RateChurn{CrashProb: 0.01, JoinPerCycle: 10, MinLive: 500})
	e.Run(100)
	h := Health(e, 0)
	if h.DeadShare > 0.025 || h.Empty != 0 {
		t.Fatalf("health after 100 cycles of churn: %+v", *h)
	}
}

// TestHealthCounts checks each field on a hand-wired static overlay: 0 → 1,
// 1 → {0, 4}, 2 → 1, 3 → {} and 4 → 1, where node 4 then crashes. Node 3
// is empty; nodes 2 and 3 are orphans; one of the four live views' four
// entries names the dead node; the in-degrees of 0…3 are 1, 2, 0 and 0.
func TestHealthCounts(t *testing.T) {
	e := sim.NewEngine(1)
	defer e.Close()
	links := [][]sim.NodeID{{1}, {0, 4}, {1}, {}, {1}}
	for i, n := range e.AddNodes(len(links)) {
		n.Protocols = []sim.Protocol{&Static{peers: links[i]}}
	}
	e.Crash(4)
	want := ViewHealth{Empty: 1, Orphans: 2, DeadShare: 0.25, InMin: 0, InMedian: 0.5, InMax: 2}
	if h := Health(e, 0); h == nil || *h != want {
		t.Fatalf("Health = %+v, want %+v", h, want)
	}
	if h := Health(e, 1); h != nil {
		t.Fatalf("Health of an empty slot = %+v, want nil", *h)
	}
}
