package overlay

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"gossipopt/internal/rng"
	"gossipopt/internal/sim"
)

func TestViewInsertBasic(t *testing.T) {
	v := NewView(3)
	v.Insert(9, Descriptor{ID: 1, Stamp: 5})
	v.Insert(9, Descriptor{ID: 2, Stamp: 3})
	if v.Len() != 2 {
		t.Fatalf("Len=%d", v.Len())
	}
	if !containsID(v.items, 1) || !containsID(v.items, 2) || containsID(v.items, 3) {
		t.Fatal("Contains wrong")
	}
}

func TestViewExcludesSelf(t *testing.T) {
	v := NewView(3)
	v.Insert(7, Descriptor{ID: 7, Stamp: 100})
	if v.Len() != 0 {
		t.Fatal("view accepted a self-descriptor")
	}
}

func TestViewKeepsFreshestPerID(t *testing.T) {
	v := NewView(3)
	v.Insert(0, Descriptor{ID: 1, Stamp: 5})
	v.Insert(0, Descriptor{ID: 1, Stamp: 9})
	v.Insert(0, Descriptor{ID: 1, Stamp: 2})
	if v.Len() != 1 {
		t.Fatalf("Len=%d, want 1", v.Len())
	}
	if d := v.Descriptors()[0]; d.Stamp != 9 {
		t.Fatalf("kept stamp %d, want 9", d.Stamp)
	}
}

func TestViewCapacityKeepsFreshest(t *testing.T) {
	v := NewView(2)
	v.Merge(0, []Descriptor{
		{ID: 1, Stamp: 1}, {ID: 2, Stamp: 5}, {ID: 3, Stamp: 3},
	})
	if v.Len() != 2 {
		t.Fatalf("Len=%d, want 2", v.Len())
	}
	ids := v.AppendIDs(nil)
	if ids[0] != 2 || ids[1] != 3 {
		t.Fatalf("kept %v, want [2 3] (freshest first)", ids)
	}
}

func TestViewCloneIndependent(t *testing.T) {
	v := NewView(3)
	v.Insert(0, Descriptor{ID: 1, Stamp: 1})
	c := v.Clone()
	c.Insert(0, Descriptor{ID: 2, Stamp: 2})
	if v.Len() != 1 {
		t.Fatal("Clone aliases original")
	}
}

// Property: after any Merge, the view invariants hold — size <= cap, no
// self, no duplicate IDs, sorted freshest-first.
func TestViewInvariants(t *testing.T) {
	r := rng.New(1)
	if err := quick.Check(func(seed uint32, nRaw, capRaw uint8) bool {
		rr := rng.New(uint64(seed) ^ r.Uint64())
		c := int(capRaw%10) + 1
		self := sim.NodeID(rr.Intn(20))
		v := NewView(c)
		for round := 0; round < 5; round++ {
			batch := make([]Descriptor, int(nRaw%30))
			for i := range batch {
				batch[i] = Descriptor{
					ID:    sim.NodeID(rr.Intn(20)),
					Stamp: int64(rr.Intn(100)),
				}
			}
			v.Merge(self, batch)
			if v.Len() > c {
				return false
			}
			seen := map[sim.NodeID]bool{}
			ds := v.Descriptors()
			for i, d := range ds {
				if d.ID == self || seen[d.ID] {
					return false
				}
				seen[d.ID] = true
				if i > 0 && ds[i-1].Stamp < d.Stamp {
					return false
				}
			}
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: merging is idempotent — merging a view's own contents changes
// nothing.
func TestViewMergeIdempotent(t *testing.T) {
	r := rng.New(2)
	if err := quick.Check(func(seed uint32) bool {
		rr := rng.New(uint64(seed) ^ r.Uint64())
		v := NewView(5)
		for i := 0; i < 8; i++ {
			v.Insert(0, Descriptor{ID: sim.NodeID(rr.Intn(10) + 1), Stamp: int64(rr.Intn(50))})
		}
		before := v.Descriptors()
		v.Merge(0, before)
		after := v.Descriptors()
		if len(before) != len(after) {
			return false
		}
		for i := range before {
			if before[i] != after[i] {
				return false
			}
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

// referenceMerge is the sort-the-union Merge this package shipped before
// the linear two-way merge, kept as the independent reference the
// differential tests compare against: copy view and non-self batch into
// one slice, sort it under the canonical order, keep the first occurrence
// of each ID up to c. It differs from the historical body only in testing
// the capacity before appending, so that c <= 0 yields an empty view.
func referenceMerge(c int, items []Descriptor, self sim.NodeID, batch []Descriptor) []Descriptor {
	all := append([]Descriptor(nil), items...)
	for _, d := range batch {
		if d.ID != self {
			all = append(all, d)
		}
	}
	slices.SortFunc(all, func(a, b Descriptor) int {
		if a.Stamp != b.Stamp {
			return cmp.Compare(b.Stamp, a.Stamp)
		}
		if ha, hb := mix(entryOf(a)), mix(entryOf(b)); ha != hb {
			return cmp.Compare(ha, hb)
		}
		return cmp.Compare(a.ID, b.ID)
	})
	seen := make(map[sim.NodeID]struct{}, len(all))
	out := []Descriptor{}
	for _, d := range all {
		if len(out) >= c {
			break
		}
		if _, dup := seen[d.ID]; dup {
			continue
		}
		seen[d.ID] = struct{}{}
		out = append(out, d)
	}
	return out
}

// viewPair drives a View and the reference model through the same
// operations and checks, after every one, that they hold the same
// descriptors and that the view keeps the invariant Merge relies on.
type viewPair struct {
	self sim.NodeID
	v    *View
	ref  []Descriptor
}

func newViewPair(c int, self sim.NodeID) *viewPair {
	return &viewPair{self: self, v: NewView(c), ref: []Descriptor{}}
}

func (p *viewPair) merge(t *testing.T, batch []Descriptor) {
	t.Helper()
	in := slices.Clone(batch)
	p.v.Merge(p.self, batch)
	if !slices.Equal(batch, in) {
		t.Fatalf("Merge modified its batch: %v -> %v", in, batch)
	}
	p.ref = referenceMerge(p.v.Cap(), p.ref, p.self, batch)
	p.check(t)
}

func (p *viewPair) insert(t *testing.T, d Descriptor) {
	t.Helper()
	p.v.Insert(p.self, d)
	p.ref = referenceMerge(p.v.Cap(), p.ref, p.self, []Descriptor{d})
	p.check(t)
}

// mergeSorted drives the path Newscast's reply leg takes — a run that is
// sorted already plus one extra descriptor, no insertion sort — against
// what the reference makes of the same descriptors in one unordered batch.
func (p *viewPair) mergeSorted(t *testing.T, run []Descriptor, x Descriptor) {
	t.Helper()
	run = referenceMerge(len(run), nil, -1, run) // sorted, one descriptor per ID, as a view is
	p.v.mergeInPlace(p.self, entries(run), entryOf(x))
	p.ref = referenceMerge(p.v.Cap(), p.ref, p.self, append(slices.Clone(run), x))
	p.check(t)
}

func (p *viewPair) clone(t *testing.T) {
	t.Helper()
	p.v = p.v.Clone()
	p.check(t)
}

func (p *viewPair) check(t *testing.T) {
	t.Helper()
	got := p.v.Descriptors()
	if !slices.Equal(got, p.ref) {
		t.Fatalf("view diverged from reference (c=%d self=%d)\n got %v\nwant %v", p.v.Cap(), p.self, got, p.ref)
	}
	if len(got) > max(p.v.Cap(), 0) {
		t.Fatalf("view holds %d descriptors, capacity %d", len(got), p.v.Cap())
	}
	for i, d := range got {
		if d.ID == p.self {
			t.Fatalf("view of %d holds its owner: %v", p.self, got)
		}
		// Strictly sorted also means no ID twice with the same stamp; a
		// repeated ID with different stamps differs from the reference.
		if i > 0 && !before(p.v.items[i-1], p.v.items[i]) {
			t.Fatalf("items not strictly sorted at %d: %v", i, got)
		}
	}
}

// entries narrows ds to the entries a view or payload holds.
func entries(ds []Descriptor) []entry {
	out := make([]entry, len(ds))
	for i, d := range ds {
		out[i] = entryOf(d)
	}
	return out
}

// descriptors widens es back to Descriptors.
func descriptors(es []entry) []Descriptor {
	out := make([]Descriptor, len(es))
	for i, e := range es {
		out[i] = e.descriptor()
	}
	return out
}

// viewCaps are the capacities the differential tests run at: the
// degenerate ones, the paper's c=20, one whose views overflow the merges'
// stack buffers only when nearly full, and one past the 254 descriptors
// the dedup table can index, where mergeRuns dedups by scan.
var viewCaps = []int{0, 1, 20, 40, 300}

// TestViewMergeMatchesReferenceCases pins the named edge cases of the
// linear merge against the reference at every capacity.
func TestViewMergeMatchesReferenceCases(t *testing.T) {
	long := make([]Descriptor, 200)
	for i := range long {
		long[i] = Descriptor{ID: sim.NodeID(i * 7 % 90), Stamp: int64(i * 13 % 11)}
	}
	equalStamps := make([]Descriptor, 60)
	for i := range equalStamps {
		equalStamps[i] = Descriptor{ID: sim.NodeID(i), Stamp: 4}
	}
	cases := []struct {
		name    string
		batches [][]Descriptor
	}{
		{"empty", [][]Descriptor{nil, {}}},
		{"unsorted", [][]Descriptor{{{1, 1}, {2, 9}, {3, 5}, {4, 9}, {5, 0}, {6, 7}}}},
		{"duplicate IDs in one batch", [][]Descriptor{{{1, 3}, {1, 8}, {2, 8}, {1, 8}, {2, 1}, {1, 3}}}},
		{"identical descriptor in view and batch", [][]Descriptor{
			{{1, 5}, {2, 5}, {3, 4}},
			{{2, 5}, {3, 4}, {4, 5}, {1, 5}},
		}},
		{"staler and fresher duplicates of view entries", [][]Descriptor{
			{{1, 5}, {2, 5}, {3, 5}},
			{{1, 2}, {2, 9}, {3, 5}},
		}},
		{"self in batch", [][]Descriptor{{{7, 99}, {1, 1}, {7, 0}, {7, 99}}, {{7, 100}}}},
		{"many equal stamps", [][]Descriptor{equalStamps, equalStamps[20:], equalStamps[:30]}},
		{"longer than the stack buffers", [][]Descriptor{long, long[50:], long[:120]}},
		{"newscast exchange", [][]Descriptor{
			{{1, 3}, {2, 3}, {3, 2}, {4, 1}},
			{{5, 4}, {2, 4}, {1, 3}, {6, 2}, {9, 5}, {7, 5}},
		}},
	}
	for _, c := range viewCaps {
		for _, tc := range cases {
			t.Run(fmt.Sprintf("c=%d/%s", c, tc.name), func(t *testing.T) {
				p := newViewPair(c, 7)
				for _, b := range tc.batches {
					p.merge(t, b)
				}
			})
		}
	}
}

// keyCollisions returns the first n pairs of IDs, scanning up from 0, whose
// entries at stamp share an order key: distinct entries that only before
// can order. A birthday search: about 2·10⁵ IDs give three pairs.
func keyCollisions(stamp int32, n int) [][2]sim.NodeID {
	seen := make(map[uint64]sim.NodeID)
	var out [][2]sim.NodeID
	for id := sim.NodeID(0); len(out) < n; id++ {
		k := key(entry{id: id, stamp: stamp})
		if prev, ok := seen[k]; ok {
			out = append(out, [2]sim.NodeID{prev, id})
		} else {
			seen[k] = id
		}
	}
	return out
}

// collisionStamps are the stamps the key-collision tests search at: one
// ordinary stamp and the four where flipping the stamp into a key could go
// wrong (the int32 limits and the sign boundary).
var collisionStamps = []int32{7, math.MinInt32, -1, 0, math.MaxInt32}

// collisionDescs holds the three colliding pairs at every collision stamp,
// pair members adjacent, for the fuzzer to draw from.
var collisionDescs = sync.OnceValue(func() []Descriptor {
	var ds []Descriptor
	for _, s := range collisionStamps {
		for _, p := range keyCollisions(s, 3) {
			ds = append(ds, Descriptor{ID: p[0], Stamp: int64(s)}, Descriptor{ID: p[1], Stamp: int64(s)})
		}
	}
	return ds
})

// TestViewMergeKeyCollisions merges views, runs and extras whose heads are
// distinct entries with equal order keys, so that every tie mergeRuns meets
// is one only before settles, and requires the reference's result. Each of
// three colliding pairs is split between the view and the batch in both
// directions, the extra collides with a view entry or a batch entry, and
// the capacities cut between pair members.
func TestViewMergeKeyCollisions(t *testing.T) {
	if got, want := keyCollisions(7, 3), [][2]sim.NodeID{{40437, 41451}, {7404, 71577}, {28978, 76062}}; !slices.Equal(got, want) {
		t.Fatalf("colliding pairs at stamp 7 are %v, want %v", got, want)
	}
	const self = -7
	for _, s := range collisionStamps {
		pairs := keyCollisions(s, 3)
		for _, p := range pairs {
			a, b := entry{id: p[0], stamp: s}, entry{id: p[1], stamp: s}
			if key(a) != key(b) || before(a, b) == before(b, a) {
				t.Fatalf("stamp %d: %v and %v do not share a key, or before does not order them", s, a, b)
			}
		}
		d := func(id sim.NodeID) Descriptor { return Descriptor{ID: id, Stamp: int64(s)} }
		for mask := 0; mask < 8; mask++ {
			m := [3]int{mask & 1, mask >> 1 & 1, mask >> 2 & 1}
			view := []Descriptor{d(pairs[0][m[0]]), d(pairs[1][m[1]]), d(1)}
			run := []Descriptor{d(pairs[0][1-m[0]]), d(pairs[2][m[2]]), d(1)}
			for _, x := range []Descriptor{d(pairs[1][1-m[1]]), d(pairs[2][1-m[2]]), d(pairs[0][m[0]])} {
				for _, c := range []int{1, 2, 3, 4, 20} {
					t.Run(fmt.Sprintf("stamp=%d/mask=%d/x=%d/c=%d", s, mask, x.ID, c), func(t *testing.T) {
						p := newViewPair(c, self)
						p.merge(t, view)
						p.mergeSorted(t, run, x)
						q := newViewPair(c, self)
						q.merge(t, view)
						q.merge(t, append(slices.Clone(run), x))
					})
				}
			}
		}
	}
}

// TestViewOpsMatchReferenceRandom drives random Merge/Insert/Clone and
// sorted-merge sequences on a View and on the reference and requires equal contents and a sorted view after every
// step. ID and stamp ranges are drawn per sequence, so some sequences are
// all ties and duplicates and others nearly collision-free.
func TestViewOpsMatchReferenceRandom(t *testing.T) {
	batchLens := []int{0, 1, 2, 5, 22, 42, 60, 200}
	for _, c := range viewCaps {
		for seq := 0; seq < 60; seq++ {
			r := rng.New(uint64(1000*c + seq))
			ids := []int{3, 25, 100, 5000}[r.Intn(4)]
			stamps := []int{1, 3, 50, 100000}[r.Intn(4)]
			p := newViewPair(c, sim.NodeID(r.Intn(ids)))
			desc := func() Descriptor {
				return Descriptor{ID: sim.NodeID(r.Intn(ids)), Stamp: int64(r.Intn(stamps))}
			}
			for step := 0; step < 80; step++ {
				switch op := r.Intn(10); {
				case op >= 8:
					run := make([]Descriptor, batchLens[r.Intn(len(batchLens))])
					for i := range run {
						run[i] = desc()
					}
					p.mergeSorted(t, run, desc())
				case op < 5:
					batch := make([]Descriptor, batchLens[r.Intn(len(batchLens))])
					for i := range batch {
						batch[i] = desc()
					}
					if r.Intn(2) == 0 {
						// Newscast's shape: a sorted run, then fresh ones.
						batch = referenceMerge(len(batch), nil, -1, batch)
						batch = append(batch, Descriptor{ID: sim.NodeID(r.Intn(ids)), Stamp: int64(stamps)}, Descriptor{ID: p.self, Stamp: int64(stamps)})
					}
					p.merge(t, batch)
				case op < 7:
					p.insert(t, desc())
				default:
					p.clone(t)
				}
			}
		}
	}
}

// FuzzViewMerge decodes its input into a capacity, an owner and a sequence
// of Merge/Insert/Clone/sorted-merge operations over small ID and stamp
// ranges (so duplicates and ties are the norm), and runs them on a View and
// on the reference. Batch lengths reach 255, past the stack buffers.
// Operations 5 and 6 are Merge and the sorted merge over the descriptors of
// collisionDescs, distinct entries with equal order keys, one byte per
// descriptor. Operation 2 does nothing: it was Remove, which views no
// longer have, and keeping its number keeps every other operation's. The
// seed corpus in testdata/fuzz/FuzzViewMerge holds one input per named edge
// case; they spell operations and capacities as the bytes 0..6, so they
// outlive a longer operation or capacity list.
func FuzzViewMerge(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() (byte, bool) {
			if len(data) == 0 {
				return 0, false
			}
			b := data[0]
			data = data[1:]
			return b, true
		}
		desc := func() (Descriptor, bool) {
			id, _ := next()
			stamp, ok := next()
			return Descriptor{ID: sim.NodeID(id % 64), Stamp: int64(stamp % 8)}, ok
		}
		collided := func() (Descriptor, bool) {
			k, ok := next()
			ds := collisionDescs()
			return ds[int(k)%len(ds)], ok
		}
		batchOf := func(draw func() (Descriptor, bool)) []Descriptor {
			n, _ := next()
			batch := make([]Descriptor, 0, n)
			for i := 0; i < int(n); i++ {
				d, ok := draw()
				if !ok {
					break
				}
				batch = append(batch, d)
			}
			return batch
		}
		cb, _ := next()
		self, _ := next()
		p := newViewPair(viewCaps[int(cb)%len(viewCaps)], sim.NodeID(self%64))
		for {
			op, ok := next()
			if !ok {
				return
			}
			switch op % 7 {
			case 0:
				p.merge(t, batchOf(desc))
			case 1:
				if d, ok := desc(); ok {
					p.insert(t, d)
				}
			case 3:
				p.clone(t)
			case 4:
				x, _ := desc()
				p.mergeSorted(t, batchOf(desc), x)
			case 5:
				p.merge(t, batchOf(collided))
			case 6:
				x, _ := collided()
				p.mergeSorted(t, batchOf(collided), x)
			}
		}
	})
}

// TestViewZeroCapacityStaysEmpty pins the documented zero value: a view
// with no capacity holds nothing, whatever it is merged with (the historical
// loop appended before testing the capacity and grew without bound).
func TestViewZeroCapacityStaysEmpty(t *testing.T) {
	batch := []Descriptor{{ID: 1, Stamp: 3}, {ID: 2, Stamp: 1}}
	for _, v := range []*View{{}, NewView(0), NewView(-1)} {
		v.Merge(0, batch)
		v.Insert(0, Descriptor{ID: 3, Stamp: 9})
		if v.Len() != 0 {
			t.Fatalf("capacity-%d view holds %v", v.Cap(), v.Descriptors())
		}
	}
}

// TestViewRefusesOutOfRangeDescriptors pins the int32 limits of a view
// entry: descriptors at the limits round-trip exactly, and a stamp past
// them panics with a message naming the limit instead of being truncated
// into another time, leaving the view as it was. An ID past them does not
// compile: sim.NodeID is an int32.
func TestViewRefusesOutOfRangeDescriptors(t *testing.T) {
	v := NewView(4)
	edge := []Descriptor{{ID: math.MaxInt32, Stamp: math.MinInt32}, {ID: math.MinInt32, Stamp: math.MaxInt32}}
	v.Merge(0, edge)
	if got := v.Descriptors(); !slices.Equal(got, []Descriptor{edge[1], edge[0]}) {
		t.Fatalf("view holds %v, want %v freshest first", got, edge)
	}
	for _, d := range []Descriptor{
		{ID: 1, Stamp: math.MaxInt32 + 1},
		{ID: 1, Stamp: math.MinInt32 - 1},
	} {
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, "2147483647") {
					t.Errorf("Insert(%+v) panicked with %q, want a message naming the int32 limit", d, msg)
				}
			}()
			v.Insert(0, d)
		}()
	}
	if got := v.Descriptors(); !slices.Equal(got, []Descriptor{edge[1], edge[0]}) {
		t.Fatalf("refused descriptors changed the view to %v", got)
	}
}

// TestViewMergeZeroAllocs pins Merge's scratch to the stack: a warmed
// c=20 view merges a Newscast exchange, and inserts one descriptor,
// without allocating.
func TestViewMergeZeroAllocs(t *testing.T) {
	// A full view and a peer's sorted snapshot, half of it known to the
	// view, plus the two fresh descriptors at the tail: 22 in all.
	const c, self, peerID = 20, 1000, 2000
	v, peer := NewView(c), NewView(c)
	for i := 0; i < c; i++ {
		v.Insert(self, Descriptor{ID: sim.NodeID(i), Stamp: int64(10 + i%5)})
		peer.Insert(peerID, Descriptor{ID: sim.NodeID(i + c/2), Stamp: int64(11 + i%4)})
	}
	batch := append(peer.Descriptors(), Descriptor{ID: peerID, Stamp: 16}, Descriptor{ID: self, Stamp: 16})
	v.Merge(self, batch)
	if n := testing.AllocsPerRun(100, func() {
		for i := range batch {
			batch[i].Stamp++ // keep every merge a real one
		}
		v.Merge(self, batch)
	}); n != 0 {
		t.Fatalf("Merge allocates %v times per call, want 0", n)
	}
	stamp := int64(1000)
	if n := testing.AllocsPerRun(100, func() {
		stamp++
		v.Insert(self, Descriptor{ID: sim.NodeID(stamp % 50), Stamp: stamp})
	}); n != 0 {
		t.Fatalf("Insert allocates %v times per call, want 0", n)
	}
}

// exchangeBench is the working set of the merge benchmarks: 64 nodes of a
// warmed c=20 Newscast network, each with the snapshot its next exchange
// would hand it — a neighbour's sorted 20-descriptor view. Several pairs,
// because one pair replayed in a loop is a branch pattern the predictor
// learns by heart.
type exchangeBench struct {
	nodes   []*sim.Node // node k's exchange partner is node k+1
	ncs     []*Newscast
	initial [][]entry // each view's contents, restored every iteration
	snaps   [][]entry // the partner's view
	stamp   int64     // the cycle the exchange happens in
}

func newExchangeBench(b *testing.B) *exchangeBench {
	const n, c, pairs = 512, 20, 64
	e := buildNewscastNet(9, n, c)
	b.Cleanup(e.Close)
	e.Run(30)
	x := &exchangeBench{stamp: e.Cycle()}
	live := e.LiveNodes()
	for i := 0; i < pairs; i++ {
		node, peer := live[i], live[(i+1)%pairs]
		nc := node.Protocol(0).(*Newscast)
		if nc.view.Len() != c {
			b.Fatalf("view of node %d holds %d descriptors after warm-up, want %d", node.ID, nc.view.Len(), c)
		}
		x.nodes = append(x.nodes, node)
		x.ncs = append(x.ncs, nc)
		x.initial = append(x.initial, slices.Clone(nc.view.items))
		x.snaps = append(x.snaps, slices.Clone(peer.Protocol(0).(*Newscast).view.items))
	}
	b.ReportAllocs()
	b.ResetTimer()
	return x
}

// BenchmarkViewMerge is the first rung of the layer ladder (ROADMAP 1b):
// one generic Merge into a full c=20 view, of the batch Newscast handed it
// before its payloads went sorted — a neighbour's snapshot with the two
// fresh descriptors at the tail, so the insertion sort has work to do.
func BenchmarkViewMerge(b *testing.B) {
	x := newExchangeBench(b)
	batches := make([][]Descriptor, len(x.snaps))
	for k, snap := range x.snaps {
		peer, self := x.nodes[(k+1)%len(x.nodes)].ID, x.nodes[k].ID
		batches[k] = append(descriptors(snap), Descriptor{ID: peer, Stamp: x.stamp}, Descriptor{ID: self, Stamp: x.stamp})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % len(x.ncs)
		v := x.ncs[k].view
		v.items = append(v.items[:0], x.initial[k]...)
		v.Merge(x.nodes[k].ID, batches[k])
	}
}

// BenchmarkNewscastReceive is the second rung: the reply leg of an
// exchange through the protocol handler — one stack copy of the view and
// one sorted merge.
func BenchmarkNewscastReceive(b *testing.B) {
	x := newExchangeBench(b)
	reply := &viewSwapReply{Stamp: x.stamp}
	for i := 0; i < b.N; i++ {
		k := i % len(x.ncs)
		nc := x.ncs[k]
		nc.view.items = append(nc.view.items[:0], x.initial[k]...)
		reply.Descs = x.snaps[k]
		nc.Receive(x.nodes[k], nil, sim.Message{From: x.nodes[(k+1)%len(x.nodes)].ID, To: x.nodes[k].ID, Data: reply})
	}
}

// exchangeDriver stands in for Newscast on the two-node engine of
// BenchmarkNewscastExchange. Its Propose restores the node's view to the
// next of the warmed working set and proposes to the one other node (a
// Newscast Propose would sample the view, and mostly draw an ID the engine
// does not have); the handlers are Newscast's own.
type exchangeDriver struct {
	*Newscast
	partner sim.NodeID
	views   [][]entry
	next    int
}

func (d *exchangeDriver) Propose(n *sim.Node, px *sim.Proposals) {
	v := d.view
	v.items = append(v.items[:0], d.views[d.next%len(d.views)]...)
	d.next++
	sw := viewSwapPool.Get(px.Payloads())
	sw.Descs = v.snapshotInto(sw.Descs)
	sw.Stamp = px.Cycle()
	px.Send(d.partner, d.Slot, sw)
}

// BenchmarkNewscastExchange is the whole exchange on an engine of two
// nodes with full c=20 views: per cycle two snapshots, two request legs
// (merge in place, the pre-merge view into the request's buffer, the
// request forwarded as the reply), two reply legs and two payloads
// recycled. ns/op is per exchange.
func BenchmarkNewscastExchange(b *testing.B) {
	x := newExchangeBench(b)
	const c = 20
	e := sim.NewEngine(1)
	b.Cleanup(e.Close)
	nodes := e.AddNodes(2)
	for k, n := range nodes {
		d := &exchangeDriver{Newscast: NewNewscast(n.ID, c, 0), partner: nodes[1-k].ID}
		// The working set belongs to nodes 0..511 of another engine: move
		// it clear of this engine's IDs, which re-sorts equal stamps.
		for _, view := range x.initial[k*len(x.initial)/2:][:len(x.initial)/2] {
			v := NewView(c)
			for _, desc := range view {
				v.Insert(n.ID, Descriptor{ID: sim.NodeID(desc.id) + 2, Stamp: int64(desc.stamp)})
			}
			d.views = append(d.views, v.items)
		}
		n.Protocols = []sim.Protocol{d}
	}
	e.Run(x.stamp) // stamps of the exchanges: fresher than the views', as in the network
	b.ResetTimer()
	for i := 0; i < b.N; i += 2 {
		e.RunCycle()
	}
}
