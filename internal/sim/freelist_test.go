package sim

import (
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"
)

type flTestPayload struct {
	buf []byte
}

// magLen is the number of idle payloads c holds for f.
func magLen[T any](c *PayloadCache, f *FreeList[T]) int { return len(magazineOf(c, f).items) }

// TestFreeListMagazineRoundTrip pins the two levels: a magazine is a
// private LIFO, another cache sees a payload only once it reached the
// depot, a refill takes at most one batch and a spill leaves one behind.
func TestFreeListMagazineRoundTrip(t *testing.T) {
	var fl FreeList[flTestPayload]
	var c1, c2 PayloadCache

	p, q := fl.Get(&c1), fl.Get(&c1)
	fl.Put(&c1, p)
	fl.Put(&c1, q)
	if got := fl.Get(&c2); got == p || got == q {
		t.Fatal("a second cache drew a payload that never reached the depot")
	}
	if fl.Get(&c1) != q || fl.Get(&c1) != p {
		t.Fatal("a magazine is not LIFO")
	}
	if fl.locks != 3 || len(fl.depot) != 0 {
		t.Fatalf("three Gets on empty magazines: %d depot locks, %d in the depot; want 3, 0", fl.locks, len(fl.depot))
	}

	fl.Put(&c1, p)
	c1.flush()
	if got := fl.Get(&c2); got != p {
		t.Fatal("a flushed payload did not reach the second cache")
	}

	for i := 0; i < 2*flBatch-1; i++ {
		fl.Put(&c1, new(flTestPayload))
	}
	if magLen(&c1, &fl) != 2*flBatch-1 || len(fl.depot) != 0 {
		t.Fatalf("below two batches: magazine %d, depot %d; want %d, 0", magLen(&c1, &fl), len(fl.depot), 2*flBatch-1)
	}
	fl.Put(&c1, new(flTestPayload))
	if magLen(&c1, &fl) != flBatch || len(fl.depot) != flBatch {
		t.Fatalf("after the spill: magazine %d, depot %d; want %d each", magLen(&c1, &fl), len(fl.depot), flBatch)
	}
	c1.flush()
	if magLen(&c1, &fl) != 0 || len(fl.depot) != 2*flBatch {
		t.Fatalf("after the flush: magazine %d, depot %d; want 0, %d", magLen(&c1, &fl), len(fl.depot), 2*flBatch)
	}
	fl.Get(&c2)
	if magLen(&c2, &fl) != flBatch-1 || len(fl.depot) != flBatch {
		t.Fatalf("after one refill: magazine %d, depot %d; want %d, %d", magLen(&c2, &fl), len(fl.depot), flBatch-1, flBatch)
	}
}

// TestFreeListNilCacheAllocates pins what a handler gets from a context no
// engine handed out: no cache, hence a fresh payload from Get and a no-op
// Put, with the depot untouched.
func TestFreeListNilCacheAllocates(t *testing.T) {
	var fl FreeList[flTestPayload]
	var c PayloadCache
	fl.Put(&c, &flTestPayload{buf: make([]byte, 0, 8)})
	c.flush()

	if new(Proposals).Payloads() != nil || new(ApplyContext).Payloads() != nil {
		t.Fatal("a zero-value context has a payload cache")
	}
	p := fl.Get(new(ApplyContext).Payloads())
	if p == nil || cap(p.buf) != 0 {
		t.Fatalf("Get without a cache returned %+v, want a fresh payload", p)
	}
	fl.Put(nil, p)
	fl.Put(&c, nil)
	if len(fl.depot) != 1 || fl.locks != 1 {
		t.Fatalf("depot holds %d after %d locks, want 1 after 1", len(fl.depot), fl.locks)
	}
}

// TestFreeListSurvivesGC pins the property the sync.Pool-backed
// implementation lacked: recycled payloads stay recyclable across garbage
// collections, in the depot and in a magazine alike. A million-node cycle
// allocates enough to trigger GCs mid-run, and pool-backed lists were
// observed near-empty every cycle — every Get a miss, re-allocating
// payload plus interior slices and thereby sustaining the very GC pressure
// that emptied the pool.
func TestFreeListSurvivesGC(t *testing.T) {
	var fl FreeList[flTestPayload]
	var c PayloadCache
	const n = 2*flBatch + 32 // one batch spills to the depot, the rest stays in the magazine
	for i := 0; i < n; i++ {
		fl.Put(&c, &flTestPayload{buf: make([]byte, 0, 32)})
	}
	runtime.GC()
	runtime.GC()

	EnableFreeListStats(true)
	defer EnableFreeListStats(false)
	for i := 0; i < n; i++ {
		p := fl.Get(&c)
		if cap(p.buf) == 0 {
			t.Fatalf("Get %d returned a fresh payload (no warm capacity): free list lost items to GC", i)
		}
	}
	if c.hits != n || c.misses != 0 {
		t.Fatalf("after GC: %d hits, %d misses; want %d, 0", c.hits, c.misses, n)
	}
}

// TestFreeListDoubleReleaseDetected plants the misuse the ownership rules
// forbid — recycling the same payload twice without an intervening Get —
// and proves the opt-in detector panics at the second Put, naming the
// payload type. The detector is process-global like the depots, so the
// second release is caught through another cache too.
func TestFreeListDoubleReleaseDetected(t *testing.T) {
	EnableFreeListDebug(true)
	defer EnableFreeListDebug(false)

	var fl FreeList[flTestPayload]
	var c1, c2 PayloadCache
	p := fl.Get(&c1)
	fl.Put(&c1, p)

	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("second Put of the same payload did not panic")
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, "double release") {
			t.Fatalf("panic = %v, want a double-release message", r)
		}
	}()
	fl.Put(&c2, p) // planted double release
}

// flTestTwin has flTestPayload's shape, so a header can move between their
// lists by pointer conversion.
type flTestTwin flTestPayload

// TestFreeListDoubleReleaseAcrossTypes releases one header through two
// lists of the same shape: the detector keys on the address, so the second
// release is caught although it arrives as another type.
func TestFreeListDoubleReleaseAcrossTypes(t *testing.T) {
	EnableFreeListDebug(true)
	defer EnableFreeListDebug(false)

	var fl FreeList[flTestPayload]
	var twins FreeList[flTestTwin]
	var c PayloadCache
	p := fl.Get(&c)
	fl.Put(&c, p)

	defer func() {
		if msg, ok := recover().(string); !ok || !strings.Contains(msg, "double release of *sim.flTestTwin") {
			t.Fatalf("panic = %q, want a double release of *sim.flTestTwin", msg)
		}
	}()
	twins.Put(&c, (*flTestTwin)(p)) // planted double release, converted
}

// TestFreeListReleaseAfterReuseAllowed guards the detector against false
// positives on the legitimate life cycle: Get → Put → Get → Put of one
// pointer is exactly how recycling is supposed to work, also when the
// payload travels through the depot to another cache in between.
func TestFreeListReleaseAfterReuseAllowed(t *testing.T) {
	EnableFreeListDebug(true)
	defer EnableFreeListDebug(false)

	var fl FreeList[flTestPayload]
	var c1, c2 PayloadCache
	p := fl.Get(&c1)
	fl.Put(&c1, p)
	c1.flush()
	if fl.Get(&c2) != p {
		t.Fatal("payload never came back from the list")
	}
	fl.Put(&c2, p) // second release, but after a Get: legal
}

// flPoisonProbe has a float, an integer and a slice of structs of both, to
// show what poisoning reaches.
type (
	flPoisonProbe struct {
		f    float64
		n    int32
		legs []flPoisonLeg
	}
	flPoisonLeg struct {
		x float64
		u uint16
	}
)

// TestFreeListPoisonsReleasedPayloads pins what the debug mode's Put
// overwrites: every byte of every float and integer, in the fields and in
// the slice's elements over its full capacity, so a holder that still
// reads the payload or its buffer reads 0x5a bytes. Off, Put writes
// nothing.
func TestFreeListPoisonsReleasedPayloads(t *testing.T) {
	var fl FreeList[flPoisonProbe]
	var c PayloadCache
	for _, debug := range []bool{false, true} {
		EnableFreeListDebug(debug)
		p := fl.Get(&c)
		p.f, p.n = 1.5, 7
		p.legs = append(p.legs[:0], flPoisonLeg{2.5, 3})[:0]
		fl.Put(&c, p)
		leg := p.legs[:1][0]
		poisoned := math.Float64bits(p.f) == 0x5a5a5a5a5a5a5a5a && p.n == 0x5a5a5a5a &&
			math.Float64bits(leg.x) == 0x5a5a5a5a5a5a5a5a && leg.u == 0x5a5a
		if untouched := p.f == 1.5 && p.n == 7 && leg.x == 2.5 && leg.u == 3; debug && !poisoned || !debug && !untouched {
			t.Errorf("debug=%v: released payload holds %v %v %+v", debug, p.f, p.n, leg)
		}
		if q := fl.Get(&c); q != p {
			t.Fatal("payload never came back from the list")
		}
	}
	EnableFreeListDebug(false)
}

// TestFreeListWriteAfterReleasePanics plants a write into a released
// payload's buffer, the way a holder of a stale alias would: the debug
// mode's Get finds the poison broken and panics, naming the type.
func TestFreeListWriteAfterReleasePanics(t *testing.T) {
	EnableFreeListDebug(true)
	defer EnableFreeListDebug(false)

	var fl FreeList[flTestPayload]
	var c PayloadCache
	p := fl.Get(&c)
	p.buf = append(p.buf, 1, 2, 3)
	stale := p.buf
	fl.Put(&c, p)
	stale[1] = 9 // planted write after release

	defer func() {
		if msg, ok := recover().(string); !ok || !strings.Contains(msg, "write after release of *sim.flTestPayload") {
			t.Fatalf("panic = %q, want a write after release of *sim.flTestPayload", msg)
		}
	}()
	fl.Get(&c)
}

// flAvg and flMax are the two pooled payload types of flAvgProto, which
// runs two exchanges of the shape of gossip.Average: every node sends one
// averaging and one maximum request a cycle, and every request is answered
// in itself (ApplyContext.Forward), so a cycle of n nodes has exactly n
// payloads of each type in flight.
type (
	flAvg struct {
		v     float64
		reply bool
	}
	flMax struct {
		v     float64
		reply bool
	}
)

var (
	flAvgs  FreeList[flAvg]
	flMaxes FreeList[flMax]
)

func (r *flAvg) Recycle(c *PayloadCache) { flAvgs.Put(c, r) }
func (r *flMax) Recycle(c *PayloadCache) { flMaxes.Put(c, r) }

type flAvgProto struct {
	v, max float64
	nodes  int
}

func (p *flAvgProto) Propose(n *Node, px *Proposals) {
	avg := flAvgs.Get(px.Payloads())
	*avg = flAvg{v: p.v}
	px.Send(NodeID(n.RNG.Intn(p.nodes)), 0, avg)
	top := flMaxes.Get(px.Payloads())
	*top = flMax{v: p.max}
	px.Send(NodeID(n.RNG.Intn(p.nodes)), 0, top)
}

func (p *flAvgProto) Receive(n *Node, ax *ApplyContext, msg Message) {
	switch pl := msg.Data.(type) {
	case *flAvg:
		if pl.reply {
			p.v += pl.v
			return
		}
		d := (pl.v - p.v) / 2
		p.v += d
		*pl = flAvg{v: -d, reply: true}
		ax.Forward(msg.From, 0, pl)
	case *flMax:
		v := pl.v
		if !pl.reply {
			*pl = flMax{v: p.max, reply: true}
			ax.Forward(msg.From, 0, pl)
		}
		p.max = max(p.max, v)
	}
}

// flNetwork builds an averaging network of flAvgProto nodes.
func flNetwork(seed uint64, nodes, workers int) *Engine {
	e := NewEngine(seed)
	e.SetWorkers(workers)
	e.SetNodeFactory(func(nd *Node) {
		nd.Protocols = []Protocol{&flAvgProto{v: float64(nd.ID), max: float64(nd.ID), nodes: nodes}}
	})
	e.AddNodes(nodes)
	return e
}

// flEmptyDepots drops what earlier tests left in the two lists and counts
// this test's Gets, so the engines' miss counts are the payloads the test
// allocated.
func flEmptyDepots(t *testing.T) {
	flAvgs.depot, flMaxes.depot = nil, nil
	EnableFreeListStats(true)
	t.Cleanup(func() { EnableFreeListStats(false) })
}

// TestPayloadCacheFlushedAtBarriers runs the averaging network and checks,
// after every cycle, that no cache holds a payload: the propose, round and
// release barriers returned every idle payload to the depots, which then
// hold everything the run has allocated (nothing is delayed or retained).
// The allocation is bounded by the peak in flight plus what refills can
// leave idle in the workers' magazines, and is exactly the peak on one
// worker.
func TestPayloadCacheFlushedAtBarriers(t *testing.T) {
	const nodes, cycles = 1000, 50
	for _, workers := range []int{1, 2, 8} {
		flEmptyDepots(t)
		e := flNetwork(41, nodes, workers)
		for cycle := 0; cycle < cycles; cycle++ {
			e.RunCycle()
			if len(e.caches) != workers {
				t.Fatalf("workers=%d: %d caches", workers, len(e.caches))
			}
			for w := range e.caches {
				if a, m := magLen(&e.caches[w], &flAvgs), magLen(&e.caches[w], &flMaxes); a+m != 0 {
					t.Fatalf("workers=%d cycle %d: cache %d still holds %d averaging and %d maximum payloads", workers, cycle, w, a, m)
				}
			}
			if got, want := int64(len(flAvgs.depot)+len(flMaxes.depot)), e.Stats().FreeListMisses; got != want {
				t.Fatalf("workers=%d cycle %d: depots hold %d payloads, the run allocated %d", workers, cycle, got, want)
			}
		}
		e.Close()
		for name, held := range map[string]int{"averaging": len(flAvgs.depot), "maximum": len(flMaxes.depot)} {
			if bound := nodes + (workers-1)*(flBatch-1); held < nodes || held > bound {
				t.Errorf("workers=%d: %d %s payloads allocated, want %d to %d", workers, held, name, nodes, bound)
			}
		}
	}
}

// TestFreeListDepotLocksPerBatch is the machine-independent form of the
// performance claim: a steady-state cycle locks a depot once per batch of
// 64 drawn or released, once per magazine a barrier finds non-empty, and
// once per Get that found the depot empty — not once per payload.
func TestFreeListDepotLocksPerBatch(t *testing.T) {
	const nodes, cycles = 5000, 5
	const payloads, types = 2 * nodes, 2 // per cycle
	const barriers = 4                   // propose, two apply rounds, release
	for _, workers := range []int{1, 8} {
		flEmptyDepots(t)
		e := flNetwork(42, nodes, workers)
		e.Run(10)
		locks0, misses0 := flAvgs.locks+flMaxes.locks, e.Stats().FreeListMisses
		e.Run(cycles)
		locks := flAvgs.locks + flMaxes.locks - locks0
		misses := e.Stats().FreeListMisses - misses0
		e.Close()
		bound := cycles*int64(2*((payloads+flBatch-1)/flBatch)+barriers*workers*types) + misses
		t.Logf("workers=%d: %d depot locks for %d payloads (%d misses), bound %d", workers, locks, cycles*payloads, misses, bound)
		if locks > bound {
			t.Errorf("workers=%d: %d depot locks over %d cycles, want <= %d", workers, locks, cycles, bound)
		}
		if workers == 1 && misses != 0 {
			t.Errorf("a warmed single-worker run allocated %d payloads", misses)
		}
	}
}

// TestFreeListCountsAreEngineOwned steps two engines of different sizes,
// eight workers each, on two goroutines over the same lists (under -race
// this is the concurrency test of the depots). Each engine's hits and
// misses add up to the payloads that engine sent — those it recycled plus
// those its delay queue still holds — so neither sees the other's Gets.
func TestFreeListCountsAreEngineOwned(t *testing.T) {
	flEmptyDepots(t)
	engines := []*Engine{flNetwork(43, 700, 8), flNetwork(44, 300, 8)}
	engines[1].SetNetModel(LossyLinks{DelayMax: 3})
	var wg sync.WaitGroup
	for _, e := range engines {
		wg.Add(1)
		go func(e *Engine) {
			defer wg.Done()
			e.Run(30)
		}(e)
	}
	wg.Wait()
	var sent [2]int64
	for i, e := range engines {
		s := e.Stats()
		sent[i] = s.PayloadsRecycled + int64(len(e.delayQ))
		if got := s.FreeListHits + s.FreeListMisses; got != sent[i] || got == 0 {
			t.Errorf("engine %d: %d hits + %d misses = %d Gets, but it sent %d payloads (%d recycled, %d delayed)",
				i, s.FreeListHits, s.FreeListMisses, got, sent[i], s.PayloadsRecycled, len(e.delayQ))
		}
		e.Close()
	}
	if sent[0] == sent[1] || len(engines[1].delayQ) == 0 {
		t.Fatalf("test lost its teeth: sent %v, %d delayed", sent, len(engines[1].delayQ))
	}
}

// BenchmarkFreeListGetPut is the free list's hot path on one cache: a Get
// and a Put per op, served by the magazine with no lock and no atomic
// read-modify-write. The steady state allocates nothing.
func BenchmarkFreeListGetPut(b *testing.B) {
	var fl FreeList[flTestPayload]
	var c PayloadCache
	fl.Put(&c, fl.Get(&c))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fl.Put(&c, fl.Get(&c))
	}
}
