package sim

import (
	"bytes"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"unsafe"
)

// Payload recycling. A cycle at n = 10^6 creates on the order of n message
// payloads (view snapshots, best-point exchanges); allocating them fresh
// every cycle makes memory traffic, not parallelism, the throughput
// ceiling. Protocols therefore opt in to recycling: they draw payloads
// from a typed FreeList and implement Recyclable, and the engine returns
// every recyclable payload to its list at the end of the cycle — in
// releaseApplyScratch, the one place a cycle's payload references already
// died.
//
// A free list has two levels. The depot is one stack of idle payloads
// behind one mutex, inside the FreeList. The lists are package variables,
// so the depots are process-wide: an engine built for the next repetition
// of a campaign inherits the payloads of the last one (ISSUE 20's
// prototype measured engine-owned storage at +3.5% heap per node there).
// A magazine is a private stack of the same payloads inside a
// PayloadCache, of which the engine keeps one per pool worker. Get and Put
// take the cache — a handler passes px.Payloads() or ax.Payloads(),
// Recycle passes on the cache the engine hands it — and work on the
// magazine with no lock and no atomic; the depot is locked once per
// flBatch payloads, to refill an empty magazine or to spill a full one. A
// nil cache (that of a Proposals or ApplyContext no engine handed out)
// recycles nothing: Get allocates and Put drops the payload.
//
// The engine flushes every cache into the depots at each phase barrier
// (after propose, after each apply round, after the end-of-cycle release).
// Between phases every idle payload is thus in a depot, where any worker
// of any engine can draw it; left in a magazine, what one worker released
// would sit unused while another allocated. A list therefore never
// allocates more than the peak number of payloads in flight plus, per
// extra worker, the flBatch-1 a refill can leave idle.
//
// Both levels are LIFO, and the order of release decides where the next
// phase writes. Put pushes onto the magazine, a spill moves its top batch
// to the depot and keeps the bottom one, the barrier flush lays the rest
// on top, and a refill takes the depot's top batch whole, which Get pops
// from the top. So the payloads one cache releases are drawn back in
// reverse release order, except that the first batch released comes out
// right after the last, partial one. The engine releases a cycle's
// payloads in descending node order (releaseApplyScratch): the propose
// phase, in ascending ID order, then draws each node's payload back in
// its position of the cycle before, so a run of payloads first allocated
// in ID order stays in address order, and so do the propose phase's
// snapshot writes and the reply leg's reads of them.
//
// The ownership rules extend the "ownership transfers on Send" contract of
// exchange.go:
//
//   - A recyclable payload must be sent exactly once. Sending the same
//     pointer twice (or never) double-recycles (or leaks) it.
//   - The receiving handler owns the payload only until its cycle ends. It
//     must not retain the pointer — or any slice inside it — beyond the
//     handler call, not even inside a *different* payload it sends: a net
//     model may delay that payload past the cycle end that recycles this
//     one. It copies instead, or forwards the payload itself (next rule).
//   - A handler's one follow-up is the payload it received, or a pointer
//     conversion of it to a type of its shape, sent through
//     ApplyContext.Forward. Forward writes the follow-up over the handled
//     message's round slot, so the payload, slices and all, has one owner
//     again: the follow-up, which recycles it once, at cycle end or from
//     the delay queue (Newscast's request leg overwrites its snapshot with
//     the pre-merge view and forwards itself as the reply). A buffer a
//     forwarded payload carries may have any capacity — the free lists
//     are shared by every engine in the process — so whoever fills it
//     checks the capacity it needs.
//   - Recycle must reset slice fields to length zero (keeping capacity —
//     that reuse is the whole point) and nil out aliases it does not own.
//     Two kinds of field may survive the reset: a home-pool back-pointer
//     (generic payloads whose free list cannot be a package variable),
//     and a type-parameter-typed value that the sender overwrites in full
//     before every send — gossip.Exchange's legs, whose holder's Load
//     refills the value, buffers included, in place. A wholesale
//     `*r = T{...}` resets only what its literal does not carry back from
//     r. The ownership analyzer knows both exemptions.
//
// Depot and magazines hold strong references, NOT a sync.Pool: pool
// contents are released at every GC, and a million-node cycle that still
// allocates makes GCs frequent enough that the pool was observed
// near-empty every cycle — each miss re-allocating both the payload and
// its interior slices, which itself sustained the GC pressure. Strong
// references break that feedback loop.

// Recyclable is the opt-in recycling contract for message payloads. The
// engine calls Recycle exactly once per sent payload, at the end of the
// cycle that delivered (or dropped) it, after every handler has run.
// Recycle resets the payload and hands it, with c, to its free list's Put.
type Recyclable interface {
	Recycle(c *PayloadCache)
}

// flBatch is the number of payloads that cross between a magazine and its
// depot under one lock. A magazine holds fewer than two batches.
const flBatch = 64

// FreeList is a typed free list of payload structs: the depot level of
// the scheme above, safe for concurrent use. The zero value is ready to
// use.
type FreeList[T any] struct {
	mu    sync.Mutex
	depot []*T
	// locks counts acquisitions of mu, so tests can bound them.
	locks int64
}

// PayloadCache is one worker's private front of every free list it
// touches: a magazine per list, plus the hit and miss counts of the Gets
// it served. It must not be used from two goroutines at once, and whoever
// owns it must flush it, or the payloads it holds are stranded. The zero
// value is ready to use.
type PayloadCache struct {
	// mags is scanned linearly by magazineOf: a run has two to four
	// payload types.
	mags         []flusher
	hits, misses int64
}

// flusher is all a cache's owner needs of a magazine, whatever its type.
type flusher interface{ flush() }

// flush empties every magazine of the cache into its depot.
func (c *PayloadCache) flush() {
	for _, m := range c.mags {
		m.flush()
	}
}

// magazine is a cache's private stack of idle payloads of one list.
type magazine[T any] struct {
	list  *FreeList[T]
	items []*T
}

// magazineOf returns c's magazine for f, adding an empty one on first use.
func magazineOf[T any](c *PayloadCache, f *FreeList[T]) *magazine[T] {
	for _, s := range c.mags {
		if m, ok := s.(*magazine[T]); ok && m.list == f {
			return m
		}
	}
	m := &magazine[T]{list: f}
	c.mags = append(c.mags, m)
	return m
}

// refill moves up to one batch from the top of the depot into the empty
// magazine, reporting whether it got any.
func (m *magazine[T]) refill() bool {
	f := m.list
	f.mu.Lock()
	f.locks++
	rest := len(f.depot) - min(len(f.depot), flBatch)
	m.items = append(m.items, f.depot[rest:]...)
	clear(f.depot[rest:])
	f.depot = f.depot[:rest]
	f.mu.Unlock()
	return len(m.items) > 0
}

// spill moves everything above the magazine's first keep payloads to the
// depot. Magazine and depot both grow by append: ISSUE 20's prototype
// measured pre-sizing either as more heap for no gain.
func (m *magazine[T]) spill(keep int) {
	f := m.list
	f.mu.Lock()
	f.locks++
	f.depot = append(f.depot, m.items[keep:]...)
	f.mu.Unlock()
	clear(m.items[keep:])
	m.items = m.items[:keep]
}

// flush empties the magazine into the depot.
func (m *magazine[T]) flush() {
	if len(m.items) > 0 {
		m.spill(0)
	}
}

// Free-list hit/miss instrumentation. Counting is opt-in and process-wide,
// but the counts are not: each cache counts the Gets it serves in plain
// integers, and the engine that owns the cache folds them into its own
// Stats at the phase barriers, so concurrent engines never see each
// other's. Off (the default), Get's only instrumentation cost is one
// atomic load.
var flStatsOn atomic.Bool

// EnableFreeListStats turns free-list hit/miss counting on or off for
// every cache in the process. The counts surface in the owning engine's
// Stats snapshot as FreeListHits/FreeListMisses and keep their accumulated
// values across toggles.
func EnableFreeListStats(on bool) { flStatsOn.Store(on) }

// Double-release detection and poisoning. The ownership rules make "send
// exactly once" and "do not keep what you received" the caller's
// obligations; a violation corrupts state at a distance (two nodes handing
// out the same payload, a delayed leg reading a buffer reused by another).
// The detector is opt-in like the stats: off (the default), Get and Put pay
// one atomic load each. On, every released payload pointer is tracked in a
// process-global set, and a second release of the same pointer panics at
// the Put, naming the type — at the misuse site, not at the eventual
// corruption. The set is keyed by address, not by typed pointer: a header
// that changes type (a request forwarded as its reply) is still one
// payload. Put also poisons the payload: every byte of every number in it
// becomes 0x5a — a float64 reads 1.4e127 — in its fields and in the
// elements of its slices of pointer-free types over their full capacity,
// so a reader that still holds the payload or one of its buffers reads
// poison, and the run's output changes. Get checks that
// the poison of a payload released under the detector is intact, so a
// write after release panics there, naming the type, and hands the
// payload out poisoned: a sender sets every field it sends.
var (
	flDebugOn  atomic.Bool
	flDebugMu  sync.Mutex
	flDebugSet map[unsafe.Pointer]struct{}
)

// EnableFreeListDebug turns the process-global double-release detector on
// or off. Enabling starts with an empty tracking set, so only releases
// after the call are checked; disabling drops the set.
func EnableFreeListDebug(on bool) {
	flDebugMu.Lock()
	defer flDebugMu.Unlock()
	if on {
		flDebugSet = make(map[unsafe.Pointer]struct{})
	} else {
		flDebugSet = nil
	}
	flDebugOn.Store(on)
}

// flDebugTrack records p as released and poisons it, panicking, with p's
// type, if it already was released.
func flDebugTrack[T any](p *T) {
	flDebugMu.Lock()
	defer flDebugMu.Unlock()
	if flDebugSet == nil {
		return
	}
	if _, dup := flDebugSet[unsafe.Pointer(p)]; dup {
		panic(fmt.Sprintf("sim: free-list double release of %T payload", p))
	}
	flDebugSet[unsafe.Pointer(p)] = struct{}{}
	poison(reflect.ValueOf(p).Elem(), true)
}

// flDebugUntrack forgets p when it leaves the list through Get, panicking
// if p was released under the detector and its poison is no longer intact.
func flDebugUntrack[T any](p *T) {
	flDebugMu.Lock()
	defer flDebugMu.Unlock()
	if _, ok := flDebugSet[unsafe.Pointer(p)]; !ok {
		return
	}
	delete(flDebugSet, unsafe.Pointer(p))
	if !poison(reflect.ValueOf(p).Elem(), false) {
		panic(fmt.Sprintf("sim: free-list write after release of %T payload", p))
	}
}

// poisonBytes is the poison pattern, copied in chunks of its length.
var poisonBytes = bytes.Repeat([]byte{0x5a}, 256)

// poison fills (fill) or checks the poison of v, an addressable value:
// every byte of it that no pointer, slice header or string occupies —
// numbers, bools and padding — through structs and, over their full
// capacity, slices of pointer-free elements, but not through pointers. It
// reports whether every checked byte held the poison.
func poison(v reflect.Value, fill bool) bool {
	switch t := v.Type(); {
	case !hasPointers(t):
		return poisonRange(unsafe.Pointer(v.UnsafeAddr()), t.Size(), fill)
	case t.Kind() == reflect.Struct:
		ok := true
		for i := range v.NumField() {
			ok = poison(v.Field(i), fill) && ok
		}
		return ok
	case t.Kind() == reflect.Slice && !hasPointers(t.Elem()):
		return poisonRange(v.UnsafePointer(), uintptr(v.Cap())*t.Elem().Size(), fill)
	}
	return true
}

// poisonRange fills or checks n bytes at p.
func poisonRange(p unsafe.Pointer, n uintptr, fill bool) bool {
	for b := unsafe.Slice((*byte)(p), n); len(b) > 0; {
		k := min(len(b), len(poisonBytes))
		if fill {
			copy(b, poisonBytes)
		} else if !bytes.Equal(b[:k], poisonBytes[:k]) {
			return false
		}
		b = b[k:]
	}
	return true
}

// hasPointers reports whether values of t hold pointers (slice headers and
// strings among them), which poison must not overwrite.
func hasPointers(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Struct:
		for i := range t.NumField() {
			if hasPointers(t.Field(i).Type) {
				return true
			}
		}
		return false
	case reflect.Array:
		return t.Len() > 0 && hasPointers(t.Elem())
	}
	return t.Kind() > reflect.Complex128
}

// Get returns a recycled *T from c's magazine, refilled from the depot
// when empty, or a freshly allocated zero value when the depot is empty
// too (or c is nil). Recycled values keep whatever the type's Recycle
// method left in them (by convention: zero-length slices with warm
// capacity) — poisoned, if the debug detector was on when they were
// released.
func (f *FreeList[T]) Get(c *PayloadCache) *T {
	if c == nil {
		return new(T)
	}
	m := magazineOf(c, f)
	if len(m.items) == 0 && !m.refill() {
		if flStatsOn.Load() {
			c.misses++
		}
		return new(T)
	}
	n := len(m.items) - 1
	p := m.items[n]
	m.items[n] = nil
	m.items = m.items[:n]
	if flStatsOn.Load() {
		c.hits++
	}
	if flDebugOn.Load() {
		flDebugUntrack(p)
	}
	return p
}

// Put returns p to the free list through c's magazine, spilling a batch to
// the depot when the magazine holds two. Callers normally do not call Put
// directly: the payload's Recycle method does, and the engine calls
// Recycle at cycle end. With the debug detector enabled, a second Put of
// the same pointer without an intervening Get panics, and p is poisoned.
func (f *FreeList[T]) Put(c *PayloadCache, p *T) {
	if p == nil || c == nil {
		return
	}
	if flDebugOn.Load() {
		flDebugTrack(p)
	}
	m := magazineOf(c, f)
	m.items = append(m.items, p)
	if len(m.items) == 2*flBatch {
		m.spill(flBatch)
	}
}

// recyclePayload returns a message's payload to its free list, through c,
// when the payload opted in, reporting whether it did (the
// PayloadsRecycled counter).
func recyclePayload(m *Message, c *PayloadCache) bool {
	if r, ok := m.Data.(Recyclable); ok {
		r.Recycle(c)
		return true
	}
	return false
}
