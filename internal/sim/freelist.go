package sim

import (
	"fmt"
	"sync"
	"sync/atomic"
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
// The ownership rules extend the "ownership transfers on Send" contract of
// exchange.go:
//
//   - A recyclable payload must be sent exactly once. Sending the same
//     pointer twice (or never) double-recycles (or leaks) it.
//   - The receiving handler owns the payload only until its cycle ends. It
//     must not retain the pointer — or any slice inside it — beyond the
//     handler call, except by forwarding a slice inside a *different*
//     payload sent in the same cycle (Cyclon echoes the request subset in
//     its reply; the reply's Recycle must then drop the alias, never
//     recycle it).
//   - A payload drawn from a free list and not yet sent belongs to the
//     handler that drew it, slices included. The handler may therefore
//     swap: keep a slice of that payload as node state and put the slice
//     it replaces into the payload, which then carries it away (Newscast's
//     request leg merges into the reply's buffer and mails its old view
//     buffer back). Every buffer keeps exactly one owner, and the pools
//     neither gain nor lose one. A buffer that arrives this way may have
//     any capacity — the free lists are shared by every engine in the
//     process — so whoever fills it checks the capacity it needs.
//   - Recycle must reset slice fields to length zero (keeping capacity —
//     that reuse is the whole point) and nil out aliases it does not own.
//     A payload carrying a home-pool back-pointer (generic payloads whose
//     free list cannot be a package variable) keeps that one field across
//     the reset; the ownership analyzer knows the exemption.
//
// The list holds strong references in mutex-guarded per-shard stacks, NOT
// a sync.Pool: pool contents are released at every GC, and a million-node
// cycle that still allocates makes GCs frequent enough that the pool was
// observed near-empty every cycle — each miss re-allocating both the
// payload and its interior slices, which itself sustained the GC pressure.
// Strong references break that feedback loop. The lists cannot grow
// without bound: the engine recycles exactly the payloads a cycle sent, so
// a list's size is bounded by the peak number of in-flight payloads of its
// type. Sharding (with a round-robin cursor) keeps Get/Put cheap when
// propose or apply workers draw concurrently.

// Recyclable is the opt-in recycling contract for message payloads. The
// engine calls Recycle exactly once per sent payload, at the end of the
// cycle that delivered (or dropped) it, after every handler has run.
type Recyclable interface {
	Recycle()
}

// flShards is the number of stacks a FreeList spreads its payloads over —
// a small power of two so the cursor masks instead of dividing.
const flShards = 8

// FreeList is a typed free list of payload structs, safe for concurrent
// use. The zero value is ready to use.
type FreeList[T any] struct {
	next   atomic.Uint32
	shards [flShards]flShard[T]
}

// flShard is one mutex-guarded stack of recycled payloads.
type flShard[T any] struct {
	mu    sync.Mutex
	items []*T
}

// Free-list hit/miss instrumentation. Free lists are package-level pools
// shared by every engine in the process, so the counters are process-global
// too. Counting is opt-in: Get runs on parallel propose and apply workers,
// and the default path must not pay cross-worker atomic adds per payload —
// off (the default), Get's only instrumentation cost is one uncontended
// atomic load.
var (
	flStatsOn        atomic.Bool
	flHits, flMisses atomic.Int64
)

// EnableFreeListStats turns process-global free-list hit/miss counting on
// or off. The counters keep their accumulated values across toggles; they
// surface in every engine's Stats snapshot as FreeListHits/FreeListMisses.
func EnableFreeListStats(on bool) { flStatsOn.Store(on) }

// FreeListStats returns the process-global free-list counters: Gets served
// from a recycled payload (hits) and Gets that allocated fresh (misses).
func FreeListStats() (hits, misses int64) { return flHits.Load(), flMisses.Load() }

// Double-release detection. The ownership rules make "send exactly once"
// the caller's obligation; a violation corrupts state at a distance (two
// nodes handing out the same payload). The detector is opt-in like the
// stats: off (the default), Get and Put pay one atomic load each; on, every
// outstanding payload pointer is tracked in a process-global set and a
// second release of the same pointer panics at the Put, naming the type —
// at the misuse site, not at the eventual corruption.
var (
	flDebugOn  atomic.Bool
	flDebugMu  sync.Mutex
	flDebugSet map[any]struct{}
)

// EnableFreeListDebug turns the process-global double-release detector on
// or off. Enabling starts with an empty tracking set, so only releases
// after the call are checked; disabling drops the set.
func EnableFreeListDebug(on bool) {
	flDebugMu.Lock()
	defer flDebugMu.Unlock()
	if on {
		flDebugSet = make(map[any]struct{})
	} else {
		flDebugSet = nil
	}
	flDebugOn.Store(on)
}

// flDebugTrack records p as released, panicking if it already was.
func flDebugTrack(p any) {
	flDebugMu.Lock()
	defer flDebugMu.Unlock()
	if flDebugSet == nil {
		return
	}
	if _, dup := flDebugSet[p]; dup {
		panic(fmt.Sprintf("sim: free-list double release of %T payload", p))
	}
	flDebugSet[p] = struct{}{}
}

// flDebugUntrack forgets p when it leaves the list through Get.
func flDebugUntrack(p any) {
	flDebugMu.Lock()
	defer flDebugMu.Unlock()
	delete(flDebugSet, p)
}

// Get returns a recycled *T, or a freshly allocated zero value when the
// list is empty. Recycled values keep whatever the type's Recycle method
// left in them (by convention: zero-length slices with warm capacity). The
// round-robin cursor spreads concurrent callers over the shards; an empty
// shard falls through to the others before allocating, so payloads are
// never stranded by an unlucky cursor.
func (f *FreeList[T]) Get() *T {
	start := f.next.Add(1)
	for i := uint32(0); i < flShards; i++ {
		s := &f.shards[(start+i)&(flShards-1)]
		s.mu.Lock()
		if n := len(s.items); n > 0 {
			p := s.items[n-1]
			s.items[n-1] = nil
			s.items = s.items[:n-1]
			s.mu.Unlock()
			if flStatsOn.Load() {
				flHits.Add(1)
			}
			if flDebugOn.Load() {
				flDebugUntrack(p)
			}
			return p
		}
		s.mu.Unlock()
	}
	if flStatsOn.Load() {
		flMisses.Add(1)
	}
	return new(T)
}

// Put returns p to the free list. Callers normally do not call Put
// directly: the payload's Recycle method does, and the engine calls
// Recycle at cycle end. With the debug detector enabled, a second Put of
// the same pointer without an intervening Get panics.
func (f *FreeList[T]) Put(p *T) {
	if p == nil {
		return
	}
	if flDebugOn.Load() {
		flDebugTrack(p)
	}
	s := &f.shards[f.next.Add(1)&(flShards-1)]
	s.mu.Lock()
	s.items = append(s.items, p)
	s.mu.Unlock()
}

// recyclePayload returns a message's payload to its free list when the
// payload opted in, reporting whether it did (the PayloadsRecycled
// counter).
func recyclePayload(m *Message) bool {
	if r, ok := m.Data.(Recyclable); ok {
		r.Recycle()
		return true
	}
	return false
}
