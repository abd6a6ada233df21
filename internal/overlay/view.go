// Package overlay implements the paper's topology service: the NEWSCAST
// gossip-based peer-sampling protocol (Jelasity et al.) and a set of static
// reference topologies (full mesh, ring, star/master-slave, k-regular
// random).
package overlay

import (
	"fmt"
	"math"

	"gossipopt/internal/rng"
	"gossipopt/internal/sim"
)

// Descriptor is a Newscast node descriptor: a remote node identifier plus a
// logical timestamp recording when the descriptor was created. Fresher
// descriptors win during view merges, which is what flushes crashed nodes
// out of the overlay.
//
// Descriptor is the package's API type. Views and payloads store each one
// as an 8-byte entry, so its Stamp must lie in the int32 range, as every
// sim.NodeID does.
type Descriptor struct {
	ID    sim.NodeID
	Stamp int64
}

// entry is a Descriptor as views, payloads and merges hold it: half the
// width, so that a node's two descriptor buffers of c = 20 (its view and
// its exchange's one payload buffer) take 160 B each instead of 320.
// Descriptors are converted only at the package boundary (entryOf on the
// way in, descriptor on the way out); sign extension makes every widened
// stamp equal the Descriptor's, so the canonical order is unchanged.
type entry struct {
	id    sim.NodeID
	stamp int32
}

// entryOf narrows d to an entry. A stamp outside int32 panics: a view
// never truncates one into another time.
func entryOf(d Descriptor) entry {
	e := entry{id: d.ID, stamp: int32(d.Stamp)}
	if int64(e.stamp) != d.Stamp {
		panic(fmt.Sprintf("overlay: descriptor %+v does not fit a view entry: stamps must lie in [%d, %d]",
			d, math.MinInt32, math.MaxInt32))
	}
	return e
}

// descriptor widens e back to the API type.
func (e entry) descriptor() Descriptor { return Descriptor{ID: e.id, Stamp: int64(e.stamp)} }

// View is a bounded set of descriptors, at most one per node ID. The zero
// value is an empty view that stays empty (capacity 0).
//
// Invariant: items is strictly sorted under the canonical order (before):
// freshest stamp first, equal stamps by the mix hash. Every merge relies on
// it — it merges the view with the other sorted run linearly instead of
// sorting their union — so everything that writes items must keep it:
// mergeRuns emits in that order and Clone preserves it.
//
// items is allocated once, at capacity c, by the first merge that needs
// it, and every later merge writes into it in place; it is never grown by
// append, whose doubling held c=20 views in capacity-32 arrays.
type View struct {
	c     int
	items []entry
}

// NewView creates an empty view with capacity c.
func NewView(c int) *View { return &View{c: c} }

// Cap returns the view capacity.
func (v *View) Cap() int { return v.c }

// Len returns the number of descriptors currently held.
func (v *View) Len() int { return len(v.items) }

// AppendIDs appends the node IDs in the view, freshest first, to dst and
// returns the extended slice.
func (v *View) AppendIDs(dst []sim.NodeID) []sim.NodeID {
	for _, e := range v.items {
		dst = append(dst, e.id)
	}
	return dst
}

// Descriptors returns a copy of the view contents, freshest first.
func (v *View) Descriptors() []Descriptor {
	return v.AppendDescriptors(make([]Descriptor, 0, len(v.items)))
}

// AppendDescriptors appends the view contents, freshest first, to dst and
// returns the extended slice.
func (v *View) AppendDescriptors(dst []Descriptor) []Descriptor {
	for _, e := range v.items {
		dst = append(dst, e.descriptor())
	}
	return dst
}

// sized returns buf emptied, or, when buf cannot hold n entries (it is nil,
// or was recycled by an engine with smaller views), a new buffer of exactly
// capacity n. Every entry buffer of a view or a payload comes from here, so
// none is ever grown by append's doubling.
func sized(buf []entry, n int) []entry {
	if cap(buf) < n {
		return make([]entry, 0, n)
	}
	return buf[:0]
}

// snapshotInto copies the view contents, freshest first, into buf (see
// sized) and returns it — the allocation-free variant of Descriptors for
// per-cycle snapshots into recycled payload buffers.
func (v *View) snapshotInto(buf []entry) []entry {
	return append(sized(buf, v.c), v.items...)
}

// SampleID returns a uniformly random ID from the view without
// materializing the ID slice (ok is false when the view is empty). The
// draw is identical to indexing IDs(): one Intn over the view length.
func (v *View) SampleID(r *rng.RNG) (sim.NodeID, bool) {
	if len(v.items) == 0 {
		return 0, false
	}
	return v.items[r.Intn(len(v.items))].id, true
}

// Insert merges a single descriptor into the view, keeping at most one
// descriptor per ID (the freshest) and at most Cap descriptors overall
// (the freshest). self is excluded: a view never contains its owner.
func (v *View) Insert(self sim.NodeID, d Descriptor) {
	v.Merge(self, []Descriptor{d})
}

// mix hashes a descriptor to break freshness ties. Breaking ties by plain
// ID order would systematically favor low-ID nodes and grow hubs; a
// deterministic hash keeps merging reproducible without the bias. Each
// field is sign-extended to 64 bits first, so the hash is the one of the
// int64 Descriptor.
func mix(e entry) uint64 {
	x := uint64(e.id)*0x9e3779b97f4a7c15 ^ uint64(e.stamp)*0xbf58476d1ce4e5b9
	x ^= x >> 31
	x *= 0x94d049bb133111eb
	return x ^ x>>29
}

// before reports whether a precedes b in the canonical view order: fresher
// stamp first, equal stamps by mix. It is a strict total order on distinct
// descriptors (neither precedes the other only when a == b), which is what
// makes a merge result independent of how it is computed: under one stamp
// mix is injective in the ID (an odd multiply, an xor with a constant, two
// xorshifts and another odd multiply, each a bijection of uint64), so
// distinct entries never tie on it.
func before(a, b entry) bool {
	return a.stamp > b.stamp || a.stamp == b.stamp && mix(a) < mix(b)
}

// key is e's order key: the stamp, flipped so that fresher sorts lower, above
// the high half of mix. Keys order entries as before does, except that
// distinct entries may share one (equal stamps and equal top 32 bits of
// mix), which the merge settles with before.
func key(e entry) uint64 {
	return uint64(uint32(e.stamp)^0x7fffffff)<<32 | mix(e)>>32
}

// mergeStack sizes the stack-resident buffers of the merges: enough for a
// c=20 view and the c descriptors of a Newscast exchange. Larger views or
// batches spill to the heap through append; results do not depend on it.
const mergeStack = 48

// Merge folds a batch of descriptors into the view under the Newscast rule:
// drop self-descriptors, deduplicate by ID keeping the freshest stamp, then
// keep the Cap freshest overall. Ties in freshness break by a deterministic
// hash of the descriptor so merging is reproducible yet unbiased. A stamp
// outside the int32 range panics (see entryOf).
//
// The result is the first Cap distinct IDs of (view ∪ batch) in canonical
// order. Merge takes batches in any order (Bootstrap, Insert, the event
// engine): it insertion-sorts the batch into a stack buffer — an unordered
// batch is merely slower, never wrong — and hands the two sorted runs to
// mergeRuns, the one merge and the one dedup of this package. Newscast's
// payloads are sorted already and skip the sort (see Newscast.Receive).
// All scratch lives on the caller's stack, so merging allocates nothing
// once items exists, and a View carries no buffers.
func (v *View) Merge(self sim.NodeID, batch []Descriptor) {
	var buf [mergeStack]entry
	b := buf[:0]
	for _, d := range batch {
		e := entryOf(d)
		b = append(b, e)
		i := len(b) - 1
		for ; i > 0 && before(e, b[i-1]); i-- {
			b[i] = b[i-1]
		}
		b[i] = e
	}
	v.mergeInPlace(self, b, entry{id: self})
}

// mergeInPlace merges the sorted run b and the extra entry x into the view,
// reusing items for the output: the old contents move to the stack first,
// because the output overwrites them.
func (v *View) mergeInPlace(self sim.NodeID, b []entry, x entry) {
	var bufA [mergeStack]entry
	a := append(bufA[:0], v.items...)
	v.items = mergeRuns(sized(v.items, v.c), a, b, x, self, v.c)
}

// dedupBits sizes mergeRuns' ID table, 128 slots: several times the
// paper's c=20, so that most lookups miss or hit outright.
const dedupBits = 7

// mergeRuns is the merge core. It writes into out[:0] the first c distinct
// IDs of a ∪ b ∪ {x} in canonical order and returns that slice; a and b
// must be sorted under before (repeats allowed) and must not overlap out,
// whose capacity must be at least c. Entries of self are skipped, in either
// run and as x — passing an x with self's ID means "no extra".
//
// The two heads and x are compared as order keys (key), and before runs
// only for distinct entries with equal keys. A head's key is computed when
// it becomes the head, so each consumed entry is hashed once, not once per
// comparison; before is inlined, so the loop makes no call.
//
// Among descriptors with one ID the first in canonical order is the
// freshest, so dropping every ID already emitted is the whole dedup. It is
// O(1): tab maps a hash of the ID to 1 + the index in out of the last
// descriptor emitted with that hash. A zero slot proves the ID new; a slot
// naming the same ID proves it a duplicate; only a slot naming another ID
// (a hash collision, about one lookup in ten at c=20) falls back to
// scanning out. The table is 128 bytes of stack, cleared per call — no
// per-view state. A slot is a byte, so indices from 254 up all read 255:
// past that fill, which only views of c >= 255 reach, a non-empty slot
// always scans.
func mergeRuns(out, a, b []entry, x entry, self sim.NodeID, c int) []entry {
	if c <= 0 {
		return out[:0]
	}
	out = out[:c]
	var tab [1 << dedupBits]uint8
	hasX := x.id != self
	var ka, kb, kx uint64
	if len(a) > 0 {
		ka = key(a[0])
	}
	if len(b) > 0 {
		kb = key(b[0])
	}
	if hasX {
		kx = key(x)
	}
	n := 0
	for n < len(out) {
		// The next entry in canonical order: the head of a or of b (a
		// first on a tie, which only equal entries produce), or x if it
		// precedes that head. Keys decide unless they are equal.
		var d entry
		switch {
		case len(b) > 0 && (len(a) == 0 || kb < ka || kb == ka && b[0] != a[0] && before(b[0], a[0])):
			if d = b[0]; hasX && (kx < kb || kx == kb && x != d && before(x, d)) {
				d, hasX = x, false
			} else if b = b[1:]; len(b) > 0 {
				kb = key(b[0])
			}
		case len(a) > 0:
			if d = a[0]; hasX && (kx < ka || kx == ka && x != d && before(x, d)) {
				d, hasX = x, false
			} else if a = a[1:]; len(a) > 0 {
				ka = key(a[0])
			}
		case hasX:
			d, hasX = x, false
		default:
			return out[:n]
		}
		if d.id == self {
			continue
		}
		h := uint64(d.id) * 0x9e3779b97f4a7c15 >> (64 - dedupBits)
		if k := tab[h]; k != 0 && (out[k-1].id == d.id || containsID(out[:n], d.id)) {
			continue
		}
		tab[h] = uint8(min(n+1, 255))
		out[n] = d
		n++
	}
	return out[:n]
}

// containsID reports whether es holds an entry for id.
func containsID(es []entry, id sim.NodeID) bool {
	for i := range es {
		if es[i].id == id {
			return true
		}
	}
	return false
}

// Clone returns an independent copy of the view.
func (v *View) Clone() *View {
	return &View{c: v.c, items: append(make([]entry, 0, max(v.c, 0)), v.items...)}
}
