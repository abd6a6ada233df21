// Package overlay implements the paper's topology service: the NEWSCAST
// gossip-based peer-sampling protocol (Jelasity et al.), a set of static
// reference topologies (full mesh, ring, star/master-slave, grid,
// k-regular random, Watts–Strogatz small-world) and graph-analysis helpers
// used to verify that Newscast indeed maintains a strongly connected,
// random-graph-like overlay under churn.
package overlay

import (
	"gossipopt/internal/rng"
	"gossipopt/internal/sim"
)

// Descriptor is a Newscast node descriptor: a remote node identifier plus a
// logical timestamp recording when the descriptor was created. Fresher
// descriptors win during view merges, which is what flushes crashed nodes
// out of the overlay.
type Descriptor struct {
	ID    sim.NodeID
	Stamp int64
}

// View is a bounded set of descriptors, at most one per node ID. The zero
// value is an empty view that stays empty (capacity 0).
//
// Invariant: items is strictly sorted under the canonical order (before):
// freshest stamp first, equal stamps by the mix hash, then by ID. Merge
// relies on it — it merges the view with the batch linearly instead of
// sorting their union — so everything that writes items must keep it:
// Merge emits in that order, Remove and Clone preserve it.
type View struct {
	c     int
	items []Descriptor
}

// NewView creates an empty view with capacity c.
func NewView(c int) *View { return &View{c: c} }

// Cap returns the view capacity.
func (v *View) Cap() int { return v.c }

// Len returns the number of descriptors currently held.
func (v *View) Len() int { return len(v.items) }

// IDs returns the node IDs in the view, freshest first.
func (v *View) IDs() []sim.NodeID {
	out := make([]sim.NodeID, len(v.items))
	for i, d := range v.items {
		out[i] = d.ID
	}
	return out
}

// Descriptors returns a copy of the view contents, freshest first.
func (v *View) Descriptors() []Descriptor {
	return append([]Descriptor(nil), v.items...)
}

// AppendDescriptors appends the view contents, freshest first, onto buf
// and returns the extended slice — the allocation-free variant of
// Descriptors for per-cycle snapshots into recycled payload buffers.
func (v *View) AppendDescriptors(buf []Descriptor) []Descriptor {
	return append(buf, v.items...)
}

// SampleID returns a uniformly random ID from the view without
// materializing the ID slice (ok is false when the view is empty). The
// draw is identical to indexing IDs(): one Intn over the view length.
func (v *View) SampleID(r *rng.RNG) (sim.NodeID, bool) {
	if len(v.items) == 0 {
		return 0, false
	}
	return v.items[r.Intn(len(v.items))].ID, true
}

// Contains reports whether the view holds a descriptor for id.
func (v *View) Contains(id sim.NodeID) bool { return containsID(v.items, id) }

// Insert merges a single descriptor into the view, keeping at most one
// descriptor per ID (the freshest) and at most Cap descriptors overall
// (the freshest). self is excluded: a view never contains its owner.
func (v *View) Insert(self sim.NodeID, d Descriptor) {
	v.Merge(self, []Descriptor{d})
}

// mix hashes a descriptor to break freshness ties. Breaking ties by plain
// ID order would systematically favor low-ID nodes and grow hubs; a
// deterministic hash keeps merging reproducible without the bias.
func mix(d Descriptor) uint64 {
	x := uint64(d.ID)*0x9e3779b97f4a7c15 ^ uint64(d.Stamp)*0xbf58476d1ce4e5b9
	x ^= x >> 31
	x *= 0x94d049bb133111eb
	return x ^ x>>29
}

// before reports whether a precedes b in the canonical view order: fresher
// stamp first, ties by mix, then by ID. It is a strict total order on
// distinct descriptors (neither precedes the other only when a == b),
// which is what makes a merge result independent of how it is computed.
func before(a, b Descriptor) bool {
	if a.Stamp != b.Stamp {
		return a.Stamp > b.Stamp
	}
	if ha, hb := mix(a), mix(b); ha != hb {
		return ha < hb
	}
	return a.ID < b.ID
}

// mergeStack sizes Merge's two stack-resident buffers: enough for a c=20
// view and the 2c+2 descriptors of a Newscast exchange. Larger views or
// batches spill to the heap through append; results do not depend on it.
const mergeStack = 48

// Merge folds a batch of descriptors into the view under the Newscast rule:
// drop self-descriptors, deduplicate by ID keeping the freshest stamp, then
// keep the Cap freshest overall. Ties in freshness break by a deterministic
// hash of the descriptor so merging is reproducible yet unbiased.
//
// The result is the first Cap distinct IDs of (view ∪ batch) in canonical
// order. The view is already in that order, so only the batch is sorted,
// and by insertion: Newscast's batch is a peer's sorted snapshot with two
// fresh descriptors at the tail, which insertion sort orders in a few
// dozen moves where a general sort pays for all 2c+2; an unordered batch
// (Cyclon, Bootstrap) is merely slower, never wrong. A two-way merge then
// emits the two runs in order. A duplicate ID is dropped by scanning what
// was already emitted: at most Cap descriptors, contiguous and in cache,
// which at Cap=20 costs less than hashing each ID into a map that must
// also be cleared per call and kept on every one of a million views. All
// scratch lives on the caller's stack, so Merge allocates nothing (it
// runs twice per node per cycle) and a View carries no buffers.
func (v *View) Merge(self sim.NodeID, batch []Descriptor) {
	var bufB, bufA [mergeStack]Descriptor
	b := bufB[:0]
	for _, d := range batch {
		if d.ID == self {
			continue
		}
		b = append(b, d)
		i := len(b) - 1
		for ; i > 0 && before(d, b[i-1]); i-- {
			b[i] = b[i-1]
		}
		b[i] = d
	}
	// The output overwrites items in place, so the old contents move out.
	a := append(bufA[:0], v.items...)

	out := v.items[:0]
	for i, j := 0, 0; len(out) < v.c && (i < len(a) || j < len(b)); {
		var d Descriptor
		if j == len(b) || i < len(a) && !before(b[j], a[i]) {
			d = a[i]
			i++
		} else {
			d = b[j]
			j++
		}
		if !containsID(out, d.ID) {
			out = append(out, d)
		}
	}
	v.items = out
}

// containsID reports whether ds holds a descriptor for id.
func containsID(ds []Descriptor, id sim.NodeID) bool {
	for i := range ds {
		if ds[i].ID == id {
			return true
		}
	}
	return false
}

// Remove deletes the descriptor for id, if present, keeping the order of
// the others.
func (v *View) Remove(id sim.NodeID) {
	for i, d := range v.items {
		if d.ID == id {
			v.items = append(v.items[:i], v.items[i+1:]...)
			return
		}
	}
}

// Clone returns an independent copy of the view.
func (v *View) Clone() *View {
	return &View{c: v.c, items: append([]Descriptor(nil), v.items...)}
}
