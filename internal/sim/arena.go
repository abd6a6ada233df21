package sim

import "fmt"

// The dense node arena. NodeIDs are monotonic and never reused, so nodes
// can live in a slice indexed by ID instead of a map: an ID lookup is two
// array indexings, and walking the population in ID order is a linear scan
// with no hashing and no separate order slice. The arena is chunked so
// that growing it never moves existing nodes — callers throughout the
// codebase hold *Node pointers across joins (protocol views, churn models,
// the live index), which a flat append-grown slice would invalidate.
//
// A chunk holds 1 024 nodes of 40 B: 40 KiB. Every engine pays for one
// chunk however few nodes it holds, and a campaign builds many small
// engines, so a chunk is kept small; but it stays above 32 KiB and a
// multiple of the runtime's 8 KiB page, so it is a large object on pages
// of its own. A smaller chunk is a small object of a pointer-bearing type,
// which carries an 8-byte malloc header that pushes it up a size class
// (256 or 512 nodes cost a large engine more heap per node, not less).
// TestArenaChunkIsWholePages pins this.
//
// Beside the nodes the arena keeps one liveness bit per ID, written with
// Node.Alive, so routing a message tests a bit instead of loading a node
// from a random chunk.

const (
	arenaChunkShift = 10
	arenaChunkSize  = 1 << arenaChunkShift
	arenaChunkMask  = arenaChunkSize - 1
)

// nodeArena stores every node ever created, dead or alive, densely indexed
// by NodeID. Chunks are allocated at full capacity and only ever appended
// to, so a *Node stays valid for the arena's lifetime.
type nodeArena struct {
	chunks [][]Node
	n      NodeID   // next ID == number of nodes ever allocated
	live   []uint64 // bit id%64 of word id/64: node id is alive
}

// len returns the number of nodes ever allocated.
func (a *nodeArena) len() int { return int(a.n) }

// alloc appends a fresh node with the next ID and returns its pointer.
// Everything but the ID is zero; the caller wires RNG, liveness and the
// protocol stack. An ID past the routing keys' range panics.
func (a *nodeArena) alloc() *Node {
	id := a.n
	if id >= MaxNodes {
		panic(fmt.Sprintf("sim: an engine holds at most %d nodes, the IDs a routing key can name", MaxNodes))
	}
	a.n++
	ci := int(id >> arenaChunkShift)
	if ci == len(a.chunks) {
		a.chunks = append(a.chunks, make([]Node, 0, arenaChunkSize))
	}
	if id%64 == 0 {
		a.live = append(a.live, 0)
	}
	c := &a.chunks[ci]
	*c = append(*c, Node{ID: id})
	return &(*c)[len(*c)-1]
}

// setAlive sets n's liveness, in the node and in its bit.
func (a *nodeArena) setAlive(n *Node, alive bool) {
	n.Alive = alive
	a.live[n.ID>>6] &^= 1 << (n.ID & 63)
	if alive {
		a.live[n.ID>>6] |= 1 << (n.ID & 63)
	}
}

// alive reports whether the node with the given ID exists and is alive:
// one bit test, false for IDs never issued and negative ones.
func (a *nodeArena) alive(id NodeID) bool {
	w := uint(id) >> 6
	return w < uint(len(a.live)) && a.live[w]&(1<<(uint(id)&63)) != 0
}

// at returns the node with the given ID, or nil when no such node exists.
func (a *nodeArena) at(id NodeID) *Node {
	if id < 0 || id >= a.n {
		return nil
	}
	return &a.chunks[id>>arenaChunkShift][id&arenaChunkMask]
}
