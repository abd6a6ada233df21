package overlay

import (
	"gossipopt/internal/rng"
	"gossipopt/internal/sim"
)

// Static is a fixed-neighbor PeerSampler: the topology service reduced to a
// static graph. The paper names several alternatives to peer sampling — a
// mesh, a star for master-slave — which are all instances of Static with
// different neighbor sets. Static implements the protocol contract as a
// no-op so it can occupy a protocol slot interchangeably with Newscast.
// Every node's links share one slab (see InitStatic).
type Static struct {
	peers []sim.NodeID
}

// Compile-time guard for the two-phase contract (see Newscast's note).
var _ sim.Proposer = (*Static)(nil)

// SamplePeer implements PeerSampler.
func (s *Static) SamplePeer(r *rng.RNG) (sim.NodeID, bool) {
	if len(s.peers) == 0 {
		return 0, false
	}
	return s.peers[r.Intn(len(s.peers))], true
}

// Neighbors implements PeerSampler. It returns the node's row of the links
// slab itself, uncopied: callers must not modify it.
func (s *Static) Neighbors() []sim.NodeID { return s.peers }

// Propose implements sim.Proposer as a no-op: static topologies need no
// maintenance, and by speaking the two-phase contract they keep a node's
// whole stack on the parallel propose path.
func (s *Static) Propose(*sim.Node, *sim.Proposals) {}

// Topology builds the out-link lists for n nodes (indexed 0..n-1).
type Topology func(r *rng.RNG, n int) [][]int

// FullMesh connects every node to every other node (the "full information"
// extreme of the paper's spectrum).
func FullMesh(_ *rng.RNG, n int) [][]int {
	out := make([][]int, n)
	for i := range out {
		for j := 0; j < n; j++ {
			if j != i {
				out[i] = append(out[i], j)
			}
		}
	}
	return out
}

// Ring connects each node to its two lattice neighbors.
func Ring(_ *rng.RNG, n int) [][]int {
	out := make([][]int, n)
	for i := range out {
		if n <= 1 {
			continue
		}
		prev := (i - 1 + n) % n
		next := (i + 1) % n
		if prev == next { // n == 2
			out[i] = []int{next}
		} else {
			out[i] = []int{prev, next}
		}
	}
	return out
}

// Star connects node 0 (the master) to all others and every other node only
// to node 0 — the centralized master-slave shape the paper contrasts with.
func Star(_ *rng.RNG, n int) [][]int {
	out := make([][]int, n)
	for i := 1; i < n; i++ {
		out[0] = append(out[0], i)
		out[i] = []int{0}
	}
	return out
}

// KRegularRandom gives every node k distinct random out-links (k is clamped
// to [0, n-1]). This approximates the stationary Newscast overlay.
func KRegularRandom(k int) Topology {
	return func(r *rng.RNG, n int) [][]int {
		k := max(min(k, n-1), 0)
		out := make([][]int, n)
		for i := range out {
			row := r.AppendSample(make([]int, 0, k), n-1, k)
			for t, j := range row {
				// Map [0, n-2] onto [0, n-1] \ {i}.
				if j >= i {
					row[t] = j + 1
				}
			}
			out[i] = row
		}
		return out
	}
}

// InitStatic wires Static samplers built from topo into protocol slot
// `slot` of every live node of e. Node index order follows e.LiveNodes().
// The network's links take two allocations whatever its size: one slab
// holding every node's links in node order, each node's row capped so that
// no append can run into the next, and one []Static.
func InitStatic(e *sim.Engine, slot int, topo Topology) {
	nodes := e.LiveNodes()
	links := topo(e.RNG(), len(nodes))
	total := 0
	for _, row := range links {
		total += len(row)
	}
	slab := make([]sim.NodeID, 0, total)
	statics := make([]Static, len(nodes))
	for i, n := range nodes {
		start := len(slab)
		for _, j := range links[i] {
			slab = append(slab, nodes[j].ID)
		}
		statics[i].peers = slab[start:len(slab):len(slab)]
		for len(n.Protocols) <= slot {
			n.Protocols = append(n.Protocols, nil)
		}
		n.Protocols[slot] = &statics[i]
	}
}
