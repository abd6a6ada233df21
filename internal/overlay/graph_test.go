package overlay

import (
	"sort"

	"gossipopt/internal/sim"
)

// Graph analysis over the live overlay, used to validate the topology
// service: Newscast must keep the overlay connected with random-graph-like
// statistics (short paths, low clustering) even under churn.

// Snapshot captures the directed overlay induced by the PeerSampler in the
// given protocol slot across all live nodes.
func Snapshot(e *sim.Engine, slot int) map[sim.NodeID][]sim.NodeID {
	g := make(map[sim.NodeID][]sim.NodeID)
	e.ForEachLive(func(n *sim.Node) {
		ps, ok := n.Protocol(slot).(PeerSampler)
		if !ok {
			return
		}
		// Keep only live targets: dead descriptors are overlay pollution
		// and are exactly what connectivity analysis must see through.
		var live []sim.NodeID
		for _, id := range ps.Neighbors() {
			if t := e.Node(id); t != nil && t.Alive {
				live = append(live, id)
			}
		}
		g[n.ID] = live
	})
	return g
}

// sortedIDs returns g's keys in ascending order. Map iteration order is
// randomized per run, so every metric below walks the graph through this
// helper to stay reproducible.
func sortedIDs(g map[sim.NodeID][]sim.NodeID) []sim.NodeID {
	ids := make([]sim.NodeID, 0, len(g))
	for id := range g {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// Undirect returns the undirected version of g (union of both directions).
// Adjacency lists come out in a deterministic order: nodes are visited by
// ascending ID, so downstream traversals are reproducible.
func Undirect(g map[sim.NodeID][]sim.NodeID) map[sim.NodeID][]sim.NodeID {
	ids := sortedIDs(g)
	u := make(map[sim.NodeID][]sim.NodeID, len(g))
	seen := make(map[[2]sim.NodeID]bool)
	addEdge := func(a, b sim.NodeID) {
		if a == b {
			return
		}
		key := [2]sim.NodeID{a, b}
		if key[0] > key[1] {
			key[0], key[1] = key[1], key[0]
		}
		if seen[key] {
			return
		}
		seen[key] = true
		u[a] = append(u[a], b)
		u[b] = append(u[b], a)
	}
	for _, a := range ids {
		if _, ok := u[a]; !ok {
			u[a] = nil
		}
	}
	for _, a := range ids {
		for _, b := range g[a] {
			if _, ok := g[b]; !ok {
				continue // edge to a node outside the snapshot
			}
			addEdge(a, b)
		}
	}
	return u
}

// ConnectedComponents returns the sizes of the connected components of the
// undirected version of g, largest first.
func ConnectedComponents(g map[sim.NodeID][]sim.NodeID) []int {
	u := Undirect(g)
	visited := make(map[sim.NodeID]bool, len(u))
	var sizes []int
	for _, start := range sortedIDs(u) {
		if visited[start] {
			continue
		}
		size := 0
		queue := []sim.NodeID{start}
		visited[start] = true
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			size++
			for _, nb := range u[cur] {
				if !visited[nb] {
					visited[nb] = true
					queue = append(queue, nb)
				}
			}
		}
		sizes = append(sizes, size)
	}
	// Largest first (insertion sort; component counts are tiny).
	for i := 1; i < len(sizes); i++ {
		for j := i; j > 0 && sizes[j] > sizes[j-1]; j-- {
			sizes[j], sizes[j-1] = sizes[j-1], sizes[j]
		}
	}
	return sizes
}

// IsConnected reports whether the undirected overlay is a single component.
func IsConnected(g map[sim.NodeID][]sim.NodeID) bool {
	cc := ConnectedComponents(g)
	return len(cc) == 1 || (len(cc) == 0)
}

// ClusteringCoefficient returns the average local clustering coefficient of
// the undirected overlay — near C/n for a random graph, near 3/4 for a
// ring lattice.
func ClusteringCoefficient(g map[sim.NodeID][]sim.NodeID) float64 {
	u := Undirect(g)
	adj := make(map[sim.NodeID]map[sim.NodeID]bool, len(u))
	for a, nbrs := range u {
		m := make(map[sim.NodeID]bool, len(nbrs))
		for _, b := range nbrs {
			m[b] = true
		}
		adj[a] = m
	}
	var total float64
	var counted int
	// Ascending-ID order keeps the float accumulation reproducible (the
	// per-node coefficients are not integers, so addition order matters in
	// the last ulp).
	for _, a := range sortedIDs(u) {
		nbrs := u[a]
		k := len(nbrs)
		if k < 2 {
			continue
		}
		links := 0
		for i := 0; i < k; i++ {
			for j := i + 1; j < k; j++ {
				if adj[nbrs[i]][nbrs[j]] {
					links++
				}
			}
		}
		total += 2 * float64(links) / float64(k*(k-1))
		counted++
	}
	if counted == 0 {
		return 0
	}
	return total / float64(counted)
}

// AvgPathLength estimates the mean shortest-path length of the undirected
// overlay by BFS from up to samples sources (all sources if samples <= 0).
// Unreachable pairs are skipped; ok is false if no finite path was found.
func AvgPathLength(g map[sim.NodeID][]sim.NodeID, samples int) (avg float64, ok bool) {
	u := Undirect(g)
	sources := sortedIDs(u)
	if samples > 0 && samples < len(sources) {
		sources = sources[:samples]
	}
	var sum float64
	var count int64
	for _, src := range sources {
		dist := map[sim.NodeID]int{src: 0}
		queue := []sim.NodeID{src}
		// Distances accumulate at discovery time: with Undirect's adjacency
		// order deterministic, BFS order — and therefore the sum — is too.
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			for _, nb := range u[cur] {
				if _, seen := dist[nb]; !seen {
					d := dist[cur] + 1
					dist[nb] = d
					queue = append(queue, nb)
					sum += float64(d)
					count++
				}
			}
		}
	}
	if count == 0 {
		return 0, false
	}
	return sum / float64(count), true
}
