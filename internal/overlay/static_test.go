package overlay

import (
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"gossipopt/internal/rng"
	"gossipopt/internal/sim"
)

func degreeOK(t *testing.T, links [][]int, n int) {
	t.Helper()
	for i, nbrs := range links {
		seen := map[int]bool{}
		for _, j := range nbrs {
			if j < 0 || j >= n {
				t.Fatalf("node %d links to out-of-range %d", i, j)
			}
			if j == i {
				t.Fatalf("node %d links to itself", i)
			}
			if seen[j] {
				t.Fatalf("node %d links to %d twice", i, j)
			}
			seen[j] = true
		}
	}
}

func asGraph(links [][]int) map[sim.NodeID][]sim.NodeID {
	g := make(map[sim.NodeID][]sim.NodeID, len(links))
	for i, nbrs := range links {
		ids := make([]sim.NodeID, len(nbrs))
		for k, j := range nbrs {
			ids[k] = sim.NodeID(j)
		}
		g[sim.NodeID(i)] = ids
	}
	return g
}

func TestFullMesh(t *testing.T) {
	links := FullMesh(nil, 5)
	degreeOK(t, links, 5)
	for i, nbrs := range links {
		if len(nbrs) != 4 {
			t.Fatalf("node %d has degree %d", i, len(nbrs))
		}
	}
	if !IsConnected(asGraph(links)) {
		t.Fatal("full mesh disconnected")
	}
}

func TestRing(t *testing.T) {
	for _, n := range []int{1, 2, 3, 8, 100} {
		links := Ring(nil, n)
		degreeOK(t, links, n)
		if n >= 3 {
			for i, nbrs := range links {
				if len(nbrs) != 2 {
					t.Fatalf("ring(%d) node %d degree %d", n, i, len(nbrs))
				}
			}
		}
		if n > 1 && !IsConnected(asGraph(links)) {
			t.Fatalf("ring(%d) disconnected", n)
		}
	}
	// Ring clustering is 0 (no triangles) and path length ~ n/4.
	g := asGraph(Ring(nil, 64))
	if cc := ClusteringCoefficient(g); cc != 0 {
		t.Fatalf("ring clustering = %v", cc)
	}
	if apl, ok := AvgPathLength(g, 0); !ok || apl < 10 {
		t.Fatalf("ring(64) path length %.2f, want ~16", apl)
	}
}

func TestStar(t *testing.T) {
	links := Star(nil, 10)
	degreeOK(t, links, 10)
	if len(links[0]) != 9 {
		t.Fatalf("hub degree %d", len(links[0]))
	}
	for i := 1; i < 10; i++ {
		if len(links[i]) != 1 || links[i][0] != 0 {
			t.Fatalf("spoke %d links %v", i, links[i])
		}
	}
	if !IsConnected(asGraph(links)) {
		t.Fatal("star disconnected")
	}
}

func TestKRegularRandom(t *testing.T) {
	r := rng.New(1)
	links := KRegularRandom(5)(r, 50)
	degreeOK(t, links, 50)
	for i, nbrs := range links {
		if len(nbrs) != 5 {
			t.Fatalf("node %d out-degree %d, want 5", i, len(nbrs))
		}
	}
	// k is capped at n-1.
	links = KRegularRandom(10)(r, 4)
	for _, nbrs := range links {
		if len(nbrs) != 3 {
			t.Fatalf("capped degree %d, want 3", len(nbrs))
		}
	}
	// A negative k (a negative view size reaching core.InitTopology) is
	// clamped to 0 instead of panicking inside make.
	links = KRegularRandom(-3)(r, 10)
	if len(links) != 10 {
		t.Fatalf("%d rows, want 10", len(links))
	}
	for _, nbrs := range links {
		if len(nbrs) != 0 {
			t.Fatalf("negative k gave degree %d, want 0", len(nbrs))
		}
	}
}

func TestStaticSampler(t *testing.T) {
	s := &Static{peers: []sim.NodeID{1, 2, 3}}
	r := rng.New(3)
	seen := map[sim.NodeID]bool{}
	for i := 0; i < 100; i++ {
		id, ok := s.SamplePeer(r)
		if !ok {
			t.Fatal("SamplePeer failed")
		}
		seen[id] = true
	}
	if len(seen) != 3 {
		t.Fatalf("sampled %d distinct peers, want 3", len(seen))
	}
	empty := &Static{}
	if _, ok := empty.SamplePeer(r); ok {
		t.Fatal("empty static sampler returned ok")
	}
}

func TestInitStatic(t *testing.T) {
	e := sim.NewEngine(4)
	e.AddNodes(16)
	InitStatic(e, 0, Ring)
	g := Snapshot(e, 0)
	if !IsConnected(g) {
		t.Fatal("InitStatic ring disconnected")
	}
	for _, nbrs := range g {
		if len(nbrs) != 2 {
			t.Fatalf("ring degree %d", len(nbrs))
		}
	}

	// Neighbors returns exactly the topology's links mapped to live IDs.
	// Two crashed nodes make row index and node ID differ.
	for name, topo := range map[string]Topology{
		"ring": Ring, "star": Star, "full": FullMesh, "random": KRegularRandom(5),
	} {
		e := sim.NewEngine(4)
		e.AddNodes(16)
		e.Crash(3)
		e.Crash(7)
		var links [][]int
		InitStatic(e, 0, func(r *rng.RNG, n int) [][]int {
			links = topo(r, n)
			return links
		})
		live := e.LiveNodes()
		for i, nd := range live {
			want := make([]sim.NodeID, len(links[i]))
			for k, j := range links[i] {
				want[k] = live[j].ID
			}
			if got := nd.Protocol(0).(*Static).Neighbors(); !slices.Equal(got, want) {
				t.Fatalf("%s: node %d neighbors %v, want %v", name, nd.ID, got, want)
			}
		}
		if name == "ring" {
			if got := e.Node(2).Protocol(0).(*Static).Neighbors(); !slices.Equal(got, []sim.NodeID{1, 4}) {
				t.Fatalf("ring: node 2 neighbors %v, want [1 4]", got)
			}
		}
	}
}

// TestStaticSlabLayout pins how InitStatic stores links: 4-byte IDs, a
// fixed number of allocations per network whatever its size, and every
// row capped at its length so that an append cannot overwrite the next.
func TestStaticSlabLayout(t *testing.T) {
	if size := unsafe.Sizeof(Static{}.peers[0]); size != 4 {
		t.Fatalf("a static link is %d bytes, want 4", size)
	}
	// The first collection starts the runtime's mark workers, allocating;
	// run it now, not inside whichever measurement first fills the heap.
	runtime.GC()
	allocs := func(n int) float64 {
		e := sim.NewEngine(6)
		e.AddNodes(n)
		links := KRegularRandom(20)(rng.New(7), n)
		prebuilt := func(*rng.RNG, int) [][]int { return links }
		avg := testing.AllocsPerRun(5, func() { InitStatic(e, 0, prebuilt) })
		for _, nd := range e.LiveNodes() {
			if p := nd.Protocol(0).(*Static).peers; cap(p) != len(p) {
				t.Fatalf("n = %d: node %d links have cap %d, len %d", n, nd.ID, cap(p), len(p))
			}
		}
		return avg
	}
	if small, large := allocs(1000), allocs(5000); small != large {
		t.Fatalf("InitStatic allocates %.0f times at n = 1000 but %.0f at n = 5000", small, large)
	}
}

func TestSnapshotSkipsDeadTargets(t *testing.T) {
	e := sim.NewEngine(5)
	e.AddNodes(3)
	InitStatic(e, 0, FullMesh)
	e.Crash(2)
	g := Snapshot(e, 0)
	if len(g) != 2 {
		t.Fatalf("snapshot has %d nodes, want 2", len(g))
	}
	for id, nbrs := range g {
		for _, nb := range nbrs {
			if nb == 2 {
				t.Fatalf("node %d still links to dead node", id)
			}
		}
	}
}
