package p2p

import (
	"encoding/gob"
	"fmt"
	"net"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"gossipopt/internal/funcs"
)

// startCluster launches n nodes; node 0 is the bootstrap target of all
// others. Caller must stop every returned node.
func startCluster(t *testing.T, n int, cfg NodeConfig) []*Node {
	t.Helper()
	nodes := make([]*Node, 0, n)
	for i := 0; i < n; i++ {
		c := cfg
		c.Seed = uint64(i + 1)
		if i > 0 {
			c.Bootstrap = []string{nodes[0].Addr()}
		}
		nd, err := Start(c)
		if err != nil {
			for _, p := range nodes {
				p.Stop()
			}
			t.Fatalf("start node %d: %v", i, err)
		}
		nodes = append(nodes, nd)
	}
	t.Cleanup(func() {
		for _, nd := range nodes {
			nd.Stop()
		}
	})
	return nodes
}

func fastCfg() NodeConfig {
	return NodeConfig{
		Function:         funcs.Sphere,
		Particles:        8,
		GossipEvery:      8,
		NewscastInterval: 20 * time.Millisecond,
		EvalThrottle:     100 * time.Microsecond,
		DialTimeout:      time.Second,
	}
}

func waitUntil(t *testing.T, timeout time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal(msg)
}

func TestSingleNodeOptimizes(t *testing.T) {
	nodes := startCluster(t, 1, fastCfg())
	waitUntil(t, 5*time.Second, func() bool {
		return nodes[0].Evals() > 1000
	}, "node performed no evaluations")
	_, f, ok := nodes[0].Best()
	if !ok {
		t.Fatal("no best after 1000 evals")
	}
	if f < 0 {
		t.Fatalf("negative fitness %g", f)
	}
}

func TestViewsPropagate(t *testing.T) {
	nodes := startCluster(t, 5, fastCfg())
	// Every node must eventually know more than just the bootstrap node.
	waitUntil(t, 10*time.Second, func() bool {
		for _, nd := range nodes[1:] {
			if len(nd.Peers()) < 2 {
				return false
			}
		}
		return len(nodes[0].Peers()) >= 2
	}, "views never propagated beyond bootstrap")
}

func TestBestDiffusesAcrossCluster(t *testing.T) {
	nodes := startCluster(t, 4, fastCfg())
	waitUntil(t, 15*time.Second, func() bool {
		// All nodes converge to (nearly) the same best via gossip.
		var lo, hi float64
		first := true
		for _, nd := range nodes {
			_, f, ok := nd.Best()
			if !ok {
				return false
			}
			if first {
				lo, hi = f, f
				first = false
				continue
			}
			if f < lo {
				lo = f
			}
			if f > hi {
				hi = f
			}
		}
		// Some adoption must have happened and all nodes must be close
		// to the cluster-wide best.
		var adoptions int64
		for _, nd := range nodes {
			_, a, _ := nd.Stats()
			adoptions += a
		}
		return adoptions > 0 && hi <= lo*1e6+1e-6
	}, "best never diffused across the cluster")
}

func TestClusterConvergesOnSphere(t *testing.T) {
	cfg := fastCfg()
	cfg.EvalThrottle = 0 // full speed
	nodes := startCluster(t, 3, cfg)
	waitUntil(t, 15*time.Second, func() bool {
		_, f, ok := nodes[1].Best()
		return ok && f < 1e-6
	}, "cluster never converged on Sphere")
}

func TestNodeCrashTolerated(t *testing.T) {
	nodes := startCluster(t, 4, fastCfg())
	waitUntil(t, 10*time.Second, func() bool {
		return len(nodes[3].Peers()) >= 2
	}, "cluster never formed")
	// Kill the bootstrap node; the rest must keep optimizing.
	nodes[0].Stop()
	before := nodes[1].Evals()
	waitUntil(t, 10*time.Second, func() bool {
		return nodes[1].Evals() > before+1000
	}, "survivors stopped optimizing after bootstrap crash")
	// The dead peer must age out of views (failed exchanges remove it).
	dead := nodes[0].Addr()
	waitUntil(t, 15*time.Second, func() bool {
		for _, nd := range nodes[1:] {
			for _, p := range nd.Peers() {
				if p == dead {
					return false
				}
			}
		}
		return true
	}, "dead bootstrap still present in views")
}

func TestStopIsClean(t *testing.T) {
	nd, err := Start(fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	done := make(chan struct{})
	go func() {
		nd.Stop()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Stop did not return")
	}
}

func TestDefaultsApplied(t *testing.T) {
	c := NodeConfig{}.withDefaults()
	if c.Particles != 16 || c.GossipEvery != 16 || c.ViewSize != 20 {
		t.Fatalf("defaults = %+v", c)
	}
	if c.Function.Name != "Sphere" {
		t.Fatalf("default function = %s", c.Function.Name)
	}
}

func TestBootstrapUnreachableStillRuns(t *testing.T) {
	cfg := fastCfg()
	cfg.Bootstrap = []string{"127.0.0.1:1"} // nothing listens there
	nd, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer nd.Stop()
	waitUntil(t, 5*time.Second, func() bool {
		return nd.Evals() > 100
	}, "node with dead bootstrap froze")
}

func TestServerSurvivesGarbageAndPartialConnections(t *testing.T) {
	nd, err := Start(fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer nd.Stop()

	// Garbage bytes instead of a gob envelope.
	conn, err := net.Dial("tcp", nd.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write([]byte("NOT A GOB STREAM \x00\xff\x17")); err != nil {
		t.Fatal(err)
	}
	conn.Close()

	// A connection that opens and immediately closes.
	conn2, err := net.Dial("tcp", nd.Addr())
	if err != nil {
		t.Fatal(err)
	}
	conn2.Close()

	// An unknown message kind.
	conn3, err := net.Dial("tcp", nd.Addr())
	if err != nil {
		t.Fatal(err)
	}
	_ = gob.NewEncoder(conn3).Encode(&Envelope{Kind: 99, From: "nobody"})
	conn3.Close()

	// The node must keep optimizing through all of it.
	before := nd.Evals()
	waitUntil(t, 5*time.Second, func() bool {
		return nd.Evals() > before+500
	}, "node stalled after malformed connections")
}

// countingConn counts the bytes the server side reads.
type countingConn struct {
	net.Conn
	read atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.read.Add(int64(n))
	return n, err
}

// sendHostilePrefix writes a gob message length of 1 GB, then junk, until
// the peer hangs up or 4x the envelope limit has gone out; it returns the
// bytes written.
func sendHostilePrefix(conn net.Conn) int {
	// gob encodes a uint >= 128 as its negated byte count, then big-endian
	// bytes: 0xFC = -4, followed by 1<<30.
	n, err := conn.Write([]byte{0xFC, 0x40, 0x00, 0x00, 0x00})
	junk := make([]byte, 4<<10)
	for err == nil && n < 4*maxEnvelopeBytes {
		var w int
		w, err = conn.Write(junk)
		n += w
	}
	return n
}

// TestServerBoundsHostileLengthPrefix: a peer announcing a 1 GB message is
// disconnected after at most maxEnvelopeBytes of input, and the node then
// still completes a valid view exchange and a valid best exchange.
func TestServerBoundsHostileLengthPrefix(t *testing.T) {
	nd, err := Start(fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer nd.Stop()

	client, server := net.Pipe()
	counted := &countingConn{Conn: server}
	done := make(chan struct{})
	go func() {
		nd.serve(counted)
		close(done)
	}()
	sent := sendHostilePrefix(client)
	client.Close()
	<-done
	if got := counted.read.Load(); got > maxEnvelopeBytes {
		t.Fatalf("server read %d bytes of a hostile message, limit %d", got, maxEnvelopeBytes)
	}
	if sent >= 4*maxEnvelopeBytes {
		t.Fatalf("server kept accepting input: %d bytes sent", sent)
	}

	// The same attack over TCP, then the two legitimate exchanges.
	conn, err := net.Dial("tcp", nd.Addr())
	if err != nil {
		t.Fatal(err)
	}
	_ = conn.SetDeadline(time.Now().Add(5 * time.Second)) // a write error ends the attack either way
	sendHostilePrefix(conn)
	conn.Close()
	view, err := roundTrip(nd.Addr(), &Envelope{Kind: kindViewExchange, From: "10.0.0.7:1",
		View: []Descriptor{{Addr: "10.0.0.7:1", Stamp: time.Now().UnixNano()}}}, 2*time.Second)
	if err != nil || view.Kind != kindViewExchange || len(view.View) == 0 {
		t.Fatalf("view exchange after the attack: %+v, %v", view, err)
	}
	best, err := roundTrip(nd.Addr(), &Envelope{Kind: kindBestExchange, From: "10.0.0.7:1",
		X: make([]float64, 10), F: 0, Has: true}, 2*time.Second)
	if err != nil || !best.Has || best.F != 0 {
		t.Fatalf("best exchange after the attack: %+v, %v", best, err)
	}
}

func TestViewExchangeOverWire(t *testing.T) {
	// Drive one view exchange by hand to pin the wire protocol.
	nd, err := Start(fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer nd.Stop()

	req := &Envelope{
		Kind: kindViewExchange,
		From: "10.0.0.9:999",
		View: []Descriptor{{Addr: "10.0.0.9:999", Stamp: time.Now().UnixNano()}},
	}
	resp, err := roundTrip(nd.Addr(), req, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Kind != kindViewExchange {
		t.Fatalf("reply kind %d", resp.Kind)
	}
	// The reply must contain the node's own fresh descriptor.
	foundSelf := false
	for _, d := range resp.View {
		if d.Addr == nd.Addr() {
			foundSelf = true
		}
	}
	if !foundSelf {
		t.Fatalf("reply view %v lacks the node's self-descriptor", resp.View)
	}
	// And our address must now be in the node's view.
	waitUntil(t, 2*time.Second, func() bool {
		for _, p := range nd.Peers() {
			if p == "10.0.0.9:999" {
				return true
			}
		}
		return false
	}, "sender not merged into the view")
}

func TestBestExchangeOverWire(t *testing.T) {
	nd, err := Start(fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer nd.Stop()
	waitUntil(t, 5*time.Second, func() bool { return nd.Evals() > 50 }, "no evals")

	// Push a perfect point; the node must adopt it and report it back.
	req := &Envelope{Kind: kindBestExchange, From: "x", X: make([]float64, 10), F: 0, Has: true}
	resp, err := roundTrip(nd.Addr(), req, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Has || resp.F != 0 {
		t.Fatalf("reply = %+v, want adopted best 0", resp)
	}
	_, f, ok := nd.Best()
	if !ok || f != 0 {
		t.Fatalf("node best %v after perfect injection", f)
	}
}

// TestViewMergeTieBreakIsNotAddressOrder pins the hash tie-break: among
// descriptors of equal freshness the order — and with it who survives the
// capacity cut — must not follow address order (which would make the
// lowest addresses hubs of every view), must not depend on the order the
// descriptors arrived in, and must change with the stamp so that no
// address wins every tie.
func TestViewMergeTieBreakIsNotAddressOrder(t *testing.T) {
	batch := func(stamp int64) []Descriptor {
		ds := make([]Descriptor, 16)
		for i := range ds {
			ds[i] = Descriptor{Addr: fmt.Sprintf("10.0.0.%02d:7000", i+1), Stamp: stamp}
		}
		return ds
	}
	full := newWireView(16)
	full.merge("self", batch(5))
	order := full.addrs()
	if len(order) != 16 {
		t.Fatalf("view holds %d of 16 descriptors", len(order))
	}
	if slices.IsSorted(order) {
		t.Fatalf("equal-stamp descriptors came out in address order: %v", order)
	}

	reversed := batch(5)
	slices.Reverse(reversed)
	again := newWireView(16)
	again.merge("self", reversed)
	if !slices.Equal(again.addrs(), order) {
		t.Fatalf("tie-break depends on arrival order:\n%v\n%v", order, again.addrs())
	}

	capped, later := newWireView(4), newWireView(4)
	capped.merge("self", batch(5))
	later.merge("self", batch(6))
	if !slices.Equal(capped.addrs(), order[:4]) {
		t.Fatalf("capacity cut kept %v, want the first four of %v", capped.addrs(), order)
	}
	if slices.Equal(capped.addrs(), later.addrs()) {
		t.Fatalf("the same addresses win the tie at every stamp: %v", capped.addrs())
	}
}
