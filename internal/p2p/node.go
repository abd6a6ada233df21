package p2p

import (
	"encoding/gob"
	"errors"
	"fmt"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"gossipopt/internal/funcs"
	"gossipopt/internal/pso"
	"gossipopt/internal/rng"
	"gossipopt/internal/solver"
	"gossipopt/internal/vec"
)

// NodeConfig configures one live node.
type NodeConfig struct {
	// Listen is the TCP listen address ("127.0.0.1:0" picks a free port).
	Listen string
	// Bootstrap seeds the view with known peer addresses (empty for the
	// first node of a cluster).
	Bootstrap []string
	// Function and Dim select the objective (default Sphere / paper dim).
	Function funcs.Function
	Dim      int
	// Particles is the per-node swarm size (default 16); SolverFactory
	// overrides the default PSO when set.
	Particles     int
	SolverFactory solver.Factory
	// GossipEvery is r: one best-point exchange per r local evaluations
	// (default = Particles).
	GossipEvery int
	// ViewSize is Newscast's c (default 20).
	ViewSize int
	// NewscastInterval is the wall-clock Newscast cycle length (the paper
	// suggests 10–60 s in production; tests use milliseconds; default
	// 500 ms).
	NewscastInterval time.Duration
	// EvalThrottle, when positive, sleeps this long between evaluations
	// (simulating an expensive objective; default 0 = full speed).
	EvalThrottle time.Duration
	// DialTimeout bounds each exchange round-trip (default 2 s).
	DialTimeout time.Duration
	// Seed drives the node's RNG (default: derived from the address).
	Seed uint64
}

func (c NodeConfig) withDefaults() NodeConfig {
	if c.Listen == "" {
		c.Listen = "127.0.0.1:0"
	}
	if c.Function.Eval == nil {
		c.Function = funcs.Sphere
	}
	if c.Particles == 0 {
		c.Particles = 16
	}
	if c.GossipEvery == 0 {
		c.GossipEvery = c.Particles
	}
	if c.ViewSize == 0 {
		c.ViewSize = 20
	}
	if c.NewscastInterval == 0 {
		c.NewscastInterval = 500 * time.Millisecond
	}
	if c.DialTimeout == 0 {
		c.DialTimeout = 2 * time.Second
	}
	return c
}

// Node is a live framework node: listener plus Newscast and optimizer
// loops. Create with Start, stop with Stop.
type Node struct {
	cfg  NodeConfig
	ln   net.Listener
	addr string

	mu     sync.Mutex // guards view and solver
	view   *view
	solver solver.Solver

	evals     atomic.Int64
	exchanges atomic.Int64
	adoptions atomic.Int64
	failed    atomic.Int64

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// Start launches a node: it binds the listener, seeds the view from
// Bootstrap, and starts the accept, Newscast and optimizer loops.
func Start(cfg NodeConfig) (*Node, error) {
	cfg = cfg.withDefaults()
	ln, err := net.Listen("tcp", cfg.Listen)
	if err != nil {
		return nil, fmt.Errorf("p2p: listen: %w", err)
	}
	n := &Node{
		cfg:  cfg,
		ln:   ln,
		addr: ln.Addr().String(),
		view: newWireView(cfg.ViewSize),
		stop: make(chan struct{}),
	}
	seed := cfg.Seed
	if seed == 0 {
		for _, b := range []byte(n.addr) {
			seed = seed*131 + uint64(b)
		}
	}
	r := rng.New(seed)
	mk := cfg.SolverFactory
	if mk == nil {
		mk = func(f funcs.Function, dim int, _ int64, r *rng.RNG) solver.Solver {
			return pso.New(f, dim, cfg.Particles, pso.Config{}, r)
		}
	}
	// A TCP node's identity is its address; the seed derived from it
	// doubles as the factory's node id.
	n.solver = mk(cfg.Function, cfg.Dim, int64(seed), r)

	now := time.Now().UnixNano()
	boot := make([]Descriptor, 0, len(cfg.Bootstrap))
	for _, a := range cfg.Bootstrap {
		boot = append(boot, Descriptor{Addr: a, Stamp: now})
	}
	n.view.merge(n.addr, boot)

	n.wg.Add(3)
	go n.acceptLoop()
	go n.newscastLoop(r.Split())
	go n.optimizeLoop(r.Split())
	return n, nil
}

// Addr returns the node's bound address (dialable by peers).
func (n *Node) Addr() string { return n.addr }

// Best returns the node's best point (copy) and whether one exists.
func (n *Node) Best() ([]float64, float64, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	x, f := n.solver.Best()
	if x == nil {
		return nil, math.Inf(1), false
	}
	return vec.Clone(x), f, true
}

// Evals returns the number of local objective evaluations so far.
func (n *Node) Evals() int64 { return n.evals.Load() }

// Peers returns the current view's addresses, freshest first.
func (n *Node) Peers() []string {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.view.addrs()
}

// Stats reports the coordination counters: initiated exchanges, adoptions
// of remote bests, and failed (unreachable/timed-out) exchanges.
func (n *Node) Stats() (exchanges, adoptions, failed int64) {
	return n.exchanges.Load(), n.adoptions.Load(), n.failed.Load()
}

// Stop terminates the node's loops and closes the listener. It blocks
// until all goroutines exit and is safe to call multiple times.
func (n *Node) Stop() {
	n.stopOnce.Do(func() {
		close(n.stop)
		n.ln.Close()
	})
	n.wg.Wait()
}

func (n *Node) stopped() bool {
	select {
	case <-n.stop:
		return true
	default:
		return false
	}
}

// acceptLoop serves incoming exchanges.
func (n *Node) acceptLoop() {
	defer n.wg.Done()
	for {
		conn, err := n.ln.Accept()
		if err != nil {
			if n.stopped() {
				return
			}
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				continue
			}
			return
		}
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			n.serve(conn)
		}()
	}
}

// serve handles one request/response exchange.
func (n *Node) serve(conn net.Conn) {
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(n.cfg.DialTimeout))
	var req Envelope
	if err := decodeEnvelope(conn, &req); err != nil {
		return
	}
	var resp Envelope
	switch req.Kind {
	case kindViewExchange:
		resp = n.handleViewExchange(&req)
	case kindBestExchange:
		resp = n.handleBestExchange(&req)
	default:
		return
	}
	_ = gob.NewEncoder(conn).Encode(&resp)
}

// handleViewExchange performs the receiver side of a Newscast shuffle:
// reply with our view + fresh self-descriptor, then merge theirs.
func (n *Node) handleViewExchange(req *Envelope) Envelope {
	now := time.Now().UnixNano()
	n.mu.Lock()
	defer n.mu.Unlock()
	mine := n.view.snapshot()
	mine = append(mine, Descriptor{Addr: n.addr, Stamp: now})
	incoming := append(req.View, Descriptor{Addr: req.From, Stamp: now})
	n.view.merge(n.addr, incoming)
	return Envelope{Kind: kindViewExchange, From: n.addr, View: mine}
}

// handleBestExchange is the receiver side of the paper's §3.3.3 exchange:
// adopt the sender's point if better, reply with ours so the sender can
// adopt too.
func (n *Node) handleBestExchange(req *Envelope) Envelope {
	n.mu.Lock()
	defer n.mu.Unlock()
	if req.Has {
		if n.solver.Inject(req.X, req.F) {
			n.adoptions.Add(1)
		}
	}
	x, f := n.solver.Best()
	resp := Envelope{Kind: kindBestExchange, From: n.addr}
	if x != nil {
		resp.X = vec.Clone(x)
		resp.F = f
		resp.Has = true
	}
	return resp
}

// samplePeer picks a uniform random view entry (empty string if none).
func (n *Node) samplePeer(r *rng.RNG) string {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.view.len() == 0 {
		return ""
	}
	addrs := n.view.addrs()
	return addrs[r.Intn(len(addrs))]
}

// newscastLoop shuffles views with a random peer every NewscastInterval.
func (n *Node) newscastLoop(r *rng.RNG) {
	defer n.wg.Done()
	ticker := time.NewTicker(n.cfg.NewscastInterval)
	defer ticker.Stop()
	for {
		select {
		case <-n.stop:
			return
		case <-ticker.C:
		}
		peer := n.samplePeer(r)
		if peer == "" {
			continue
		}
		now := time.Now().UnixNano()
		n.mu.Lock()
		mine := n.view.snapshot()
		n.mu.Unlock()
		req := Envelope{
			Kind: kindViewExchange,
			From: n.addr,
			View: append(mine, Descriptor{Addr: n.addr, Stamp: now}),
		}
		resp, err := roundTrip(peer, &req, n.cfg.DialTimeout)
		n.mu.Lock()
		if err != nil {
			n.failed.Add(1)
			n.view.remove(peer) // unreachable peers age out
		} else {
			n.view.merge(n.addr, resp.View)
		}
		n.mu.Unlock()
	}
}

// optimizeLoop spends evaluations and gossips the best point every
// GossipEvery evaluations, exactly like the simulated OptNode.
func (n *Node) optimizeLoop(r *rng.RNG) {
	defer n.wg.Done()
	since := 0
	for {
		if n.stopped() {
			return
		}
		n.mu.Lock()
		n.solver.EvalOne()
		n.mu.Unlock()
		n.evals.Add(1)
		since++
		if n.cfg.EvalThrottle > 0 {
			select {
			case <-n.stop:
				return
			case <-time.After(n.cfg.EvalThrottle):
			}
		}
		if since < n.cfg.GossipEvery {
			continue
		}
		since = 0
		n.gossipBest(r)
	}
}

// gossipBest initiates one anti-entropy best-point exchange.
func (n *Node) gossipBest(r *rng.RNG) {
	peer := n.samplePeer(r)
	if peer == "" {
		return
	}
	n.exchanges.Add(1)
	n.mu.Lock()
	x, f := n.solver.Best()
	req := Envelope{Kind: kindBestExchange, From: n.addr}
	if x != nil {
		req.X = vec.Clone(x)
		req.F = f
		req.Has = true
	}
	n.mu.Unlock()
	resp, err := roundTrip(peer, &req, n.cfg.DialTimeout)
	if err != nil {
		n.failed.Add(1)
		n.mu.Lock()
		n.view.remove(peer)
		n.mu.Unlock()
		return
	}
	if resp.Has {
		n.mu.Lock()
		if n.solver.Inject(resp.X, resp.F) {
			n.adoptions.Add(1)
		}
		n.mu.Unlock()
	}
}
