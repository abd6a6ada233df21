package core

import (
	"math"

	"gossipopt/internal/funcs"
	"gossipopt/internal/overlay"
	"gossipopt/internal/pso"
	"gossipopt/internal/rng"
	"gossipopt/internal/sim"
	"gossipopt/internal/solver"
	"gossipopt/internal/vec"
)

// The asynchronous network runs the identical three services on the
// event-driven engine: evaluations take (jittered) wall-clock time,
// Newscast exchanges and best-point gossip travel as messages subject to a
// LinkModel's latency and loss. It validates that the cycle-driven results
// are not artifacts of lock-step execution — the paper's deployment target
// is, after all, fully asynchronous.

// AsyncConfig describes an event-driven deployment. Times are in abstract
// simulated units (think milliseconds).
type AsyncConfig struct {
	// Nodes, Particles, GossipEvery, ViewSize: as in Config.
	Nodes       int
	Particles   int
	GossipEvery int
	ViewSize    int
	Function    funcs.Function
	Dim         int
	Seed        uint64
	// SolverFactory overrides the default PSO swarm.
	SolverFactory solver.Factory
	// EvalTime is the mean duration of one objective evaluation; each
	// evaluation is jittered ±20 % so nodes naturally desynchronize.
	EvalTime float64
	// NewscastPeriod is the wall-clock interval between view exchanges
	// (the paper suggests 10–60 s real time; scale freely).
	NewscastPeriod float64
	// Link models message latency and loss (nil: 0.1–1.0 time-unit
	// latency, no loss).
	Link sim.LinkModel
}

func (c AsyncConfig) withDefaults() AsyncConfig {
	if c.Nodes == 0 {
		c.Nodes = 1
	}
	if c.Particles == 0 {
		c.Particles = 16
	}
	if c.ViewSize == 0 {
		c.ViewSize = 20
	}
	if c.Function.Eval == nil {
		c.Function = funcs.Sphere
	}
	if c.EvalTime == 0 {
		c.EvalTime = 1
	}
	if c.NewscastPeriod == 0 {
		c.NewscastPeriod = 10
	}
	if c.Link == nil {
		c.Link = sim.UniformLink{MinDelay: 0.1, MaxDelay: 1}
	}
	return c
}

// Message types of the asynchronous protocol. The tick timers carry the
// node's restart generation: a crashed node's in-flight tick can outlive
// the crash (queued events are only dropped if delivered while the node is
// dead), and without the generation check such a stale tick arriving after
// a Revive would resume the old chain alongside the freshly armed one,
// doubling the node's eval rate for the rest of the run.
type (
	evalTick     struct{ gen int }
	newscastTick struct{ gen int }
	viewPush     struct {
		From sim.NodeID
		View []overlay.Descriptor
	}
	viewReply struct {
		View []overlay.Descriptor
	}
	bestPush struct {
		From sim.NodeID
		X    []float64
		F    float64
	}
	bestReply struct {
		X []float64
		F float64
	}
)

// asyncNode is the per-node handler: solver + view + counters.
type asyncNode struct {
	net    *AsyncNetwork
	id     sim.NodeID
	view   *overlay.View
	solver solver.Solver

	sinceGossip int
	// gen is the restart generation; ticks from older generations are
	// stale and must not re-arm their chains.
	gen int

	// Metrics.
	Evals     int64
	Exchanges int64
	Adoptions int64
}

// stampsPerTime is how many logical Newscast timestamps one unit of engine
// time spans.
const stampsPerTime = 1024

// MaxAsyncTime is the latest engine time whose Newscast stamp still fits the
// int32 stamp of an overlay view entry; a view refuses later ones.
const MaxAsyncTime = math.MaxInt32 / float64(stampsPerTime)

// stamp converts engine time into a logical Newscast timestamp.
func stamp(e *sim.EventEngine) int64 { return int64(e.Now() * stampsPerTime) }

// Deliver implements sim.Handler.
func (a *asyncNode) Deliver(n *sim.Node, msg any, e *sim.EventEngine) {
	switch m := msg.(type) {
	case evalTick:
		if m.gen != a.gen {
			return // stale pre-crash timer; the revived chain already runs
		}
		a.solver.EvalOne()
		a.Evals++
		if r := a.net.cfg.GossipEvery; r > 0 {
			a.sinceGossip++
			if a.sinceGossip >= r {
				a.sinceGossip = 0
				a.gossipBest(n, e)
			}
		}
		jitter := 0.8 + 0.4*n.RNG.Float64()
		e.SendAfter(a.net.cfg.EvalTime*jitter, a.id, evalTick{gen: a.gen})

	case newscastTick:
		if m.gen != a.gen {
			return
		}
		if peer, ok := a.view.SampleID(n.RNG); ok {
			e.Send(a.id, peer, viewPush{From: a.id, View: a.viewMessage(e)})
		}
		e.SendAfter(a.net.cfg.NewscastPeriod, a.id, newscastTick{gen: a.gen})

	case viewPush:
		// Reply with our own view before merging theirs (symmetric
		// exchange over two messages).
		e.Send(a.id, m.From, viewReply{View: a.viewMessage(e)})
		a.view.Merge(a.id, m.View)

	case viewReply:
		a.view.Merge(a.id, m.View)

	case bestPush:
		if a.solver.Inject(m.X, m.F) {
			a.Adoptions++
		}
		if x, f := a.solver.Best(); x != nil && f < m.F {
			e.Send(a.id, m.From, bestReply{X: vec.Clone(x), F: f})
		}

	case bestReply:
		if a.solver.Inject(m.X, m.F) {
			a.Adoptions++
		}
	}
}

// viewMessage is the view a Newscast leg carries: a's view plus a fresh
// descriptor of a itself, built in one allocation at its final size.
func (a *asyncNode) viewMessage(e *sim.EventEngine) []overlay.Descriptor {
	buf := make([]overlay.Descriptor, 0, a.view.Len()+1)
	return append(a.view.AppendDescriptors(buf), overlay.Descriptor{ID: a.id, Stamp: stamp(e)})
}

func (a *asyncNode) gossipBest(n *sim.Node, e *sim.EventEngine) {
	peer, ok := a.view.SampleID(n.RNG)
	if !ok {
		return
	}
	x, f := a.solver.Best()
	if x == nil {
		return
	}
	a.Exchanges++
	e.Send(a.id, peer, bestPush{From: a.id, X: vec.Clone(x), F: f})
}

// AsyncNetwork is a running event-driven deployment.
type AsyncNetwork struct {
	cfg   AsyncConfig
	eng   *sim.EventEngine
	nodes []*asyncNode
}

// NewAsyncNetwork wires an event-driven network: every node gets a solver,
// a bootstrapped view, and staggered eval/newscast timers.
func NewAsyncNetwork(cfg AsyncConfig) *AsyncNetwork {
	cfg = cfg.withDefaults()
	eng := sim.NewEventEngine(cfg.Seed, cfg.Link)
	net := &AsyncNetwork{cfg: cfg, eng: eng}

	mk := cfg.SolverFactory
	if mk == nil {
		mk = func(f funcs.Function, dim int, _ int64, r *rng.RNG) solver.Solver {
			return pso.New(f, dim, cfg.Particles, cfg.PSOConfig(), r)
		}
	}

	for i := 0; i < cfg.Nodes; i++ {
		a := &asyncNode{net: net}
		n := eng.AddNode(a)
		a.id = n.ID
		a.view = overlay.NewView(cfg.ViewSize)
		a.solver = mk(cfg.Function, cfg.Dim, int64(n.ID), n.RNG.Split())
		net.nodes = append(net.nodes, a)
	}
	// Bootstrap views with up to ViewSize random other nodes.
	r := eng.RNG()
	k := min(cfg.ViewSize, cfg.Nodes-1)
	sample := make([]int, 0, max(k, 0))
	for _, a := range net.nodes {
		sample = r.AppendSample(sample[:0], cfg.Nodes-1, k)
		for _, idx := range sample {
			j := idx
			if sim.NodeID(j) >= a.id {
				j++
			}
			a.view.Insert(a.id, overlay.Descriptor{ID: sim.NodeID(j), Stamp: 0})
		}
	}
	// Stagger timers so nodes do not tick in lockstep.
	for _, a := range net.nodes {
		eng.SendAfter(r.Float64()*cfg.EvalTime, a.id, evalTick{})
		eng.SendAfter(r.Float64()*cfg.NewscastPeriod, a.id, newscastTick{})
	}
	return net
}

// PSOConfig returns the PSO configuration used by the default factory
// (zero value: canonical convergent parameters).
func (c AsyncConfig) PSOConfig() pso.Config { return pso.Config{} }

// Engine exposes the underlying event engine.
func (net *AsyncNetwork) Engine() *sim.EventEngine { return net.eng }

// RunFor advances simulated time by dt (bounded by maxEvents deliveries).
func (net *AsyncNetwork) RunFor(dt float64, maxEvents int64) {
	net.eng.RunUntil(net.eng.Now()+dt, maxEvents)
}

// TotalEvals sums evaluations across all nodes.
func (net *AsyncNetwork) TotalEvals() int64 {
	var t int64
	for _, a := range net.nodes {
		t += a.Evals
	}
	return t
}

// GlobalBest returns the best point known to any live node.
func (net *AsyncNetwork) GlobalBest() (BestPoint, bool) {
	best := BestPoint{F: math.Inf(1)}
	found := false
	for _, a := range net.nodes {
		if n := net.eng.Node(a.id); n == nil || !n.Alive {
			continue
		}
		if x, f := a.solver.Best(); x != nil && f < best.F {
			best = BestPoint{X: x, F: f}
			found = true
		}
	}
	return best, found
}

// Quality returns f(best) − f(x*), infinity before any evaluation.
func (net *AsyncNetwork) Quality() float64 {
	b, ok := net.GlobalBest()
	if !ok {
		return math.Inf(1)
	}
	return b.F - net.cfg.Function.OptimumValue
}

// Crash kills node i (0-based), as a real host failure: its timers and
// queued messages are silently dropped.
func (net *AsyncNetwork) Crash(i int) {
	if i >= 0 && i < len(net.nodes) {
		net.eng.Crash(net.nodes[i].id)
	}
}

// Revive restarts node i after a crash: the node is marked live again and
// its eval/newscast timers are re-armed (they died with the node — a
// crashed host's pending events were dropped at delivery). Solver state
// survives the outage, like a process restarting from a checkpoint.
func (net *AsyncNetwork) Revive(i int) {
	if i < 0 || i >= len(net.nodes) {
		return
	}
	a := net.nodes[i]
	n := net.eng.Node(a.id)
	if n == nil || n.Alive {
		return
	}
	// Invalidate any pre-crash tick still in flight before arming new
	// chains, so the node cannot end up with two.
	a.gen++
	net.eng.Revive(a.id)
	net.eng.SendAfter(net.cfg.EvalTime, a.id, evalTick{gen: a.gen})
	net.eng.SendAfter(net.cfg.NewscastPeriod, a.id, newscastTick{gen: a.gen})
}

// LiveCount returns the number of live nodes.
func (net *AsyncNetwork) LiveCount() int {
	live := 0
	for _, a := range net.nodes {
		if n := net.eng.Node(a.id); n != nil && n.Alive {
			live++
		}
	}
	return live
}

// Size returns the total node count.
func (net *AsyncNetwork) Size() int { return len(net.nodes) }

// Metrics sums coordination counters across live nodes.
func (net *AsyncNetwork) Metrics() Metrics {
	var m Metrics
	for _, a := range net.nodes {
		if n := net.eng.Node(a.id); n == nil || !n.Alive {
			continue
		}
		m.Exchanges += a.Exchanges
		m.Adoptions += a.Adoptions
	}
	return m
}
