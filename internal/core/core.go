// Package core implements the paper's primary contribution: the generic
// decentralized optimization framework of Section 3, composed of three
// services per node —
//
//   - a topology service (Newscast peer sampling, or any static topology)
//     maintaining the overlay used to find gossip partners;
//   - a function optimization service (a per-node PSO swarm by default,
//     or any solver.Solver) that spends one function evaluation per
//     simulation cycle;
//   - a coordination service: an anti-entropy epidemic that, every r local
//     evaluations, exchanges the node's swarm optimum ⟨g_p, f(g_p)⟩ with a
//     sampled peer, both sides keeping the better point. The exchange is
//     gossip.Exchange's; OptNode is its holder, backed by the solver.
//
// Network wires the three services onto a sim.Engine for n nodes and
// exposes the run/measure operations the paper's experiments need: run to
// a global evaluation budget, run to a quality threshold, and read the
// global best.
package core

import (
	"fmt"
	"math"

	"gossipopt/internal/funcs"
	"gossipopt/internal/gossip"
	"gossipopt/internal/overlay"
	"gossipopt/internal/pso"
	"gossipopt/internal/rng"
	"gossipopt/internal/sim"
	"gossipopt/internal/solver"
)

// Protocol slots used by the framework on every node.
const (
	// SlotTopology holds the PeerSampler (Newscast or Static).
	SlotTopology = 0
	// SlotOpt holds the OptNode (optimizer + coordination services).
	SlotOpt = 1
)

// BestPoint is the coordination service's value: a position in the
// search space and its fitness. It travels in gossip.Exchange's pooled
// legs, whose X buffer OptNode.Load refills in place; solvers copy on
// Inject, so recycling the buffer at cycle end is safe.
type BestPoint struct {
	X []float64
	F float64
}

// Better reports whether b is strictly better (lower fitness) than o.
func (b BestPoint) Better(o BestPoint) bool { return b.F < o.F }

// OptNode is the per-node composition of the function optimization service
// and the coordination service: each cycle it spends one evaluation and,
// every R evaluations, starts one §3.3.3 exchange of the node's best point
// on Gossip, as the gossip.Holder backed by its solver.
type OptNode struct {
	// Solver is the node's function optimization service.
	Solver solver.Solver
	// R is the gossip cycle length: one exchange every R local
	// evaluations. R <= 0 disables coordination entirely (the paper's
	// "without coordination" extreme of independent searches).
	R int
	// Gossip is the network-wide best-point exchange; its DropProb is the
	// coordination message loss (§3.3.4).
	Gossip      *gossip.Exchange[BestPoint]
	sinceGossip int
	gossip.Counters
	// Rejected counts remote points refused for a NaN or -Inf fitness.
	Rejected int64
}

// Compile-time guards: sim.Protocol is untyped, so assert the two-phase
// contracts explicitly — a signature drift must fail the build, not turn
// the optimizer into a silent no-op.
var (
	_ sim.Proposer      = (*OptNode)(nil)
	_ sim.Receiver      = (*OptNode)(nil)
	_ sim.Undeliverable = (*OptNode)(nil)
)

// Propose implements sim.Proposer: spend one evaluation on the local
// solver and, every R evaluations, start an exchange.
func (o *OptNode) Propose(n *sim.Node, px *sim.Proposals) {
	o.Solver.EvalOne()
	px.CountEvals(1)
	if o.R <= 0 {
		return
	}
	o.sinceGossip++
	if o.sinceGossip < o.R {
		return
	}
	o.sinceGossip = 0
	o.Gossip.Propose(o, &o.Counters, n, px)
}

// Receive implements sim.Receiver.
func (o *OptNode) Receive(n *sim.Node, ax *sim.ApplyContext, msg sim.Message) {
	o.Gossip.Receive(o, &o.Counters, ax, msg)
}

// Undelivered implements sim.Undeliverable.
func (o *OptNode) Undelivered(n *sim.Node, ax *sim.ApplyContext, msg sim.Message) {
	o.Gossip.Undelivered(&o.Counters, msg)
}

// Load implements gossip.Holder: a snapshot of the solver's best, which
// keeps mutating.
func (o *OptNode) Load(dst *BestPoint) bool {
	x, f := o.Solver.Best()
	dst.X, dst.F = append(dst.X[:0], x...), f
	return x != nil
}

// Offer implements gossip.Holder: the solver decides, and copies.
func (o *OptNode) Offer(p BestPoint) bool {
	return !o.refuse(p.F) && o.Solver.Inject(p.X, p.F)
}

// Compare implements gossip.Holder on fitness. A refused point ranks below
// everything, so a request carrying one is answered like one carrying
// none.
func (o *OptNode) Compare(p BestPoint) int {
	x, f := o.Solver.Best()
	switch {
	case o.refuse(p.F):
		if x == nil {
			return 0
		}
		return 1
	case x == nil || p.F < f:
		return -1
	case f < p.F:
		return 1
	}
	return 0
}

// refuse reports, and counts, a remote fitness no solver may see: NaN
// fails every comparison and -Inf wins every one, so either would own a
// solver's optimum on one peer's say-so.
func (o *OptNode) refuse(f float64) bool {
	if math.IsNaN(f) || math.IsInf(f, -1) {
		o.Rejected++
		return true
	}
	return false
}

// TopologyKind selects the topology service implementation.
type TopologyKind int

// Topology service choices.
const (
	// TopoNewscast is the paper's choice: gossip-based peer sampling.
	TopoNewscast TopologyKind = iota
	// TopoRandom is a static k-regular random graph (Newscast's idealized
	// stationary shape, without maintenance traffic).
	TopoRandom
	// TopoRing is a static bidirectional ring.
	TopoRing
	// TopoStar is the master-slave star the paper contrasts with.
	TopoStar
	// TopoFull gives every node a full membership view.
	TopoFull
)

// String names the topology kind.
func (t TopologyKind) String() string {
	switch t {
	case TopoNewscast:
		return "newscast"
	case TopoRandom:
		return "random"
	case TopoRing:
		return "ring"
	case TopoStar:
		return "star"
	case TopoFull:
		return "full"
	}
	return "unknown"
}

// Config describes one distributed-optimization deployment, in the paper's
// notation: n nodes each running a swarm of k particles, exchanging the
// swarm optimum every r local evaluations over a view of size c.
type Config struct {
	// Nodes is n, the network size.
	Nodes int
	// Particles is k, the per-node swarm size (PSO default solver).
	Particles int
	// GossipEvery is r, the coordination cycle length in local
	// evaluations. The paper's default is r = k. Zero or negative
	// disables coordination (independent swarms).
	GossipEvery int
	// ViewSize is Newscast's c (default 20).
	ViewSize int
	// Function is the objective; Dim overrides its default dimension when
	// positive.
	Function funcs.Function
	Dim      int
	// Seed makes the whole run reproducible.
	Seed uint64
	// Topology selects the topology service (default Newscast).
	Topology TopologyKind
	// PSO tunes the default PSO solver; ignored when SolverFactory is set.
	PSO pso.Config
	// SolverFactory, when non-nil, replaces the default per-node PSO
	// swarm (solver diversification; the paper's future work).
	SolverFactory solver.Factory
	// DropProb is the coordination message-loss probability.
	DropProb float64
	// Churn, when non-nil, is applied by the engine every cycle.
	Churn sim.ChurnModel
	// Workers is the engine's pool parallelism for both cycle phases
	// (<= 1: single-threaded). The trace is bit-identical for every value.
	Workers int
}

func (c Config) withDefaults() Config {
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
	return c
}

// InitTopology wires the selected topology service into protocol slot
// `slot` of every live node. Exposed so stacks other than the optimizer
// (e.g. the scenario layer's anti-entropy network) wire the same
// substrate the same way.
func InitTopology(eng *sim.Engine, slot int, kind TopologyKind, viewSize int) {
	switch kind {
	case TopoNewscast:
		overlay.InitNewscast(eng, slot, viewSize)
	case TopoRandom:
		overlay.InitStatic(eng, slot, overlay.KRegularRandom(viewSize))
	case TopoRing:
		overlay.InitStatic(eng, slot, overlay.Ring)
	case TopoStar:
		overlay.InitStatic(eng, slot, overlay.Star)
	case TopoFull:
		overlay.InitStatic(eng, slot, overlay.FullMesh)
	}
}

// Network is a running deployment of the framework.
type Network struct {
	cfg Config
	eng *sim.Engine
}

// NewNetwork builds and wires a network per cfg: n nodes, each with a
// topology service in slot 0 and an OptNode in slot 1. Nodes joining later
// through churn are wired identically and bootstrap their view from a
// random live node (the "bootstrap service" of a real deployment).
//
// With no SolverFactory, the initial population's swarms are built as one
// pso.NewSwarms batch, so a cycle's moves walk one particle-major slab,
// and their streams are one []rng.RNG; joiners and factory-built solvers
// are built one per node. Either way a node's solver draws from the
// stream it splits off the node's RNG.
//
// Each initial node's stack is built once; the churn factory is installed
// only after the initial population is wired. Each initial node still
// makes the two draws the factory makes for a join — one engine-RNG draw
// for its bootstrap peer (none for node 0) and one node-RNG output where
// the factory splits off a solver stream — because every recorded trace
// and golden was cut while the factory also built, and threw away, a stack
// for each initial node.
func NewNetwork(cfg Config) *Network {
	cfg = cfg.withDefaults()
	eng := sim.NewEngine(cfg.Seed)

	eng.SetWorkers(cfg.Workers)

	mkSolver := cfg.SolverFactory
	if mkSolver == nil {
		mkSolver = func(f funcs.Function, dim int, _ int64, r *rng.RNG) solver.Solver {
			return pso.New(f, dim, cfg.Particles, cfg.PSO, r)
		}
	}
	bestPoints := &gossip.Exchange[BestPoint]{
		Slot: SlotTopology, SelfSlot: SlotOpt, DropProb: cfg.DropProb,
	}
	newOptNode := func(s solver.Solver) *OptNode {
		return &OptNode{Solver: s, R: cfg.GossipEvery, Gossip: bestPoints}
	}

	nodes := make([]*sim.Node, cfg.Nodes)
	for i := range nodes {
		n := eng.AddNode()
		eng.RandomLiveNode(n.ID) // the factory's bootstrap draw (see above)
		n.RNG.Uint64()           // the factory's solver Split (see above)
		n.Protocols = make([]sim.Protocol, SlotOpt+1)
		nodes[i] = n
	}

	// Topology service, then the optimizer + coordination service.
	InitTopology(eng, SlotTopology, cfg.Topology, cfg.ViewSize)
	if cfg.SolverFactory == nil {
		streams, rs := make([]rng.RNG, len(nodes)), make([]*rng.RNG, len(nodes))
		for i, n := range nodes {
			n.RNG.SplitInto(&streams[i])
			rs[i] = &streams[i]
		}
		swarms := pso.NewSwarms(cfg.Function, cfg.Dim, cfg.Particles, cfg.PSO, rs)
		for i, n := range nodes {
			n.Protocols[SlotOpt] = newOptNode(&swarms[i])
		}
	} else {
		for _, n := range nodes {
			n.Protocols[SlotOpt] = newOptNode(mkSolver(cfg.Function, cfg.Dim, int64(n.ID), n.RNG.Split()))
		}
	}

	// The factory serves churn joins only.
	eng.SetNodeFactory(func(n *sim.Node) {
		nc := overlay.NewNewscast(n.ID, cfg.ViewSize, SlotTopology)
		if b := eng.RandomLiveNode(n.ID); b != nil {
			nc.Bootstrap([]sim.NodeID{b.ID})
		}
		n.Protocols = []sim.Protocol{nc, newOptNode(mkSolver(cfg.Function, cfg.Dim, int64(n.ID), n.RNG.Split()))}
	})

	if cfg.Churn != nil {
		eng.SetChurn(cfg.Churn)
	}
	return &Network{cfg: cfg, eng: eng}
}

// Engine exposes the underlying simulation engine.
func (net *Network) Engine() *sim.Engine { return net.eng }

// Config returns the network's (defaulted) configuration.
func (net *Network) Config() Config { return net.cfg }

// Step runs one simulation cycle: every live node spends one evaluation
// and gossips if due.
func (net *Network) Step() { net.eng.RunCycle() }

// TotalEvals returns the number of objective evaluations performed by all
// nodes, dead or alive — the paper's global budget e. O(1): the engine
// maintains the counter (fed by OptNode.Propose), so the per-cycle budget
// checks of RunEvals/RunUntil no longer make a run quadratic in n.
func (net *Network) TotalEvals() int64 { return net.eng.Evals() }

// ScanTotalEvals recomputes TotalEvals by walking every node's solver —
// the historical O(n) implementation, kept as a cross-check of the
// engine-maintained counter (tests assert they agree).
func (net *Network) ScanTotalEvals() int64 {
	var total int64
	for _, n := range net.eng.AllNodes() {
		if len(n.Protocols) > SlotOpt {
			if o, ok := n.Protocol(SlotOpt).(*OptNode); ok {
				total += o.Solver.Evals()
			}
		}
	}
	return total
}

// GlobalBest returns the best point known to any live node (the paper's
// global optimum g) and false if no node has evaluated yet.
func (net *Network) GlobalBest() (BestPoint, bool) {
	best := BestPoint{F: math.Inf(1)}
	found := false
	net.eng.ForEachLive(func(n *sim.Node) {
		o, ok := n.Protocol(SlotOpt).(*OptNode)
		if !ok {
			return
		}
		if x, f := o.Solver.Best(); x != nil && f < best.F {
			best = BestPoint{X: x, F: f}
			found = true
		}
	})
	return best, found
}

// Quality returns the paper's solution-quality metric for the current
// global best: f(best) − f(x*). Infinity before any evaluation.
func (net *Network) Quality() float64 {
	b, ok := net.GlobalBest()
	if !ok {
		return math.Inf(1)
	}
	return b.F - net.cfg.Function.OptimumValue
}

// RunEvals runs cycles until at least totalEvals objective evaluations have
// been performed network-wide, the configuration of the paper's first
// three experiment sets. It returns the cycles executed.
func (net *Network) RunEvals(totalEvals int64) int64 {
	var cycles int64
	for net.TotalEvals() < totalEvals {
		if net.eng.LiveCount() == 0 {
			break
		}
		net.eng.RunCycle()
		cycles++
	}
	return cycles
}

// RunUntil runs cycles until the global solution quality reaches the
// threshold or the evaluation budget is exhausted. It returns the local
// time (cycles ≡ evaluations per node), the total evaluations spent, and
// whether the threshold was reached — the measurements of the paper's
// fourth experiment set.
func (net *Network) RunUntil(threshold float64, maxEvals int64) (cycles, evals int64, reached bool) {
	for {
		if net.Quality() <= threshold {
			return cycles, net.TotalEvals(), true
		}
		if net.TotalEvals() >= maxEvals || net.eng.LiveCount() == 0 {
			return cycles, net.TotalEvals(), false
		}
		net.eng.RunCycle()
		cycles++
	}
}

// Metrics aggregates coordination-service counters across all nodes.
type Metrics struct {
	Exchanges, LostExchanges, Adoptions int64
	// Rejected counts remote points refused for a NaN or -Inf fitness.
	Rejected int64
}

// Metrics returns the summed coordination counters (live nodes only).
func (net *Network) Metrics() Metrics {
	var m Metrics
	net.eng.ForEachLive(func(n *sim.Node) {
		if o, ok := n.Protocol(SlotOpt).(*OptNode); ok {
			m.Exchanges += o.Exchanges
			m.LostExchanges += o.LostExchanges
			m.Adoptions += o.Adoptions
			m.Rejected += o.Rejected
		}
	})
	return m
}

// String summarizes the network.
func (net *Network) String() string {
	return fmt.Sprintf("core.Network{n=%d k=%d r=%d topo=%s f=%s evals=%d quality=%g}",
		net.cfg.Nodes, net.cfg.Particles, net.cfg.GossipEvery,
		net.cfg.Topology, net.cfg.Function.Name, net.TotalEvals(), net.Quality())
}

// MixedFactory round-robins over the given factories, assigning a
// different solver type to successive nodes — the paper's envisioned
// "module diversification among peers". The choice is keyed off the node
// ID (not a shared counter), so the assignment is deterministic and
// race-free even when node stacks are built on parallel workers.
func MixedFactory(factories ...solver.Factory) solver.Factory {
	return func(f funcs.Function, dim int, id int64, r *rng.RNG) solver.Solver {
		mk := factories[int(uint64(id)%uint64(len(factories)))]
		return mk(f, dim, id, r)
	}
}
