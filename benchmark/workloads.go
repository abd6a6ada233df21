package main

import (
	"fmt"
	"math"
	"runtime"

	"gossipopt"
	"gossipopt/internal/core"
	"gossipopt/internal/funcs"
	"gossipopt/internal/gossip"
	"gossipopt/internal/overlay"
	"gossipopt/internal/pso"
	"gossipopt/internal/rng"
	"gossipopt/internal/sim"
	"gossipopt/internal/solver"
)

// declaredSeconds is BENCHMARK.json's run_seconds: the measured-phase
// length the workloads' op counts were sized for on the reference host.
const declaredSeconds = 10

// minOps keeps the 90th percentile honest: with 120 samples, 12 lie
// beyond it.
const minOps = 120

// minCampaignRounds is campaign-mix's floor, in rounds: two rounds of 3
// repetitions of each of the 14 built-ins and 2 of each of the 14 sweep
// cells are 140 repetitions.
const minCampaignRounds = 2

// workload is one set of inputs the benchmark runs. Op counts are fixed,
// never time-boxed, so every simulated statistic repeats exactly for a
// seed; -seconds scales them in proportion.
type workload struct {
	name string
	// why is the reason the workload exists (BENCHMARK.json carries the
	// same sentence).
	why string
	// nodes is the population, warm the un-measured ops of a set-up, ops
	// the measured ops at declaredSeconds and minOps the fewest a shorter
	// run may scale them down to.
	nodes, warm, ops, minOps int
	// qualityBound, when positive, is the solution quality the final
	// state must beat after at least ops measured ops: a loose sanity
	// bound (the worst of ten seeds, times three), not a convergence
	// claim.
	qualityBound float64
	// planLimit, when positive, caps how many built-in scenarios and how
	// many sweeps campaign-mix takes (the self-test's toy scale).
	planLimit int
	run       func(p *pass)
}

// workloads lists the benchmark's workloads in report order.
var workloads = []*workload{
	{
		name:  "overlay-heavy",
		why:   "Newscast alone at n=10000: nearly all time is the apply phase's two View.Merge per exchange, so overlay changes show here and nowhere else",
		nodes: 10000, warm: 10, ops: 120, minOps: minOps,
		run: func(p *pass) { p.runCycles(buildOverlayHeavy) },
	},
	{
		name:  "solver-heavy",
		why:   "PSO on Rastrigin dim 30 over a static overlay: nearly all time is the propose phase's solver, objective and RNG; a merge optimisation predicts no change",
		nodes: 2000, warm: 200, ops: 3200, minOps: minOps,
		qualityBound: 110,
		run:          func(p *pass) { p.runCycles(buildSolverHeavy) },
	},
	{
		name:  "engine-heavy",
		why:   "gossip averaging over a static overlay at n=20000: handlers are a few flops, so time is the engine's own shuffle, route, dispatch, sort and recycle",
		nodes: 20000, warm: 50, ops: 800, minOps: minOps,
		run: func(p *pass) { p.runCycles(buildEngineHeavy) },
	},
	{
		name:  "paper-stack",
		why:   "the paper's node as published (Newscast c=20, PSO k=16, best-point gossip r=16, Griewank) at n=10000: the headline end-to-end number",
		nodes: 10000, warm: 16, ops: 120, minOps: minOps,
		qualityBound: 10,
		run:          func(p *pass) { p.runCycles(buildPaperStack) },
	},
	{
		name:  "churn-lossy",
		why:   "the full stack with tiny swarms under 1% crashes, 100 joins a cycle, 15% link loss and delays: joins, live-index rebuilds, Judge, the delay queue and Undelivered paths",
		nodes: 10000, warm: 20, ops: 130, minOps: minOps,
		run: func(p *pass) { p.runCycles(buildChurnLossy) },
	},
	{
		name: "campaign-mix",
		why:  "every built-in scenario and sweep at 32-64 nodes on both engines: the only workload where spec compile, per-repetition build and tear-down, sampling, sink and aggregation are visible",
		// nodes is filled from the specs; ops counts campaign rounds (see
		// roundReps) and warm the repetitions of everything a set-up runs.
		warm: 1, ops: 5, minOps: minCampaignRounds,
		run: runCampaign,
	},
	{
		name:  "event-wan",
		why:   "the event engine at n=2000 over a lossy WAN link model: the heap, Deliver handlers and core/async.go; cycle-engine changes predict no change",
		nodes: 2000, warm: 20, ops: 2000, minOps: minOps,
		run: runEventWAN,
	},
}

// workloadByName finds a workload.
func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// opsFor scales the measured op count to a run length, never below the
// workload's floor.
func (w *workload) opsFor(seconds int) int {
	return max(w.ops*seconds/declaredSeconds, w.minOps)
}

// pass is one run of a workload from construction to the last measured
// op: untraced (tr == nil) for the end-to-end numbers, or traced.
type pass struct {
	w    *workload
	seed uint64
	ops  int
	// setups is how many times the workload is built and warmed: once
	// before the measured phase and the rest after it; set-up time is the
	// median of all.
	setups int
	tr     *tracer

	setupNs, buildNs []int64
	// heapBytes is the post-GC live-heap growth across the first set-up,
	// heapNodes the population it is divided by; setupAllocBytes is
	// everything the first set-up allocated, garbage included.
	heapBytes       int64
	heapNodes       int
	setupAllocBytes int64
	opNs            []int64
	begin           int64 // start of the measured phase
	measuredNs      int64
	peakRSSMB       float64 // VmHWM at the end of the measured phase
	peakRSSErr      error
	nodeCycles      int64
	failedOps       int
	failures        []string
	// finalQuality is the last op's observed quality (see observation).
	finalQuality float64
	dig          digest
	// mallocs and allocBytes cover the measured phase.
	mallocs, allocBytes int64
	// layer holds the per-layer metrics and exact counts of the pass.
	layer map[string]float64
}

func newPass(w *workload, seed uint64, ops, setups int, tr *tracer) *pass {
	if tr != nil {
		setups = 1 // a tracer's wrappers belong to one network
	}
	return &pass{w: w, seed: seed, ops: ops, setups: setups, tr: tr,
		heapNodes: w.nodes, dig: newDigest(), layer: map[string]float64{}}
}

// fail records one failed check.
func (p *pass) fail(format string, args ...any) {
	p.failedOps++
	if len(p.failures) < 10 {
		p.failures = append(p.failures, fmt.Sprintf(format, args...))
	}
}

// startMeasure opens the measured phase of a pass that will run ops ops.
func (p *pass) startMeasure(ops int) {
	if p.tr != nil {
		p.tr.beginMeasure(ops)
	}
	p.opNs = make([]int64, 0, ops)
	p.mallocs, p.allocBytes = allocCounters()
	p.begin = now()
}

// stopMeasure closes the measured phase.
func (p *pass) stopMeasure() {
	p.measuredNs = now() - p.begin
	mallocs, bytes := allocCounters()
	p.mallocs, p.allocBytes = mallocs-p.mallocs, bytes-p.allocBytes
	p.peakRSSMB, p.peakRSSErr = peakRSSMB()
}

// opTime is the summed latency of the measured ops: the root of the
// pass's ledger.
func (p *pass) opTime() float64 {
	var sum int64
	for _, ns := range p.opNs {
		sum += ns
	}
	return float64(sum)
}

// solverMetrics reports the wrapped solvers' and the objective's totals
// over the measured phase.
func (p *pass) solverMetrics() {
	m, d := p.layer, p.tr.solverNow.sub(p.tr.solverBase)
	m["pso.evalone_calls"] = float64(d.evalCalls)
	m["pso.evalone_busy_ns"] = float64(d.evalNs)
	m["pso.inject_calls"] = float64(d.injectCalls)
	m["pso.inject_accept_ratio"] = ratio(float64(d.injectAccepted), float64(d.injectCalls))
	m["funcs.eval_calls"] = float64(p.tr.evalCalls - p.tr.evalBase)
}

// solverShares splits the solver's busy time between pso and the
// objective (calls priced by the replayed kernel) as shares of root.
func (p *pass) solverShares(root float64) {
	m := p.layer
	funcsSelf := math.Min(m["funcs.eval_calls"]*m["funcs.eval_kernel_ns_per_call"], m["pso.evalone_busy_ns"])
	m["pso.self_share"] = ratio(m["pso.evalone_busy_ns"]-funcsSelf, root)
	m["funcs.self_share"] = ratio(funcsSelf, root)
}

// throughput is node-cycles per second of measured wall time.
func (p *pass) throughput() float64 {
	return ratio(float64(p.nodeCycles), float64(p.measuredNs)/1e9)
}

// setUp builds and warms the workload once, timing it and measuring the
// heap it grows; the caller measures on what it leaves, then calls
// repeatSetUp.
func (p *pass) setUp(build, warm func()) {
	before := liveHeap()
	_, allocated := allocCounters()
	p.timeSetUp(build, warm)
	_, total := allocCounters()
	p.setupAllocBytes = total - allocated
	// liveHeap collects, so the measured phase starts from a collected heap.
	p.heapBytes = liveHeap() - before
}

// timeSetUp runs one set-up and records how long construction and the
// whole of it took.
func (p *pass) timeSetUp(build, warm func()) {
	start := now()
	build()
	built := now()
	warm()
	done := now()
	p.buildNs = append(p.buildNs, built-start)
	p.setupNs = append(p.setupNs, done-start)
}

// repeatSetUp drops what was measured and sets the workload up again until
// p.setups set-ups are timed, then drops the last. discard runs before each
// build, so two networks are never live at once. The repeats come after
// the measured phase, not before it: the measured ops and peak RSS then
// belong to one network in a fresh process, where the heap that earlier
// generations of it leave behind moved peak RSS by a quarter between sets
// of runs.
func (p *pass) repeatSetUp(build, warm, discard func()) {
	for len(p.setupNs) < p.setups {
		discard()
		runtime.GC()
		p.timeSetUp(build, warm)
	}
	discard()
}

// cycleNet is a built cycle-engine network plus what the harness needs to
// observe and check it. Slots are -1 when the stack has no such protocol.
type cycleNet struct {
	eng                            *sim.Engine
	newscastSlot, optSlot, avgSlot int
	churn                          bool
	// fn, dim and particles describe the optimizer stack's solver, net the
	// installed net model; both unwrapped, for the kernel replays.
	fn             funcs.Function
	dim, particles int
	net            sim.NetModel
	scratch        []*sim.Node
}

// observation is the simulated state the harness reads after each op.
type observation struct {
	cycle              int64
	live               int
	evals              int64
	delivered, dropped int64
	// quality is the global solution quality on optimizer stacks, the
	// conserved sum on averaging stacks, 0 otherwise.
	quality float64
}

func (c *cycleNet) observe() observation {
	o := observation{
		cycle: c.eng.Cycle(), live: c.eng.LiveCount(), evals: c.eng.Evals(),
		delivered: c.eng.Delivered(), dropped: c.eng.Dropped(),
	}
	switch {
	case c.optSlot >= 0:
		o.quality = math.Inf(1)
		c.eng.ForEachLive(func(n *sim.Node) {
			opt := unwrap(n.Protocols[c.optSlot]).(*core.OptNode)
			if x, f := opt.Solver.Best(); x != nil && f < o.quality {
				o.quality = f
			}
		})
		o.quality -= c.fn.OptimumValue
	case c.avgSlot >= 0:
		// gossip.Sum asserts the concrete type in the slot, which a
		// traced pass replaced; this is the same sum through unwrap.
		c.eng.ForEachLive(func(n *sim.Node) {
			o.quality += unwrap(n.Protocols[c.avgSlot]).(*gossip.Average).Value()
		})
	}
	return o
}

// coordination sums the coordination-service counters over every node,
// dead ones included, so the totals are monotone under churn.
func (c *cycleNet) coordination() (exchanges, lost, adoptions int64) {
	if c.optSlot < 0 {
		return
	}
	c.scratch = c.eng.AppendAllNodes(c.scratch[:0])
	for _, n := range c.scratch {
		opt := unwrap(n.Protocols[c.optSlot]).(*core.OptNode)
		exchanges += opt.Exchanges
		lost += opt.LostExchanges
		adoptions += opt.Adoptions
	}
	return
}

// sampleViews returns the Newscast instances of up to k live nodes, evenly
// strided over the live population, and their owners' IDs.
func (c *cycleNet) sampleViews(k int) (views []*overlay.Newscast, owners []sim.NodeID) {
	if c.newscastSlot < 0 {
		return nil, nil
	}
	c.scratch = c.eng.AppendLiveNodes(c.scratch[:0])
	stride := max(len(c.scratch)/k, 1)
	for i := 0; i < len(c.scratch) && len(views) < k; i += stride {
		n := c.scratch[i]
		views = append(views, unwrap(n.Protocols[c.newscastSlot]).(*overlay.Newscast))
		owners = append(owners, n.ID)
	}
	return views, owners
}

// checkViews verifies view well-formedness on the sample: at most c
// descriptors, none of the owner, none twice, freshest first. It returns
// the mean fill.
func (p *pass) checkViews(views []*overlay.Newscast, owners []sim.NodeID) float64 {
	var fill float64
	for i, nc := range views {
		v := nc.View()
		ds := v.Descriptors()
		fill += float64(len(ds)) / float64(v.Cap())
		seen := make(map[sim.NodeID]bool, len(ds))
		ok := len(ds) <= v.Cap()
		for j, d := range ds {
			if d.ID == owners[i] || seen[d.ID] || (j > 0 && d.Stamp > ds[j-1].Stamp) {
				ok = false
			}
			seen[d.ID] = true
		}
		if !ok {
			p.fail("node %d: malformed view %v", owners[i], ds)
		}
	}
	return ratio(fill, float64(len(views)))
}

// runCycles drives a cycle-engine workload: a set-up, then the measured
// cycles in a closed loop with one caller, checking every op.
func (p *pass) runCycles(build func(p *pass) *cycleNet) {
	var c *cycleNet
	buildNet := func() { c = build(p) }
	warm := func() {
		for i := 0; i < p.w.warm; i++ {
			c.eng.RunCycle()
		}
	}
	p.setUp(buildNet, warm)
	defer p.repeatSetUp(buildNet, warm, func() {
		c.eng.Close()
		c = nil
	})

	stats0 := c.eng.Stats()
	exch0, lost0, adopt0 := c.coordination()
	prev := c.observe()
	sum0 := prev.quality
	p.startMeasure(p.ops)
	for i := 0; i < p.ops; i++ {
		start := now()
		c.eng.RunCycle()
		end := now()
		p.opNs = append(p.opNs, end-start)

		cur := c.observe()
		switch {
		case cur.cycle != prev.cycle+1:
			p.fail("op %d: cycle %d after %d", i, cur.cycle, prev.cycle)
		case cur.delivered < prev.delivered || cur.dropped < prev.dropped:
			p.fail("op %d: delivery counters went backwards", i)
		case c.optSlot >= 0 && cur.evals-prev.evals != int64(cur.live):
			p.fail("op %d: %d evaluations for %d live nodes", i, cur.evals-prev.evals, cur.live)
		case c.optSlot >= 0 && (math.IsInf(cur.quality, 0) || math.IsNaN(cur.quality)):
			p.fail("op %d: quality %v", i, cur.quality)
		case c.optSlot >= 0 && !c.churn && cur.quality > prev.quality:
			// Under churn the node holding the best point may crash, so
			// monotonicity is only required of static populations.
			p.fail("op %d: quality rose from %v to %v", i, prev.quality, cur.quality)
		case c.avgSlot >= 0 && math.Abs(cur.quality-sum0) > 1e-9*math.Abs(sum0):
			p.fail("op %d: mass %v drifted from %v", i, cur.quality, sum0)
		}
		p.dig.op(cur.cycle, cur.live, cur.evals, cur.delivered, cur.dropped, cur.quality)
		p.nodeCycles += int64(cur.live)
		if p.tr != nil {
			p.tr.endOp(i, "sim.cycle", start, end)
		}
		prev = cur
	}
	p.stopMeasure()

	p.finalQuality = prev.quality
	sample, owners := c.sampleViews(1000)
	fill := p.checkViews(sample, owners)
	if p.w.qualityBound > 0 && p.ops >= p.w.ops && !(prev.quality < p.w.qualityBound) {
		p.fail("final quality %v is not below the bound %v", prev.quality, p.w.qualityBound)
	}

	if p.tr == nil {
		return
	}
	stats1 := c.eng.Stats()
	exch1, lost1, adopt1 := c.coordination()
	p.cycleLayerMetrics(c, stats0, stats1)
	m := p.layer
	m["overlay.view_fill"] = fill
	m["core.exchanges"] = float64(exch1 - exch0)
	m["core.lost_exchanges"] = float64(lost1 - lost0)
	m["core.adoptions"] = float64(adopt1 - adopt0)
	m["core.adoption_ratio"] = ratio(float64(adopt1-adopt0), float64(exch1-exch0))
	if c.avgSlot >= 0 {
		m["gossip.mass_error"] = ratio(math.Abs(prev.quality-sum0), math.Abs(sum0))
	}
	p.kernelMetrics(c, sample)
	p.cycleLedger()
}

// cycleLayerMetrics turns the engine's own counters and the tracer's
// totals over the measured phase into the per-layer metrics.
func (p *pass) cycleLayerMetrics(c *cycleNet, s0, s1 sim.EngineStats) {
	m, tr := p.layer, p.tr
	m["sim.cycle_ns"] = p.opTime()
	m["sim.propose_phase_ns"] = float64(s1.ProposeNanos - s0.ProposeNanos)
	m["sim.apply_phase_ns"] = float64(s1.ApplyNanos - s0.ApplyNanos)
	m["sim.apply_rounds"] = float64(s1.ApplyRounds - s0.ApplyRounds)
	m["sim.apply_jobs"] = float64(s1.ApplyJobs - s0.ApplyJobs)
	m["sim.delivered"] = float64(s1.Delivered - s0.Delivered)
	m["sim.dropped"] = float64(s1.Dropped - s0.Dropped)
	m["sim.delayed"] = float64(s1.Delayed - s0.Delayed)
	m["sim.payloads_recycled"] = float64(s1.PayloadsRecycled - s0.PayloadsRecycled)
	m["sim.live_rebuilds"] = float64(s1.LiveRebuilds - s0.LiveRebuilds)
	hits, misses := s1.FreeListHits-s0.FreeListHits, s1.FreeListMisses-s0.FreeListMisses
	m["sim.freelist_hit_ratio"] = ratio(float64(hits), float64(hits+misses))

	for l, name := range protoLayerNames {
		d := tr.protoNow[l].sub(tr.protoBase[l])
		m[name+".propose_calls"] = float64(d.proposeCalls)
		m[name+".propose_busy_ns"] = float64(d.proposeNs)
		m[name+".receive_calls"] = float64(d.receiveCalls)
		m[name+".receive_busy_ns"] = float64(d.receiveNs)
		m[name+".undelivered_calls"] = float64(d.undeliveredCalls)
		m[name+".undelivered_busy_ns"] = float64(d.undeliveredNs)
	}
	m["overlay.samplepeer_calls"] = float64(tr.protoNow[layerOverlay].sampleCalls - tr.protoBase[layerOverlay].sampleCalls)

	p.solverMetrics()

	if tr.churn != nil {
		d := tr.churn.churnCounts.sub(tr.churnBase)
		m["sim.churn_busy_ns"] = float64(d.ns)
		m["sim.churn_crashes"] = float64(d.crashes)
		m["sim.churn_joins"] = float64(d.joins)
	}
	if tr.net != nil {
		d := tr.net.netCounts.sub(tr.netBase)
		m["sim.netmodel_judge_calls"] = float64(d.calls)
		m["sim.netmodel_nondeliver_ratio"] = ratio(float64(d.nondeliver), float64(d.calls))
	}
}

// cycleLedger derives each layer's self time from the spans' nesting (a
// layer's self time is its busy time minus its children's) and the share
// of the measured cycle time it accounts for.
func (p *pass) cycleLedger() {
	m := p.layer
	cycle := m["sim.cycle_ns"]
	busy := func(layer int) float64 {
		return float64(p.tr.protoNow[layer].sub(p.tr.protoBase[layer]).busy())
	}
	overlayBusy, coreBusy, gossipBusy := busy(layerOverlay), busy(layerCore), busy(layerGossip)
	handlers := overlayBusy + coreBusy + gossipBusy
	churn := m["sim.churn_busy_ns"]

	// engine_self_ns is what the harness's clock leaves to the engine;
	// the ledger's sim share instead starts from the engine's own phase
	// clocks, so time outside both phases (observers, the live-index
	// rebuild, stats publishing, the tracer's own bookkeeping) stays
	// unattributed and ledger.coverage says how much that is.
	m["sim.engine_self_ns"] = cycle - handlers - churn
	phases := m["sim.propose_phase_ns"] + m["sim.apply_phase_ns"]
	m["sim.self_share"] = ratio(phases-handlers+churn, cycle)
	m["overlay.self_share"] = ratio(overlayBusy, cycle)
	m["overlay.merge_share"] = ratio(m["overlay.merge_kernel_ns_per_call"]*m["overlay.receive_calls"], cycle)
	m["core.self_share"] = ratio(coreBusy-m["pso.evalone_busy_ns"], cycle)
	m["gossip.self_share"] = ratio(gossipBusy, cycle)
	p.solverShares(cycle)
	p.sumCoverage()
}

// sumCoverage adds the layers' shares into ledger.coverage.
func (p *pass) sumCoverage() {
	var sum float64
	for _, l := range []string{"sim", "overlay", "core", "pso", "funcs", "rng", "gossip", "scenario", "exp"} {
		sum += p.layer[l+".self_share"]
	}
	p.layer["ledger.coverage"] = sum
}

// The workload builders. Each returns a freshly built network; a traced
// pass gets the tracer's wrappers installed after construction.

func buildOverlayHeavy(p *pass) *cycleNet {
	eng := sim.NewEngine(p.seed)
	eng.SetWorkers(1)
	eng.AddNodes(p.w.nodes)
	overlay.InitNewscast(eng, 0, 20)
	if p.tr != nil {
		p.tr.wrapEngine(eng, layerOverlay)
	}
	return &cycleNet{eng: eng, newscastSlot: 0, optSlot: -1, avgSlot: -1}
}

func buildEngineHeavy(p *pass) *cycleNet {
	eng := sim.NewEngine(p.seed)
	eng.SetWorkers(1)
	nodes := eng.AddNodes(p.w.nodes)
	overlay.InitStatic(eng, 0, overlay.KRegularRandom(20))
	// The values to average are the workload's generated input: drawn
	// from the benchmark's own stream, never from the engine's.
	values := rng.New(p.seed ^ 0x5eed0fa11)
	for _, n := range nodes {
		a := &gossip.Average{Slot: 0, SelfSlot: 1}
		a.SetValue(values.UniformIn(0, 1000))
		n.Protocols = append(n.Protocols, a)
	}
	if p.tr != nil {
		p.tr.wrapEngine(eng, layerOverlay, layerGossip)
	}
	return &cycleNet{eng: eng, newscastSlot: -1, optSlot: -1, avgSlot: 1}
}

// buildOptimizer builds an optimizer network through the public
// constructor and installs the tracer, if any, around it.
func buildOptimizer(p *pass, cfg gossipopt.Config, net sim.NetModel) *cycleNet {
	cfg.Nodes, cfg.Seed, cfg.Workers = p.w.nodes, p.seed, 1
	c := &cycleNet{newscastSlot: -1, optSlot: core.SlotOpt, avgSlot: -1,
		churn: cfg.Churn != nil, fn: cfg.Function, dim: cfg.Dim, particles: cfg.Particles, net: net}
	if cfg.Topology == gossipopt.TopoNewscast {
		c.newscastSlot = core.SlotTopology
	}
	if p.tr != nil {
		cfg.Function = p.tr.countingFunction(cfg.Function)
		if cfg.Churn != nil {
			p.tr.churn = &tracedChurn{inner: cfg.Churn, tr: p.tr}
			cfg.Churn = p.tr.churn
		}
	}
	c.eng = gossipopt.New(cfg).Engine()
	if p.tr != nil {
		p.tr.wrapEngine(c.eng, layerOverlay, layerCore)
		if net != nil {
			p.tr.net = &tracedNet{inner: net}
			net = p.tr.net
		}
	}
	if net != nil {
		c.eng.SetNetModel(net)
	}
	return c
}

func buildSolverHeavy(p *pass) *cycleNet {
	return buildOptimizer(p, gossipopt.Config{
		Particles: 16, GossipEvery: 16, ViewSize: 20,
		Function: gossipopt.Rastrigin, Dim: 30, Topology: gossipopt.TopoRandom,
	}, nil)
}

func buildPaperStack(p *pass) *cycleNet {
	return buildOptimizer(p, gossipopt.Config{
		Particles: 16, GossipEvery: 16, ViewSize: 20,
		Function: gossipopt.Griewank, Topology: gossipopt.TopoNewscast,
	}, nil)
}

func buildChurnLossy(p *pass) *cycleNet {
	return buildOptimizer(p, gossipopt.Config{
		Particles: 2, GossipEvery: 2, ViewSize: 20,
		Function: gossipopt.Sphere, Dim: 2, Topology: gossipopt.TopoNewscast,
		Churn: &sim.RateChurn{CrashProb: 0.01, JoinPerCycle: 100, MinLive: p.w.nodes / 2},
	}, sim.LossyLinks{Loss: 0.15, DelayMax: 2})
}

// runEventWAN drives the event engine: one op is one simulated time unit.
// Its handlers live behind an unexported type, so only the solver, the
// objective and the engine's public counters can be observed.
func runEventWAN(p *pass) {
	const particles = 16
	var net *core.AsyncNetwork
	build := func() {
		cfg := core.AsyncConfig{
			Nodes: p.w.nodes, Particles: particles, GossipEvery: particles, ViewSize: 20,
			Function: funcs.Rastrigin, Seed: p.seed,
			Link: sim.UniformLink{MinDelay: 0.5, MaxDelay: 2.0, LossProb: 0.05},
		}
		if p.tr != nil {
			cfg.Function = p.tr.countingFunction(cfg.Function)
			// The same swarm the default factory builds, wrapped.
			cfg.SolverFactory = p.tr.solverFactory(func(f funcs.Function, dim int, _ int64, r *rng.RNG) solver.Solver {
				return pso.New(f, dim, particles, cfg.PSOConfig(), r)
			})
		}
		net = core.NewAsyncNetwork(cfg)
	}
	warm := func() {
		for i := 0; i < p.w.warm; i++ {
			net.RunFor(1.0, math.MaxInt64)
		}
	}
	p.setUp(build, warm)
	defer p.repeatSetUp(build, warm, func() { net = nil })
	eng := net.Engine()
	observe := func(i int) observation {
		return observation{cycle: int64(i), live: net.LiveCount(), evals: net.TotalEvals(),
			delivered: eng.Delivered(), dropped: eng.Dropped(), quality: net.Quality()}
	}

	prev := observe(-1)
	first := prev
	metrics0 := net.Metrics()
	var steps int64
	p.startMeasure(p.ops)
	for i := 0; i < p.ops; i++ {
		start := now()
		steps += eng.RunUntil(eng.Now()+1.0, math.MaxInt64) // what RunFor does, keeping the step count
		end := now()
		p.opNs = append(p.opNs, end-start)

		cur := observe(i)
		switch {
		case cur.evals <= prev.evals:
			p.fail("op %d: no evaluation completed", i)
		case cur.delivered < prev.delivered || cur.dropped < prev.dropped:
			p.fail("op %d: delivery counters went backwards", i)
		case math.IsInf(cur.quality, 0) || math.IsNaN(cur.quality) || cur.quality > prev.quality:
			p.fail("op %d: quality went from %v to %v", i, prev.quality, cur.quality)
		}
		p.dig.op(cur.cycle, cur.live, cur.evals, cur.delivered, cur.dropped, cur.quality)
		p.nodeCycles += cur.evals - prev.evals
		if p.tr != nil {
			p.tr.endOp(i, "sim.event_run", start, end)
		}
		prev = cur
	}
	p.stopMeasure()
	p.finalQuality = prev.quality
	if p.tr == nil {
		return
	}

	m, runNs := p.layer, p.opTime()
	m["sim.event_steps"] = float64(steps)
	m["sim.event_run_ns"] = runNs
	m["sim.event_delivered"] = float64(prev.delivered - first.delivered)
	m["sim.event_dropped"] = float64(prev.dropped - first.dropped)
	metrics1 := net.Metrics()
	m["core.exchanges"] = float64(metrics1.Exchanges - metrics0.Exchanges)
	m["core.adoptions"] = float64(metrics1.Adoptions - metrics0.Adoptions)
	m["core.adoption_ratio"] = ratio(m["core.adoptions"], m["core.exchanges"])
	p.solverMetrics()
	dim := funcs.Rastrigin.Dim(0)
	m["pso.evalone_kernel_ns_per_call"] = evalOneKernel(funcs.Rastrigin, dim, particles)
	m["funcs.eval_kernel_ns_per_call"] = evalKernel(funcs.Rastrigin, dim)
	m["rng.uint64_kernel_ns_per_call"], m["rng.split_kernel_ns_per_call"] = rngKernels()

	// Everything that is not the solver is the event engine plus the
	// core/async.go handlers, which cannot be told apart from outside.
	m["sim.self_share"] = ratio(runNs-m["pso.evalone_busy_ns"], runNs)
	p.solverShares(runNs)
	p.sumCoverage()
}
