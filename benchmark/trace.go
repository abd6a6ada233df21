package main

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"gossipopt/internal/core"
	"gossipopt/internal/exp"
	"gossipopt/internal/funcs"
	"gossipopt/internal/overlay"
	"gossipopt/internal/rng"
	"gossipopt/internal/sim"
	"gossipopt/internal/solver"
)

// The tracing side of the benchmark. Everything here wraps a public entry
// point of the program from the outside: a wrapper forwards the call,
// counts it and (where a call is long enough for two clock reads not to
// drown it) times it. Wrappers are strict spectators: they draw from no
// RNG and change no argument or result, which the benchmark checks by
// comparing the traced pass's sim_digest with the untraced pass's.

// epoch anchors the monotonic clock every span is read from.
var epoch = time.Now()

// now returns nanoseconds since epoch on the monotonic clock (one
// runtime.nanotime read, about half the cost of time.Now).
func now() int64 { return int64(time.Since(epoch)) }

// Layers whose protocol handlers the tracer wraps in place.
const (
	layerOverlay = iota
	layerCore
	layerGossip
	numProtoLayers
)

var protoLayerNames = [numProtoLayers]string{"overlay", "core", "gossip"}

// protoCounts is the cumulative handler accounting of one protocol
// instance, or a sum of them.
type protoCounts struct {
	proposeCalls, proposeNs         int64
	receiveCalls, receiveNs         int64
	undeliveredCalls, undeliveredNs int64
	sampleCalls                     int64
}

func (c *protoCounts) add(o *protoCounts) {
	c.proposeCalls += o.proposeCalls
	c.proposeNs += o.proposeNs
	c.receiveCalls += o.receiveCalls
	c.receiveNs += o.receiveNs
	c.undeliveredCalls += o.undeliveredCalls
	c.undeliveredNs += o.undeliveredNs
	c.sampleCalls += o.sampleCalls
}

func (c protoCounts) sub(o protoCounts) protoCounts {
	return protoCounts{
		c.proposeCalls - o.proposeCalls, c.proposeNs - o.proposeNs,
		c.receiveCalls - o.receiveCalls, c.receiveNs - o.receiveNs,
		c.undeliveredCalls - o.undeliveredCalls, c.undeliveredNs - o.undeliveredNs,
		c.sampleCalls - o.sampleCalls,
	}
}

func (c protoCounts) busy() int64 { return c.proposeNs + c.receiveNs + c.undeliveredNs }

// tracedProto stands in a node's protocol slot for the real protocol
// instance and forwards every contract the instance speaks. One wrapper
// belongs to one node: handlers write only the wrapper's own counters,
// so the node-local contract holds for the benchmark's code too.
//
// A protocol that cannot receive (overlay.Static) has nothing to do in
// Propose either, by contract; timing that no-op would bill two clock
// reads per node and cycle to the engine, so its calls are only counted.
type tracedProto struct {
	inner       sim.Protocol
	proposer    sim.Proposer
	receiver    sim.Receiver
	undelivered sim.Undeliverable
	sampler     overlay.PeerSampler
	protoCounts
}

var (
	_ sim.Proposer        = (*tracedProto)(nil)
	_ sim.Receiver        = (*tracedProto)(nil)
	_ sim.Undeliverable   = (*tracedProto)(nil)
	_ overlay.PeerSampler = (*tracedProto)(nil)
)

func newTracedProto(p sim.Protocol) *tracedProto {
	t := &tracedProto{inner: p}
	t.proposer, _ = p.(sim.Proposer)
	t.receiver, _ = p.(sim.Receiver)
	t.undelivered, _ = p.(sim.Undeliverable)
	t.sampler, _ = p.(overlay.PeerSampler)
	return t
}

// Propose implements sim.Proposer by forwarding to the wrapped protocol.
func (t *tracedProto) Propose(n *sim.Node, px *sim.Proposals) {
	if t.proposer == nil {
		return
	}
	t.proposeCalls++
	if t.receiver == nil {
		t.proposer.Propose(n, px)
		return
	}
	start := now()
	t.proposer.Propose(n, px)
	t.proposeNs += now() - start
}

// Receive implements sim.Receiver by forwarding to the wrapped protocol.
func (t *tracedProto) Receive(n *sim.Node, ax *sim.ApplyContext, msg sim.Message) {
	if t.receiver == nil {
		return
	}
	start := now()
	t.receiver.Receive(n, ax, msg)
	t.receiveNs += now() - start
	t.receiveCalls++
}

// Undelivered implements sim.Undeliverable by forwarding to the wrapped
// protocol.
func (t *tracedProto) Undelivered(n *sim.Node, ax *sim.ApplyContext, msg sim.Message) {
	if t.undelivered == nil {
		return
	}
	start := now()
	t.undelivered.Undelivered(n, ax, msg)
	t.undeliveredNs += now() - start
	t.undeliveredCalls++
}

// SamplePeer implements overlay.PeerSampler; the call is a few
// nanoseconds, so it is counted and not timed.
func (t *tracedProto) SamplePeer(r *rng.RNG) (sim.NodeID, bool) {
	if t.sampler == nil {
		return 0, false
	}
	t.sampleCalls++
	return t.sampler.SamplePeer(r)
}

// Neighbors implements overlay.PeerSampler.
func (t *tracedProto) Neighbors() []sim.NodeID {
	if t.sampler == nil {
		return nil
	}
	return t.sampler.Neighbors()
}

// unwrap returns the real protocol instance behind a slot, traced or not.
func unwrap(p sim.Protocol) sim.Protocol {
	if t, ok := p.(*tracedProto); ok {
		return t.inner
	}
	return p
}

// solverCounts is the cumulative accounting of one wrapped solver, or a
// sum of them.
type solverCounts struct {
	evalCalls, evalNs           int64
	injectCalls, injectAccepted int64
}

func (c *solverCounts) add(o *solverCounts) {
	c.evalCalls += o.evalCalls
	c.evalNs += o.evalNs
	c.injectCalls += o.injectCalls
	c.injectAccepted += o.injectAccepted
}

func (c solverCounts) sub(o solverCounts) solverCounts {
	return solverCounts{c.evalCalls - o.evalCalls, c.evalNs - o.evalNs,
		c.injectCalls - o.injectCalls, c.injectAccepted - o.injectAccepted}
}

// tracedSolver wraps one node's solver.
type tracedSolver struct {
	inner solver.Solver
	solverCounts
}

// EvalOne implements solver.Solver, timing the wrapped evaluation.
func (s *tracedSolver) EvalOne() float64 {
	start := now()
	f := s.inner.EvalOne()
	s.evalNs += now() - start
	s.evalCalls++
	return f
}

// Best implements solver.Solver.
func (s *tracedSolver) Best() ([]float64, float64) { return s.inner.Best() }

// Inject implements solver.Solver, counting offers and adoptions.
func (s *tracedSolver) Inject(x []float64, fx float64) bool {
	s.injectCalls++
	ok := s.inner.Inject(x, fx)
	if ok {
		s.injectAccepted++
	}
	return ok
}

// Evals implements solver.Solver.
func (s *tracedSolver) Evals() int64 { return s.inner.Evals() }

// tracedChurn wraps the churn model: it times the inner Apply, derives
// crashes and joins from the population counts around it, and wraps the
// nodes the inner model just created so they are traced like the rest.
type tracedChurn struct {
	inner sim.ChurnModel
	tr    *tracer
	churnCounts
}

// churnCounts is the cumulative accounting of the churn wrapper.
type churnCounts struct{ calls, ns, crashes, joins int64 }

func (c churnCounts) sub(o churnCounts) churnCounts {
	return churnCounts{c.calls - o.calls, c.ns - o.ns, c.crashes - o.crashes, c.joins - o.joins}
}

// Apply implements sim.ChurnModel.
func (c *tracedChurn) Apply(e *sim.Engine) {
	size, live := e.Size(), e.LiveCount()
	start := now()
	c.inner.Apply(e)
	c.ns += now() - start
	c.calls++
	joined := e.Size() - size
	c.joins += int64(joined)
	c.crashes += int64(live + joined - e.LiveCount())
	for id := size; id < e.Size(); id++ {
		c.tr.wrapNode(e.Node(sim.NodeID(id)))
	}
}

// tracedNet wraps a tick-less net model. A verdict costs about as much as
// one clock read, so Judge is counted here and priced by kernel replay.
type tracedNet struct {
	inner sim.NetModel
	netCounts
}

// netCounts is the cumulative accounting of the net-model wrapper.
type netCounts struct{ calls, nondeliver int64 }

func (c netCounts) sub(o netCounts) netCounts {
	return netCounts{c.calls - o.calls, c.nondeliver - o.nondeliver}
}

// Judge implements sim.NetModel.
func (t *tracedNet) Judge(from, to sim.NodeID, r *rng.RNG) sim.Verdict {
	v := t.inner.Judge(from, to, r)
	t.calls++
	if v.Fate != sim.FateDeliver {
		t.nondeliver++
	}
	return v
}

// tracedSink wraps the campaign's sink, timing every Emit and keeping each
// repetition's final record, by round and scenario (the input of the
// aggregation replay).
type tracedSink struct {
	inner exp.Sink
	sinkCounts
	finals []map[string][]exp.Record
}

// newRound opens the next campaign round's records.
func (s *tracedSink) newRound() { s.finals = append(s.finals, map[string][]exp.Record{}) }

// sinkCounts is the cumulative accounting of the sink wrapper.
type sinkCounts struct{ calls, ns int64 }

func (c sinkCounts) sub(o sinkCounts) sinkCounts { return sinkCounts{c.calls - o.calls, c.ns - o.ns} }

// Emit implements exp.Sink.
func (s *tracedSink) Emit(r exp.Record) error {
	start := now()
	err := s.inner.Emit(r)
	s.ns += now() - start
	s.calls++
	round := s.finals[len(s.finals)-1]
	f := round[r.Scenario]
	if n := len(f); n > 0 && f[n-1].Rep == r.Rep {
		f[n-1] = r
	} else {
		round[r.Scenario] = append(f, r)
	}
	return err
}

// Flush implements exp.Sink.
func (s *tracedSink) Flush() error { return s.inner.Flush() }

// span is one trace record: the time one layer method was busy during one
// op, aggregated over its calls. A root span (parent "") covers the op
// itself; a child is laid out from its op's start, so end-start is the
// busy time, not a wall-clock interval.
type span struct {
	Name   string `json:"name"`
	Parent string `json:"parent"`
	Op     int    `json:"op"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Calls  int64  `json:"calls"`
}

// tracer owns the wrappers of one traced pass and turns their counters
// into spans and totals.
type tracer struct {
	slotLayer []int // protocol slot -> layer constant
	protos    [numProtoLayers][]*tracedProto
	solvers   []*tracedSolver
	churn     *tracedChurn
	net       *tracedNet
	sink      *tracedSink
	evalCalls int64 // objective evaluations, counted by countingFunction

	// Cumulative totals as of the last collect (churnNow and sinkNow: as
	// of the last endOp), and the totals at the start of the measured
	// phase.
	protoNow, protoBase   [numProtoLayers]protoCounts
	solverNow, solverBase solverCounts
	evalBase              int64
	churnNow, churnBase   churnCounts
	netBase               netCounts
	sinkNow, sinkBase     sinkCounts

	spans []span
}

// countingFunction returns f with an Eval that counts calls into the
// tracer. The call is too short to time in place; see kernels.go.
func (tr *tracer) countingFunction(f funcs.Function) funcs.Function {
	eval := f.Eval
	f.Eval = func(x []float64) float64 {
		tr.evalCalls++
		return eval(x)
	}
	return f
}

// wrapNode swaps every protocol slot of n for a wrapper around it, and an
// optimizer node's solver for a wrapper too.
func (tr *tracer) wrapNode(n *sim.Node) {
	for slot, p := range n.Protocols {
		if p == nil || slot >= len(tr.slotLayer) {
			continue
		}
		if o, ok := p.(*core.OptNode); ok {
			ts := &tracedSolver{inner: o.Solver}
			o.Solver = ts
			tr.solvers = append(tr.solvers, ts)
		}
		tp := newTracedProto(p)
		n.Protocols[slot] = tp
		layer := tr.slotLayer[slot]
		tr.protos[layer] = append(tr.protos[layer], tp)
	}
}

// wrapEngine wraps every node of a freshly built cycle engine.
func (tr *tracer) wrapEngine(e *sim.Engine, slotLayer ...int) {
	tr.slotLayer = slotLayer
	for _, n := range e.AllNodes() {
		tr.wrapNode(n)
	}
}

// solverFactory returns mk with every solver it builds wrapped.
func (tr *tracer) solverFactory(mk solver.Factory) solver.Factory {
	return func(f funcs.Function, dim int, id int64, r *rng.RNG) solver.Solver {
		ts := &tracedSolver{inner: mk(f, dim, id, r)}
		tr.solvers = append(tr.solvers, ts)
		return ts
	}
}

// collect sums every wrapper's counters into the tracer's totals.
func (tr *tracer) collect() {
	for l := range tr.protos {
		var sum protoCounts
		for _, p := range tr.protos[l] {
			sum.add(&p.protoCounts)
		}
		tr.protoNow[l] = sum
	}
	var sum solverCounts
	for _, s := range tr.solvers {
		sum.add(&s.solverCounts)
	}
	tr.solverNow = sum
}

// beginMeasure marks the start of the measured phase: totals reported at
// the end are deltas against this point.
func (tr *tracer) beginMeasure(ops int) {
	tr.collect()
	tr.protoBase, tr.solverBase, tr.evalBase = tr.protoNow, tr.solverNow, tr.evalCalls
	if tr.churn != nil {
		tr.churnNow, tr.churnBase = tr.churn.churnCounts, tr.churn.churnCounts
	}
	if tr.net != nil {
		tr.netBase = tr.net.netCounts
	}
	if tr.sink != nil {
		tr.sinkNow, tr.sinkBase = tr.sink.sinkCounts, tr.sink.sinkCounts
	}
	tr.spans = make([]span, 0, ops*4)
}

// endOp records the spans of the op that ran from start to end: the root,
// and one child per layer method that was called during it.
func (tr *tracer) endOp(op int, root string, start, end int64) {
	prevProto, prevSolver := tr.protoNow, tr.solverNow
	tr.collect()
	tr.spans = append(tr.spans, span{Name: root, Op: op, Start: start, End: end, Calls: 1})
	child := func(name, parent string, busy, calls int64) {
		if calls > 0 {
			tr.spans = append(tr.spans, span{Name: name, Parent: parent, Op: op, Start: start, End: start + busy, Calls: calls})
		}
	}
	for l, name := range protoLayerNames {
		d := tr.protoNow[l].sub(prevProto[l])
		child(name+".propose", root, d.proposeNs, d.proposeCalls)
		child(name+".receive", root, d.receiveNs, d.receiveCalls)
		child(name+".undelivered", root, d.undeliveredNs, d.undeliveredCalls)
	}
	d := tr.solverNow.sub(prevSolver)
	parent := "core.propose"
	if len(tr.protos[layerCore]) == 0 {
		parent = root // event engine: handlers cannot be wrapped
	}
	child("pso.evalone", parent, d.evalNs, d.evalCalls)
	if tr.churn != nil {
		d := tr.churn.churnCounts.sub(tr.churnNow)
		child("sim.churn", root, d.ns, d.calls)
		tr.churnNow = tr.churn.churnCounts
	}
	if tr.sink != nil {
		d := tr.sink.sinkCounts.sub(tr.sinkNow)
		child("exp.sink_emit", root, d.ns, d.calls)
		tr.sinkNow = tr.sink.sinkCounts
	}
}

// writeSpans writes the recorded spans as JSON lines.
func (tr *tracer) writeSpans(w io.Writer) error {
	enc := json.NewEncoder(w)
	for i := range tr.spans {
		if err := enc.Encode(&tr.spans[i]); err != nil {
			return fmt.Errorf("writing span %d: %w", i, err)
		}
	}
	return nil
}
