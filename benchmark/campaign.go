package main

import (
	"encoding/json"
	"fmt"

	"gossipopt/internal/exp"
	"gossipopt/internal/scenario"
	"gossipopt/internal/sim"
)

// A campaign round runs every built-in scenario for roundReps repetitions
// and every sweep cell for roundSweepReps. The measured phase is a number
// of rounds, each with a base seed of its own, rather than one long
// campaign per scenario. Repetitions cost from 0.5 to 100 ms depending on
// the cell, so the latency percentiles pick out groups of cells; with each
// cell's repetitions in one block, a slow second of the host moved one
// group against the others and the median jumped between them. In rounds
// every cell is sampled across the whole run, and at 3:2 the median lies
// inside the dense group of cells around 16 ms.
const (
	roundReps      = 3
	roundSweepReps = 2
)

// roundSeed is the base seed of a round: the golden-ratio stride keeps the
// rounds' repetition seeds apart however the runner derives them.
func roundSeed(seed uint64, round int) uint64 {
	return seed + uint64(round)*0x9e3779b97f4a7c15
}

// campaignPlan is the compiled input of campaign-mix: every built-in
// scenario and sweep, parsed from its JSON form as a user's file would be.
type campaignPlan struct {
	specs  []scenario.Spec
	sweeps []scenario.SweepSpec
	// cells counts the sweeps' grid points.
	cells int
	// byName finds the normalized spec behind a progress update's cell.
	byName map[string]scenario.Spec
	// nodes is the total population the plan builds at one repetition
	// each (the divisor of heap_bytes_per_node).
	nodes             int
	parseNs, expandNs int64
}

// compilePlan round-trips every built-in (the first limit scenarios and
// sweeps when limit is positive) through its JSON form and the strict
// parser, then expands the sweeps.
func compilePlan(limit int) (*campaignPlan, error) {
	plan := &campaignPlan{byName: map[string]scenario.Spec{}}
	names, sweepNames := scenario.BuiltinNames(), scenario.BuiltinSweepNames()
	if limit > 0 {
		names, sweepNames = names[:min(limit, len(names))], sweepNames[:min(limit, len(sweepNames))]
	}
	for _, name := range names {
		b, _ := scenario.Builtin(name)
		data, err := json.Marshal(b)
		if err != nil {
			return nil, fmt.Errorf("encoding built-in %q: %w", name, err)
		}
		start := now()
		spec, err := scenario.Parse(data)
		plan.parseNs += now() - start
		if err != nil {
			return nil, fmt.Errorf("built-in %q: %w", name, err)
		}
		plan.specs = append(plan.specs, spec)
		plan.byName[spec.Name] = spec
		plan.nodes += spec.Nodes
	}
	for _, name := range sweepNames {
		b, _ := scenario.BuiltinSweep(name)
		data, err := json.Marshal(b)
		if err != nil {
			return nil, fmt.Errorf("encoding built-in sweep %q: %w", name, err)
		}
		start := now()
		sw, err := scenario.ParseSweep(data)
		plan.parseNs += now() - start
		if err != nil {
			return nil, fmt.Errorf("built-in sweep %q: %w", name, err)
		}
		start = now()
		cells, err := sw.Cells()
		plan.expandNs += now() - start
		if err != nil {
			return nil, fmt.Errorf("built-in sweep %q: %w", name, err)
		}
		plan.sweeps = append(plan.sweeps, sw)
		plan.cells += len(cells)
		for _, c := range cells {
			plan.byName[c.Name] = c.Spec
			plan.nodes += c.Spec.Nodes
		}
	}
	return plan, nil
}

// expectedRows is the number of rows a finished repetition's metric
// schedule implies: one per full sampling interval plus a final sample
// when the run did not stop on one. The event engine numbers its samples,
// so its summary carries the count directly.
func expectedRows(spec scenario.Spec, sum scenario.RepSummary) int64 {
	if spec.Engine == scenario.EngineEvent {
		return sum.Cycles
	}
	every := max(int64(spec.MetricsEvery), 1)
	rows := sum.Cycles / every
	if sum.Cycles%every != 0 || sum.Cycles == 0 {
		rows++
	}
	return rows
}

// countingWriter receives the campaign's CSV: it counts the bytes and
// folds them into the pass's digest, keeping none.
type countingWriter struct {
	dig   digest
	bytes int64
}

// Write implements io.Writer.
func (w *countingWriter) Write(b []byte) (int, error) {
	w.bytes += int64(len(b))
	return w.dig.Write(b)
}

// sweepRun is one RunSweep call's cell results, the input of the
// aggregation replay.
type sweepRun struct {
	round int
	sweep scenario.SweepSpec
	cells []scenario.SweepCellResult
}

// runCampaign drives campaign-mix: one op is one repetition, timed as the
// interval between consecutive Options.Progress callbacks; p.ops counts
// rounds.
func runCampaign(p *pass) {
	var plan *campaignPlan
	// run executes the plan once and returns each sweep's cell results.
	run := func(round, reps, sweepReps int, sink exp.Sink, progress func(scenario.ProgressUpdate)) []sweepRun {
		var runs []sweepRun
		opts := scenario.Options{BaseSeed: roundSeed(p.seed, round), Workers: 1, RepWorkers: 1, Progress: progress}
		opts.Reps = reps
		for _, spec := range plan.specs {
			if _, err := scenario.Run(spec, opts, sink); err != nil {
				p.fail("%v", err)
			}
		}
		opts.Reps = sweepReps
		for _, sw := range plan.sweeps {
			res, err := scenario.RunSweep(sw, opts, sink)
			if err != nil {
				p.fail("%v", err)
			}
			runs = append(runs, sweepRun{round, sw, res})
		}
		return runs
	}
	compile := func() {
		var err error
		if plan, err = compilePlan(p.w.planLimit); err != nil {
			p.fail("%v", err)
		}
	}
	warm := func() { run(0, p.w.warm, p.w.warm, exp.DiscardSink{}, nil) }
	p.setUp(compile, warm)
	defer p.repeatSetUp(compile, warm, func() { plan = nil })
	// No population outlives a repetition, so what a finished pass retains
	// is a few hundred KB of pools whose size moves by 5% between runs. The
	// memory figure of a campaign is instead everything one pass over the
	// plan allocates, per node it built.
	p.heapBytes, p.heapNodes = p.setupAllocBytes, plan.nodes

	out := &countingWriter{dig: p.dig}
	var sink exp.Sink = exp.NewCSVSink(out)
	totalReps := p.ops * (len(plan.specs)*roundReps + plan.cells*roundSweepReps)
	if p.tr != nil {
		p.tr.sink = &tracedSink{inner: sink}
		sink = p.tr.sink
	}
	var (
		last, lastRows         int64
		enginePhaseNs, rows    int64
		failedReps, reps, opID int
	)
	progress := func(u scenario.ProgressUpdate) {
		t := now()
		p.opNs = append(p.opNs, t-last)
		if u.DoneReps == 1 {
			lastRows = 0 // a new Run or RunSweep counts its rows from zero
		}
		spec := p.planSpec(plan, u.Cell)
		if got, want := u.Rows-lastRows, expectedRows(spec, u.Summary); got != want {
			p.fail("%s rep %d: emitted %d rows, its schedule implies %d", u.Cell, u.Rep, got, want)
			failedReps++
		}
		rows += u.Rows - lastRows
		lastRows = u.Rows
		if spec.Engine == scenario.EngineEvent {
			p.nodeCycles += u.Summary.Evals
		} else {
			p.nodeCycles += int64(spec.Nodes) * u.Summary.Cycles
		}
		enginePhaseNs += u.Summary.Stats.ProposeNanos + u.Summary.Stats.ApplyNanos
		if p.tr != nil {
			p.tr.endOp(opID, "scenario.rep", last, t)
		}
		reps++
		opID++
		last = t
	}
	p.startMeasure(totalReps)
	last = p.begin
	var sweepRuns []sweepRun
	for round := 0; round < p.ops; round++ {
		if p.tr != nil {
			p.tr.sink.newRound()
		}
		sweepRuns = append(sweepRuns, run(round, roundReps, roundSweepReps, sink, progress)...)
	}
	p.stopMeasure()
	if p.tr == nil {
		return
	}

	m, tr, repNs := p.layer, p.tr, int64(p.opTime())
	// Aggregation happens inside RunSweep; replay it on the same inputs
	// (each cell's final records and engine snapshots) to price it.
	start := now()
	for _, sr := range sweepRuns {
		for _, res := range sr.cells {
			finals := tr.sink.finals[sr.round][res.Cell.Name]
			exp.AggregateCell(sr.sweep.Name, res.Cell.Name, finals, make([]float64, len(finals)), sr.sweep.Threshold)
			snaps := make([]sim.EngineStats, len(res.Sums))
			for k, s := range res.Sums {
				snaps[k] = s.Stats
			}
			exp.AggregateEngineStats(snaps)
		}
	}
	aggregateNs := now() - start
	sinkNs := tr.sink.ns - tr.sinkBase.ns

	m["scenario.parse_ns"] = float64(plan.parseNs)
	m["scenario.sweep_expand_ns"] = float64(plan.expandNs)
	m["scenario.reps"] = float64(reps)
	m["scenario.rep_ns"] = float64(repNs)
	m["scenario.engine_phase_ns"] = float64(enginePhaseNs)
	m["scenario.self_ns"] = float64(repNs - enginePhaseNs - sinkNs - aggregateNs)
	m["scenario.rows"] = float64(rows)
	m["scenario.failed_reps"] = float64(failedReps)
	m["exp.sink_emit_calls"] = float64(tr.sink.calls - tr.sinkBase.calls)
	m["exp.sink_emit_busy_ns"] = float64(sinkNs)
	m["exp.sink_bytes"] = float64(out.bytes)
	m["exp.aggregate_ns"] = float64(aggregateNs)
	m["sim.self_share"] = ratio(float64(enginePhaseNs), float64(repNs))
	m["scenario.self_share"] = ratio(m["scenario.self_ns"], float64(repNs))
	m["exp.self_share"] = ratio(float64(sinkNs+aggregateNs), float64(repNs))
	p.sumCoverage()
}

// planSpec returns the spec behind a progress update, failing the pass on
// a name the plan does not know.
func (p *pass) planSpec(plan *campaignPlan, cell string) scenario.Spec {
	spec, ok := plan.byName[cell]
	if !ok {
		p.fail("progress update names unknown cell %q", cell)
	}
	return spec
}
