// Sweep: the scenario-sweep API used programmatically — the same grid
// machinery `cmd/scenario -sweep` drives from JSON, built as a Go value.
// The sweep asks one of the paper's questions (does solver
// diversification help on a deceptive function?) as a 2x2 grid: a
// homogeneous PSO deployment vs a mixed pso/de/es one, on Sphere
// (unimodal) vs Rastrigin (highly multimodal). Every cell × repetition
// job runs on one bounded worker pool and the per-cell aggregates come
// back ready for the comparison report.
//
// Run with: go run ./examples/sweep
package main

import (
	"fmt"
	"io"
	"os"

	"gossipopt/internal/exp"
	"gossipopt/internal/scenario"
)

func main() {
	run(os.Stdout, 3, 4)
}

// raw abbreviates the JSON literals of the axis values.
func raw(s string) []byte { return []byte(s) }

// run executes the example sweep with the given repetitions per cell and
// pool size (separated from main for testability).
func run(out io.Writer, reps, workers int) {
	sw := scenario.SweepSpec{
		Name:        "diversity",
		Description: "homogeneous vs mixed solver deployments on an easy and a deceptive objective",
		Base: scenario.Spec{
			Nodes:        48,
			Seed:         29,
			Stack:        scenario.Stack{Particles: 8},
			MetricsEvery: 20,
			Stop:         scenario.Stop{Cycles: 100},
		},
		Axes: []scenario.Axis{
			{Name: "solvers", Values: []scenario.AxisValue{
				{Label: "pso", Value: raw(`{"stack":{"solvers":["pso"]}}`)},
				{Label: "mixed", Value: raw(`{"stack":{"solvers":["pso","de","es"]}}`)},
			}},
			{Name: "f", Path: "stack.function", Values: []scenario.AxisValue{
				{Value: raw(`"Sphere"`)},
				{Value: raw(`"Rastrigin"`)},
			}},
		},
	}

	results, err := scenario.RunSweep(sw, scenario.Options{
		Reps:       reps,
		RepWorkers: workers,
	}, exp.DiscardSink{}) // rows discarded: this example wants the aggregates
	if err != nil {
		fmt.Fprintln(out, "sweep failed:", err)
		return
	}

	cells := make([]exp.CellSummary, len(results))
	for i, r := range results {
		cells[i] = r.Summary
	}
	fmt.Fprint(out, exp.SweepReport(sw.Name, cells))
	fmt.Fprintf(out, "\n%d cells x %d reps, byte-identical output for any pool size\n",
		len(results), reps)
}
