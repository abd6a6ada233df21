package scenario

import (
	"bytes"
	"reflect"
	"testing"

	"gossipopt/internal/exp"
	"gossipopt/internal/sim"
)

// stripWorkerVariantStats zeroes the instrumentation fields that
// legitimately depend on wall-clock time or the worker configuration
// (phase timings, shard-load spread, pool submissions), leaving the
// deterministic core — cycle, delivery, eval, round, job, batch and rebuild
// counts — for exact comparison across worker grids. The free-list
// counters stay in: they are each engine's own, and zero while
// sim.EnableFreeListStats is off.
func stripWorkerVariantStats(s *sim.EngineStats) {
	s.ProposeNanos, s.ApplyNanos = 0, 0
	s.ShardedRounds, s.ShardMinLoad, s.ShardMaxLoad, s.ShardMeanLoad = 0, 0, 0, 0
	s.PoolTasks = 0
}

// stripWorkerVariantUpdate normalizes one progress update for cross-grid
// comparison: the worker-variant stats fields, like above.
func stripWorkerVariantUpdate(u *ProgressUpdate) {
	stripWorkerVariantStats(&u.Summary.Stats)
}

// TestProgressStreamCampaign pins the campaign progress contract: one
// update per repetition, in repetition order, rows monotone and ending at
// the total row count, the cell completing exactly on the last update.
func TestProgressStreamCampaign(t *testing.T) {
	spec, _ := Builtin("baseline")
	spec.Stop.Cycles = 20
	const reps = 4
	var ups []ProgressUpdate
	var buf bytes.Buffer
	_, err := Run(spec, Options{
		Reps:     reps,
		Progress: func(u ProgressUpdate) { ups = append(ups, u) },
	}, exp.NewCSVSink(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if len(ups) != reps {
		t.Fatalf("got %d updates, want %d", len(ups), reps)
	}
	rows := int64(bytes.Count(buf.Bytes(), []byte("\n")) - 1) // minus header
	for i, u := range ups {
		if u.DoneReps != i+1 || u.Rep != i || u.TotalReps != reps || u.TotalCells != 1 {
			t.Fatalf("update %d out of order: %+v", i, u)
		}
		if u.Cell != spec.Name {
			t.Fatalf("update %d cell = %q, want %q", i, u.Cell, spec.Name)
		}
		if u.Summary.Stats.Cycles != 20 {
			t.Fatalf("update %d carries no engine stats: %+v", i, u.Summary.Stats)
		}
		wantDone := 0
		if i == reps-1 {
			wantDone = 1
		}
		if u.DoneCells != wantDone {
			t.Fatalf("update %d DoneCells = %d, want %d", i, u.DoneCells, wantDone)
		}
	}
	if got := ups[reps-1].Rows; got != rows {
		t.Fatalf("final update reports %d rows, sink received %d", got, rows)
	}
}

// TestProgressStreamWorkerInvariance runs the same sweep across the
// (RepWorkers × Workers) grid and requires the exact same update stream —
// order, counts, rows, summaries — once the worker-variant stats fields
// are stripped. The progress callback rides the ordered flush frontier,
// so this holds by construction; the test keeps it that way.
func TestProgressStreamWorkerInvariance(t *testing.T) {
	sw, _ := BuiltinSweep("overlay-vs-churn")
	stream := func(repWorkers, workers int) []ProgressUpdate {
		var ups []ProgressUpdate
		_, err := RunSweep(sw, Options{
			Reps: 2, RepWorkers: repWorkers, Workers: workers,
			Progress: func(u ProgressUpdate) { ups = append(ups, u) },
		}, exp.DiscardSink{})
		if err != nil {
			t.Fatalf("repworkers=%d workers=%d: %v", repWorkers, workers, err)
		}
		for i := range ups {
			stripWorkerVariantUpdate(&ups[i])
		}
		return ups
	}
	want := stream(1, 1)
	if len(want) == 0 {
		t.Fatal("no progress updates")
	}
	last := want[len(want)-1]
	if last.DoneReps != last.TotalReps || last.DoneCells != last.TotalCells {
		t.Fatalf("final update incomplete: %+v", last)
	}
	for _, grid := range [][2]int{{4, 1}, {2, 2}, {8, 4}} {
		got := stream(grid[0], grid[1])
		if len(got) != len(want) {
			t.Fatalf("repworkers=%d workers=%d: %d updates, want %d", grid[0], grid[1], len(got), len(want))
		}
		for i := range want {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("repworkers=%d workers=%d: update %d differs:\n%+v\n%+v",
					grid[0], grid[1], i, got[i], want[i])
			}
		}
	}
}

// TestSweepFillsEngineSummary checks that every sweep cell summary
// carries the aggregated engine instrumentation and that its job counts
// agree with the per-repetition snapshots.
func TestSweepFillsEngineSummary(t *testing.T) {
	sw, _ := BuiltinSweep("overlay-vs-churn")
	res, err := RunSweep(sw, Options{Reps: 2, Workers: 2}, exp.DiscardSink{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) == 0 {
		t.Fatal("no cells")
	}
	for _, r := range res {
		eng := r.Summary.Engine
		if eng == nil {
			t.Fatalf("cell %s: no engine summary", r.Cell.Name)
		}
		if eng.ApplyJobs.N != int64(len(r.Sums)) {
			t.Fatalf("cell %s: engine summary over %d reps, want %d", r.Cell.Name, eng.ApplyJobs.N, len(r.Sums))
		}
		var mean float64
		for _, s := range r.Sums {
			mean += float64(s.Stats.ApplyJobs)
		}
		mean /= float64(len(r.Sums))
		if eng.ApplyJobs.Mean != mean {
			t.Fatalf("cell %s: ApplyJobs mean %v, want %v", r.Cell.Name, eng.ApplyJobs.Mean, mean)
		}
	}
}
