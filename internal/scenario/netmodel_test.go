package scenario

import (
	"bytes"
	"testing"

	"gossipopt/internal/exp"
)

// Scenario-level tests for the per-link network models: zero-leak under
// total loss, the corrupted-is-never-delivered accounting, the pinned
// loss-degradation sweep, and repetition-worker invariance of the new
// built-ins (the propose x apply grid is covered for every built-in by
// TestApplyWorkerGridInvariance).

// TestFullLinkLossLeaksNothing: under a 100% per-link loss model no
// protocol state may cross between nodes. Zero legs are delivered and no
// node adopts a remote value, so anti-entropy's quality stays frozen at
// its first sample (the optimizer's swarms still improve on their own).
func TestFullLinkLossLeaksNothing(t *testing.T) {
	cases := []struct {
		name  string
		stack Stack
	}{
		{"antientropy-random", Stack{Topology: "random", ViewSize: 8, Protocol: ProtocolAntiEntropy, Net: &NetSpec{Loss: 1}}},
		{ProtocolAntiEntropy, Stack{Protocol: ProtocolAntiEntropy, Net: &NetSpec{Loss: 1}}},
		{ProtocolOpt, Stack{Particles: 4, Net: &NetSpec{Loss: 1}}},
	}
	for i, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			spec := Spec{
				Name:  "zero-leak-" + c.name,
				Nodes: 32, Seed: uint64(41 + i),
				Stack:        c.stack,
				MetricsEvery: 5,
				Stop:         Stop{Cycles: 30},
			}
			var sink captureSink
			sums, err := Run(spec, Options{}, &sink)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range sink.recs {
				if r.Delivered != 0 {
					t.Fatalf("cycle %d: %d legs delivered under 100%% loss", r.Cycle, r.Delivered)
				}
			}
			first, last := sink.recs[0], sink.recs[len(sink.recs)-1]
			if c.name != ProtocolOpt && last.Quality != first.Quality {
				t.Fatalf("quality moved %v -> %v with every leg lost", first.Quality, last.Quality)
			}
			if last.Adoptions != 0 {
				t.Fatalf("%d adoptions crossed a dead network", last.Adoptions)
			}
			if sums[0].Stats.Dropped == 0 {
				t.Fatal("no traffic was attempted; the run proves nothing")
			}
		})
	}
}

// TestAllCorruptCountsDroppedNeverDelivered: when every node corrupts
// every leg it sends, receivers see only unparseable markers — so the
// Delivered counter must stay at zero, every corrupted leg must also count
// as Dropped, and no protocol state crosses.
func TestAllCorruptCountsDroppedNeverDelivered(t *testing.T) {
	spec := Spec{
		Name:  "all-corrupt",
		Nodes: 32, Seed: 44,
		Stack:        Stack{Protocol: ProtocolAntiEntropy},
		Timeline:     []Event{{At: 0, Action: "byzantine", Behavior: "corrupt", Fraction: 1}},
		MetricsEvery: 5,
		Stop:         Stop{Cycles: 30},
	}
	var sink captureSink
	sums, err := Run(spec, Options{}, &sink)
	if err != nil {
		t.Fatal(err)
	}
	st := sums[0].Stats
	if st.Corrupted == 0 {
		t.Fatal("no legs corrupted; the adversaries never acted")
	}
	if st.Delivered != 0 {
		t.Fatalf("%d corrupted legs counted as Delivered", st.Delivered)
	}
	if st.Dropped != st.Corrupted {
		t.Fatalf("dropped=%d corrupted=%d: every drop here must be a corruption", st.Dropped, st.Corrupted)
	}
	for _, r := range sink.recs {
		if r.Adoptions != 0 {
			t.Fatalf("cycle %d: %d adoptions from unparseable payloads", r.Cycle, r.Adoptions)
		}
	}
	first, last := sink.recs[0], sink.recs[len(sink.recs)-1]
	if last.Quality != first.Quality {
		t.Fatalf("quality moved %v -> %v on corrupted-only traffic", first.Quality, last.Quality)
	}
}

// TestLinkLossDegradationPinned pins the headline degradation claim as a
// regression: in the overlay-vs-linkloss sweep, every cell still
// converges (zero censored repetitions), each overlay's mean
// time-to-threshold is non-decreasing in the loss rate, and the highest
// loss rate is strictly slower than the lossless baseline.
func TestLinkLossDegradationPinned(t *testing.T) {
	sw, ok := BuiltinSweep("overlay-vs-linkloss")
	if !ok {
		t.Fatal("overlay-vs-linkloss sweep missing")
	}
	res, err := RunSweep(sw, Options{RepWorkers: 4}, exp.DiscardSink{})
	if err != nil {
		t.Fatal(err)
	}
	nloss := len(sw.Axes[1].Values)
	if len(res) != len(sw.Axes[0].Values)*nloss {
		t.Fatalf("%d cells, want the full grid", len(res))
	}
	// Expansion is row-major with the last (loss) axis fastest, so each
	// overlay's cells are consecutive in increasing-loss order.
	for p := 0; p < len(sw.Axes[0].Values); p++ {
		cells := res[p*nloss : (p+1)*nloss]
		prev := 0.0
		for _, r := range cells {
			if r.Summary.Censored != 0 {
				t.Fatalf("%s: %d of %d reps never reached the threshold", r.Cell.Name, r.Summary.Censored, r.Summary.Reps)
			}
			m := r.Summary.ToThreshold.Mean
			if m < prev {
				t.Fatalf("degradation not monotone: %s mean to-threshold %.2f, previous loss level took %.2f", r.Cell.Name, m, prev)
			}
			prev = m
		}
		lo := cells[0].Summary.ToThreshold.Mean
		hi := cells[nloss-1].Summary.ToThreshold.Mean
		if hi <= lo {
			t.Fatalf("%s: max loss (%.2f cycles) not slower than lossless (%.2f cycles)", cells[0].Cell.Name, hi, lo)
		}
	}
}

// TestLinkLossLeavesViewsWhole reads the overlay's view health at the end
// of each repetition of overlay-vs-linkloss's harshest Newscast cell
// (35% loss per leg) at 12 repetitions: no live view is empty and every
// live node is in one. While a lost leg evicted the partner, 10 of the 12
// repetitions ended with 16 empty views and 28 orphans between them.
func TestLinkLossLeavesViewsWhole(t *testing.T) {
	sw, _ := BuiltinSweep("overlay-vs-linkloss")
	res, err := RunSweep(sw, Options{Reps: 12}, exp.DiscardSink{})
	if err != nil {
		t.Fatal(err)
	}
	const cell = "overlay-vs-linkloss/overlay=newscast,loss=0.35"
	for _, r := range res {
		if r.Cell.Name != cell {
			continue
		}
		for _, s := range r.Sums {
			if h := s.Health; h == nil || h.Empty != 0 || h.Orphans != 0 {
				t.Errorf("rep %d: view health %+v", s.Rep, h)
			}
		}
		return
	}
	t.Fatalf("no cell %s", cell)
}

// TestNetModelRepWorkerInvariance extends the worker-invariance contract's
// third axis to the net-model built-ins: a multi-repetition campaign emits
// byte-identical CSV for every repetition-worker count.
func TestNetModelRepWorkerInvariance(t *testing.T) {
	for _, name := range []string{"lossy-links", "regional-outage", "byzantine-corrupt", "byzantine-delay"} {
		spec, ok := Builtin(name)
		if !ok {
			t.Fatalf("builtin %q missing", name)
		}
		render := func(rw int) string {
			var buf bytes.Buffer
			if _, err := Run(spec, Options{Reps: 3, RepWorkers: rw}, exp.NewCSVSink(&buf)); err != nil {
				t.Fatalf("%s repworkers=%d: %v", name, rw, err)
			}
			return buf.String()
		}
		want := render(1)
		for _, rw := range []int{2, 8} {
			if got := render(rw); got != want {
				t.Fatalf("%s: output differs between 1 and %d rep workers", name, rw)
			}
		}
	}
}
