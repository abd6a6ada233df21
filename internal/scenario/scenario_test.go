package scenario

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"

	"gossipopt/internal/exp"
)

// captureSink records every emitted Record for inspection.
type captureSink struct{ recs []exp.Record }

func (s *captureSink) Emit(r exp.Record) error { s.recs = append(s.recs, r); return nil }
func (s *captureSink) Flush() error            { return nil }

func TestBuiltinsNormalize(t *testing.T) {
	names := BuiltinNames()
	if len(names) != 14 {
		t.Fatalf("expected 14 built-ins, got %v", names)
	}
	for _, name := range names {
		s, ok := Builtin(name)
		if !ok {
			t.Fatalf("Builtin(%q) missing", name)
		}
		if _, err := s.normalized(); err != nil {
			t.Fatalf("built-in %q does not validate: %v", name, err)
		}
	}
	if _, ok := Builtin("no-such"); ok {
		t.Fatal("unknown builtin found")
	}
}

func TestAllBuiltinsRun(t *testing.T) {
	for _, name := range BuiltinNames() {
		spec, _ := Builtin(name)
		var sink captureSink
		sums, err := Run(spec, Options{Workers: 2}, &sink)
		if err != nil {
			t.Fatalf("built-in %q failed: %v", name, err)
		}
		if len(sums) != 1 {
			t.Fatalf("built-in %q: %d summaries, want 1", name, len(sums))
		}
		s := sums[0]
		if spec.Stack.Protocol == "" || spec.Stack.Protocol == ProtocolOpt {
			if s.Evals == 0 || math.IsInf(s.Quality, 0) {
				t.Fatalf("built-in %q produced no work: %+v", name, s)
			}
			continue
		}
		// Epidemic protocols perform no objective evaluations; work shows
		// up as exchanges flowing through the mailbox pipeline instead.
		last := sink.recs[len(sink.recs)-1]
		if last.Exchanges == 0 || last.Delivered == 0 {
			t.Fatalf("built-in %q produced no exchanges: %+v", name, last)
		}
		if math.IsInf(s.Quality, 0) || math.IsNaN(s.Quality) {
			t.Fatalf("built-in %q has no quality metric: %+v", name, s)
		}
	}
}

// TestWorkerInvariance is the subsystem's core guarantee: the same spec +
// seed yields byte-identical metric output at any worker count.
func TestWorkerInvariance(t *testing.T) {
	render := func(workers int) string {
		spec, _ := Builtin("netsplit-heal")
		var buf bytes.Buffer
		if _, err := Run(spec, Options{Reps: 2, Workers: workers}, exp.NewCSVSink(&buf)); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	one := render(1)
	eight := render(8)
	if one != eight {
		t.Fatalf("metric output differs between workers=1 and workers=8:\n--- 1 ---\n%s--- 8 ---\n%s", one, eight)
	}
	if strings.Count(one, "\n") < 3 {
		t.Fatalf("suspiciously little output:\n%s", one)
	}
}

// TestApplyWorkerGridInvariance is the sharded-apply acceptance
// criterion: for every cycle-engine built-in — each bundled protocol
// stack has one — the campaign bytes are identical across the full
// (propose workers × apply workers) ∈ {1,2,8}² grid. Run under -race in
// CI, which also keeps the destination-sharded apply phase honest at the
// high worker counts.
func TestApplyWorkerGridInvariance(t *testing.T) {
	grid := []int{1, 2, 8}
	for _, name := range BuiltinNames() {
		spec, _ := Builtin(name)
		if spec.Engine == EngineEvent {
			continue // single-threaded engine; nothing to vary
		}
		render := func(workers, applyWorkers int) string {
			var buf bytes.Buffer
			if _, err := Run(spec, Options{Workers: workers, applyWorkers: applyWorkers}, exp.NewCSVSink(&buf)); err != nil {
				t.Fatalf("%s workers=%d applyworkers=%d: %v", name, workers, applyWorkers, err)
			}
			return buf.String()
		}
		want := render(1, 1)
		for _, pw := range grid {
			for _, aw := range grid {
				if pw == 1 && aw == 1 {
					continue
				}
				if got := render(pw, aw); got != want {
					t.Fatalf("%s: output differs between 1x1 and %dx%d workers", name, pw, aw)
				}
			}
		}
	}
}

func TestRepSeedsDiffer(t *testing.T) {
	spec, _ := Builtin("baseline")
	sums, err := Run(spec, Options{Reps: 3}, exp.DiscardSink{})
	if err != nil {
		t.Fatal(err)
	}
	if sums[0].Seed == sums[1].Seed || sums[1].Seed == sums[2].Seed {
		t.Fatalf("repetition seeds collide: %+v", sums)
	}
	if sums[0].Quality == sums[1].Quality {
		t.Fatalf("distinct seeds, identical outcomes: %+v", sums)
	}
}

func TestCycleEventsApplied(t *testing.T) {
	spec := Spec{
		Name:  "events",
		Nodes: 10,
		Seed:  9,
		Timeline: []Event{
			{At: 2, Action: "crash", Count: 4},
			{At: 4, Action: "join", Count: 3},
			{At: 6, Action: "revive", Count: 2},
		},
		MetricsEvery: 1,
		Stop:         Stop{Cycles: 8},
	}
	var sink captureSink
	if _, err := Run(spec, Options{}, &sink); err != nil {
		t.Fatal(err)
	}
	liveAt := map[int64]int{}
	for _, r := range sink.recs {
		liveAt[r.Cycle] = r.Live
	}
	// Events fire before the cycle they name: the crash at cycle index 2
	// shows in the sample after that cycle completes (Cycle == 3).
	if liveAt[2] != 10 || liveAt[3] != 6 || liveAt[5] != 9 || liveAt[7] != 11 {
		t.Fatalf("live counts don't trace the script: %v", liveAt)
	}
}

func TestCyclePartitionDropsMessages(t *testing.T) {
	spec := Spec{
		Name:  "split",
		Nodes: 32,
		Seed:  11,
		Timeline: []Event{
			{At: 10, Action: "partition", Groups: 2},
			{At: 30, Action: "heal"},
		},
		MetricsEvery: 10,
		Stop:         Stop{Cycles: 40},
	}
	var sink captureSink
	if _, err := Run(spec, Options{}, &sink); err != nil {
		t.Fatal(err)
	}
	// Newscast crosses the cut constantly, so drops must accumulate
	// during the partition window and delivery must resume after it.
	var at10, at30, at40 exp.Record
	for _, r := range sink.recs {
		switch r.Cycle {
		case 10:
			at10 = r
		case 30:
			at30 = r
		case 40:
			at40 = r
		}
	}
	if at10.Dropped != 0 {
		t.Fatalf("drops before the partition: %+v", at10)
	}
	if at30.Dropped <= at10.Dropped {
		t.Fatalf("no drops during the partition: %+v", at30)
	}
	if at40.Delivered <= at30.Delivered {
		t.Fatalf("delivery did not resume after heal: %+v", at40)
	}
}

func TestEventEngineScenarioRuns(t *testing.T) {
	spec, _ := Builtin("lossy-wan")
	var sink captureSink
	sums, err := Run(spec, Options{}, &sink)
	if err != nil {
		t.Fatal(err)
	}
	if len(sink.recs) == 0 {
		t.Fatal("no metric records emitted")
	}
	last := sink.recs[len(sink.recs)-1]
	if last.Dropped == 0 {
		t.Fatalf("lossy link dropped nothing: %+v", last)
	}
	if sums[0].Time != 300 {
		t.Fatalf("run did not reach the horizon: %+v", sums[0])
	}
}

func TestEventEngineDeterministic(t *testing.T) {
	render := func() string {
		spec, _ := Builtin("latency-spike")
		var buf bytes.Buffer
		if _, err := Run(spec, Options{}, exp.NewJSONLSink(&buf)); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	if render() != render() {
		t.Fatal("event-engine scenario not byte-deterministic")
	}
}

func TestQualityStop(t *testing.T) {
	loose := 1e12 // any evaluated point on Sphere beats this
	spec := Spec{
		Name:         "stop",
		Nodes:        8,
		Seed:         5,
		MetricsEvery: 1,
		Stop:         Stop{Cycles: 100, Quality: &loose},
	}
	sums, err := Run(spec, Options{}, exp.DiscardSink{})
	if err != nil {
		t.Fatal(err)
	}
	if !sums[0].Reached || sums[0].Cycles != 1 {
		t.Fatalf("loose quality threshold did not stop the run: %+v", sums[0])
	}
}

func TestMaxEvalsStop(t *testing.T) {
	spec := Spec{
		Name:  "budget",
		Nodes: 10,
		Seed:  5,
		Stop:  Stop{Cycles: 100, MaxEvals: 30},
	}
	sums, err := Run(spec, Options{}, exp.DiscardSink{})
	if err != nil {
		t.Fatal(err)
	}
	if sums[0].Cycles != 3 || sums[0].Evals != 30 {
		t.Fatalf("eval budget ignored: %+v", sums[0])
	}
}

func TestParseRejectsBadSpecs(t *testing.T) {
	cases := map[string]string{
		"unknown field":        `{"name":"x","nodez":3}`,
		"unknown engine":       `{"name":"x","engine":"quantum"}`,
		"unknown action":       `{"name":"x","timeline":[{"at":1,"action":"meteor"}]}`,
		"unknown function":     `{"name":"x","stack":{"function":"Nope"}}`,
		"unknown topology":     `{"name":"x","stack":{"topology":"hypercube"}}`,
		"unknown solver":       `{"name":"x","stack":{"solvers":["sgd"]}}`,
		"retired solver":       `{"name":"x","stack":{"solvers":["ga"]}}`,
		"fractional cycle":     `{"name":"x","timeline":[{"at":1.5,"action":"heal"}]}`,
		"join on event":        `{"name":"x","engine":"event","timeline":[{"at":1,"action":"join","count":1}]}`,
		"set-link on cycle":    `{"name":"x","timeline":[{"at":1,"action":"set-link"}]}`,
		"tiny partition":       `{"name":"x","timeline":[{"at":1,"action":"partition","groups":1}]}`,
		"missing name":         `{"nodes":3}`,
		"crash without size":   `{"name":"x","timeline":[{"at":1,"action":"crash"}]}`,
		"stop.time on cycle":   `{"name":"x","stop":{"time":50}}`,
		"stop.cycles on event": `{"name":"x","engine":"event","stop":{"cycles":50}}`,
		"fractional metrics":   `{"name":"x","metrics_every":2.5}`,
		"huge metrics":         `{"name":"x","metrics_every":1e300}`,
		"too many joins":       `{"name":"x","nodes":64,"timeline":[{"at":1,"action":"join","count":536870849}]}`,
		"event past stop":      `{"name":"x","stop":{"cycles":100},"timeline":[{"at":150,"action":"heal"}]}`,
		"event past horizon":   `{"name":"x","engine":"event","stop":{"time":100},"timeline":[{"at":150,"action":"heal"}]}`,
		"drop_prob on event":   `{"name":"x","engine":"event","stack":{"drop_prob":0.3}}`,
		"eval_time on cycle":   `{"name":"x","stack":{"eval_time":2}}`,
		"link on cycle":        `{"name":"x","stack":{"link":{"loss_prob":0.1}}}`,
		"negative delay":       `{"name":"x","engine":"event","stack":{"link":{"min_delay":-5}}}`,
		"loss_prob over 1":     `{"name":"x","engine":"event","timeline":[{"at":1,"action":"set-link","link":{"loss_prob":1.5}}]}`,
		"oneway on heal":       `{"name":"x","timeline":[{"at":1,"action":"heal","oneway":true}]}`,
		"oneway on crash":      `{"name":"x","timeline":[{"at":1,"action":"crash","count":1,"oneway":true}]}`,
	}
	for label, raw := range cases {
		if _, err := Parse([]byte(raw)); err == nil {
			t.Errorf("%s: accepted %s", label, raw)
		}
	}
	// A retired solver name fails like any unknown one, listing the paper's
	// three solvers.
	if _, err := Parse([]byte(cases["retired solver"])); err == nil || !strings.Contains(err.Error(), "de, es, pso") {
		t.Errorf("retired solver: error %v does not name de, es, pso", err)
	}
	good := `{"name":"ok","nodes":12,"timeline":[{"at":3,"action":"partition","groups":2},{"at":1,"action":"crash","fraction":0.5}]}`
	s, err := Parse([]byte(good))
	if err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	if s.Timeline[0].Action != "crash" {
		t.Fatalf("timeline not sorted by At: %+v", s.Timeline)
	}
	if s.Stack.Topology != "newscast" || s.Stop.Cycles != 200 {
		t.Fatalf("defaults not applied: %+v", s)
	}
}

// TestParseStampLimits pins the run lengths an overlay view can stamp: its
// entries hold int32 stamps, the cycle on the cycle engine and time·1024 on
// the event engine. The sampling interval is held to the same cycle limit,
// and the initial nodes plus every join to the IDs the engine's arena can
// issue. A spec past a limit is a parse error naming it, and the limit
// itself parses.
func TestParseStampLimits(t *testing.T) {
	for _, tc := range []struct{ raw, limit string }{
		{`{"name":"x","stop":{"cycles":2147483648}}`, "2147483647"},
		{`{"name":"x","engine":"event","stop":{"time":2097152}}`, "2097151.999"},
		{`{"name":"x","metrics_every":2147483648}`, "2147483647"},
		{`{"name":"x","metrics_every":1e300}`, "2147483647"},
		{`{"name":"x","nodes":536870913}`, "536870912"},
		{`{"name":"x","nodes":536870000,"timeline":[{"at":1,"action":"join","count":900},{"at":2,"action":"join","count":13}]}`, "536870912"},
		{`{"name":"x","nodes":2,"timeline":[{"at":1,"action":"join","count":9223372036854775807},{"at":2,"action":"join","count":9223372036854775807}]}`, "536870912"},
	} {
		_, err := Parse([]byte(tc.raw))
		if err == nil || !strings.Contains(err.Error(), tc.limit) {
			t.Errorf("%s: error %v, want one naming the limit %s", tc.raw, err, tc.limit)
		}
	}
	for _, raw := range []string{
		`{"name":"x","stop":{"cycles":2147483647}}`,
		`{"name":"x","engine":"event","stop":{"time":2097151.9990234375}}`,
		`{"name":"x","metrics_every":2147483647}`,
		`{"name":"x","nodes":536870000,"timeline":[{"at":1,"action":"join","count":900},{"at":2,"action":"join","count":12}]}`,
	} {
		if _, err := Parse([]byte(raw)); err != nil {
			t.Errorf("%s: rejected at the limit: %v", raw, err)
		}
	}
}

// TestTotalWipeoutThenRecovery: a scripted 100% crash must not end the run
// while a later revive/join is still scheduled — outage-and-recovery is a
// legitimate experiment shape.
func TestTotalWipeoutThenRecovery(t *testing.T) {
	spec := Spec{
		Name:  "blackout",
		Nodes: 12,
		Seed:  13,
		Timeline: []Event{
			{At: 5, Action: "crash", Fraction: 1},
			{At: 15, Action: "revive", Count: 12},
		},
		MetricsEvery: 5,
		Stop:         Stop{Cycles: 30},
	}
	var sink captureSink
	sums, err := Run(spec, Options{}, &sink)
	if err != nil {
		t.Fatal(err)
	}
	if sums[0].Cycles != 30 {
		t.Fatalf("run ended at cycle %d during the scripted outage, want 30", sums[0].Cycles)
	}
	liveAt := map[int64]int{}
	for _, r := range sink.recs {
		liveAt[r.Cycle] = r.Live
	}
	if liveAt[10] != 0 || liveAt[20] != 12 {
		t.Fatalf("outage/recovery not visible in metrics: %v", liveAt)
	}
	// Without a scheduled recovery, the same wipeout ends the run early.
	spec.Timeline = spec.Timeline[:1]
	sums, err = Run(spec, Options{}, exp.DiscardSink{})
	if err != nil {
		t.Fatal(err)
	}
	if sums[0].Cycles >= 30 {
		t.Fatalf("dead network without recovery ran to the horizon: %+v", sums[0])
	}
}

// TestEventReviveActsAtScriptedTime: with every node down, engine time
// idles at the crash; the revive must still re-arm timers at its own
// scripted time, not back-date the restart to when the queue went quiet.
func TestEventReviveActsAtScriptedTime(t *testing.T) {
	spec := Spec{
		Name:   "outage",
		Engine: EngineEvent,
		Nodes:  1,
		Seed:   21,
		Stack:  Stack{Particles: 4, GossipEvery: -1},
		Timeline: []Event{
			{At: 50, Action: "crash", Fraction: 1},
			{At: 150, Action: "revive", Count: 1},
		},
		MetricsEvery: 50,
		Stop:         Stop{Time: 200},
	}
	sums, err := Run(spec, Options{}, exp.DiscardSink{})
	if err != nil {
		t.Fatal(err)
	}
	// One node, EvalTime 1 (jitter 0.8–1.2): ~50 evals before the crash
	// plus ~50 after the revive. A back-dated restart (t≈50 instead of
	// 150) would evaluate through the outage and land near 200.
	if got := sums[0].Evals; got < 70 || got > 140 {
		t.Fatalf("%d evals: revive did not act at its scripted time", got)
	}
}

// TestGossipEveryNegativeDisablesCoordination: a negative gossip_every
// turns coordination off on both engines, so no sample shows an exchange
// or an adoption.
func TestGossipEveryNegativeDisablesCoordination(t *testing.T) {
	for _, js := range []string{
		`{"name":"isolated","nodes":16,"stack":{"gossip_every":-1},"stop":{"cycles":50}}`,
		`{"name":"isolated","engine":"event","nodes":16,"stack":{"gossip_every":-1},"stop":{"time":50}}`,
	} {
		spec, err := Parse([]byte(js))
		if err != nil {
			t.Fatal(err)
		}
		var sink captureSink
		if _, err := Run(spec, Options{}, &sink); err != nil {
			t.Fatal(err)
		}
		if len(sink.recs) == 0 {
			t.Fatalf("%s: no metric records emitted", js)
		}
		for _, r := range sink.recs {
			if r.Exchanges != 0 || r.Adoptions != 0 {
				t.Fatalf("%s: t=%v: %d exchanges, %d adoptions with coordination disabled", js, r.Time, r.Exchanges, r.Adoptions)
			}
		}
		if last := sink.recs[len(sink.recs)-1]; last.Evals == 0 {
			t.Fatalf("%s: the nodes never evaluated: %+v", js, last)
		}
	}
}

// TestSetLinkWithoutLinkRestoresBaseline: ending a storm with a link-less
// set-link must return to the stack's baseline link, not to a perfect
// zero-latency lossless network.
func TestSetLinkWithoutLinkRestoresBaseline(t *testing.T) {
	spec := Spec{
		Name:   "storm-end",
		Engine: EngineEvent,
		Nodes:  8,
		Seed:   33,
		Stack:  Stack{Particles: 4, Link: &Link{LossProb: 1}}, // baseline: total loss
		Timeline: []Event{
			{At: 50, Action: "set-link", Link: &Link{}}, // calm window
			{At: 100, Action: "set-link"},               // back to baseline
		},
		MetricsEvery: 50,
		Stop:         Stop{Time: 150},
	}
	var sink captureSink
	if _, err := Run(spec, Options{}, &sink); err != nil {
		t.Fatal(err)
	}
	d := map[int64]int64{}
	for _, r := range sink.recs {
		d[r.Cycle] = r.Dropped
	}
	if d[1] == 0 {
		t.Fatalf("baseline total loss dropped nothing: %v", d)
	}
	if d[2] != d[1] {
		t.Fatalf("drops during the lossless window: %v", d)
	}
	if d[3] <= d[2] {
		t.Fatalf("link-less set-link left the network perfect instead of restoring the lossy baseline: %v", d)
	}
}

// TestRepParallelByteIdentical is the campaign-parallelism acceptance
// criterion: Reps=8 on a 4-worker pool must emit bytes identical to the
// sequential runner, for the optimizer stack and for anti-entropy.
func TestRepParallelByteIdentical(t *testing.T) {
	for _, name := range []string{"baseline", "antientropy-netsplit"} {
		spec, _ := Builtin(name)
		spec.Stop.Cycles = 60
		render := func(repWorkers int) (string, []RepSummary) {
			var buf bytes.Buffer
			sums, err := Run(spec, Options{Reps: 8, RepWorkers: repWorkers, Workers: 2}, exp.NewCSVSink(&buf))
			if err != nil {
				t.Fatalf("%s repworkers=%d: %v", name, repWorkers, err)
			}
			return buf.String(), sums
		}
		seq, seqSums := render(1)
		par, parSums := render(4)
		if seq != par {
			t.Fatalf("%s: parallel campaign bytes differ from sequential:\n--- seq ---\n%s--- par ---\n%s", name, seq, par)
		}
		if len(seqSums) != len(parSums) {
			t.Fatalf("%s: summary counts differ: %d vs %d", name, len(seqSums), len(parSums))
		}
		for i := range seqSums {
			stripWorkerVariantStats(&seqSums[i].Stats)
			stripWorkerVariantStats(&parSums[i].Stats)
			if !reflect.DeepEqual(seqSums[i], parSums[i]) {
				t.Fatalf("%s rep %d: summaries differ: %+v vs %+v", name, i, seqSums[i], parSums[i])
			}
		}
	}
}

// TestRepParallelOversizedPool: more workers than reps must behave.
func TestRepParallelOversizedPool(t *testing.T) {
	spec, _ := Builtin("baseline")
	spec.Stop.Cycles = 20
	sums, err := Run(spec, Options{Reps: 2, RepWorkers: 16}, exp.DiscardSink{})
	if err != nil {
		t.Fatal(err)
	}
	if len(sums) != 2 || sums[0].Rep != 0 || sums[1].Rep != 1 {
		t.Fatalf("oversized pool mangled summaries: %+v", sums)
	}
}

// TestProtocolScenarioWorkerInvariance extends the worker-invariance
// guarantee to anti-entropy: byte-identical metric output for 1, 2 and 8
// propose workers (run under -race in CI, which also keeps the parallel
// propose phase honest).
func TestProtocolScenarioWorkerInvariance(t *testing.T) {
	for _, name := range []string{"antientropy-netsplit", "antientropy-lossy", "antientropy-churn"} {
		render := func(workers int) string {
			spec, _ := Builtin(name)
			var buf bytes.Buffer
			if _, err := Run(spec, Options{Workers: workers}, exp.NewCSVSink(&buf)); err != nil {
				t.Fatalf("%s workers=%d: %v", name, workers, err)
			}
			return buf.String()
		}
		one := render(1)
		if two := render(2); two != one {
			t.Fatalf("%s: output differs between workers=1 and workers=2", name)
		}
		if eight := render(8); eight != one {
			t.Fatalf("%s: output differs between workers=1 and workers=8", name)
		}
	}
}

// TestAntiEntropyNetsplitScenario: while the cut holds the maximum (node
// 63) saturates its own island and no more, so quality reads exactly 0.5,
// with cross-partition exchanges counted as drops; within a few cycles of
// the heal every node holds it.
func TestAntiEntropyNetsplitScenario(t *testing.T) {
	spec, _ := Builtin("antientropy-netsplit")
	var sink captureSink
	if _, err := Run(spec, Options{}, &sink); err != nil {
		t.Fatal(err)
	}
	heal := int64(spec.Timeline[1].At)
	for _, r := range sink.recs {
		// The heal fires before the cycle it names, so the sample at the
		// heal's cycle is still inside the cut.
		if r.Cycle >= heal/2 && r.Cycle <= heal && r.Quality != 0.5 {
			t.Fatalf("cycle %d, inside the cut: quality %v, want 0.5", r.Cycle, r.Quality)
		}
		if r.Cycle >= heal+10 && r.Quality != 0 {
			t.Fatalf("cycle %d, 10 cycles after the heal: quality %v, want 0", r.Cycle, r.Quality)
		}
	}
	if during := sink.recs[heal/int64(spec.MetricsEvery)-1]; during.Dropped == 0 {
		t.Fatalf("no drops while partitioned: %+v", during)
	}
}

// TestAntiEntropyLossyScenario: 30% loss slows diffusion but every live
// node still converges to the best value.
func TestAntiEntropyLossyScenario(t *testing.T) {
	spec, _ := Builtin("antientropy-lossy")
	var sink captureSink
	sums, err := Run(spec, Options{}, &sink)
	if err != nil {
		t.Fatal(err)
	}
	if sums[0].Quality != 0 {
		t.Fatalf("anti-entropy did not converge: quality %v", sums[0].Quality)
	}
	final := sink.recs[len(sink.recs)-1]
	if final.Lost == 0 {
		t.Fatalf("30%% drop probability lost nothing: %+v", final)
	}
}

// TestAntiEntropyOnewayScenario: under the one-way cut the odd island's
// maximum (node 63) cannot reach the even island — only low→high pushes
// cross — so quality plateaus at ~0.5 while the cut holds; after the heal
// the epidemic floods and quality reaches 0.
func TestAntiEntropyOnewayScenario(t *testing.T) {
	spec, _ := Builtin("antientropy-oneway")
	var sink captureSink
	sums, err := Run(spec, Options{}, &sink)
	if err != nil {
		t.Fatal(err)
	}
	// The heal event (At: 30) fires before cycle 30 runs, so the cycle-20
	// sample is the last one taken wholly inside the cut.
	during := sink.recs[1]
	if during.Cycle != 20 {
		t.Fatalf("expected the cycle-20 sample, got %+v", during)
	}
	if during.Quality < 0.45 {
		t.Fatalf("one-way cut leaked the odd island's maximum into the even island: quality %v at cycle 20", during.Quality)
	}
	if during.Dropped == 0 {
		t.Fatalf("one-way cut dropped nothing: %+v", during)
	}
	if sums[0].Quality != 0 {
		t.Fatalf("epidemic did not converge after the heal: final quality %v", sums[0].Quality)
	}
}

// TestAntiEntropyChurnScenario: nodes that crash mid-diffusion restart
// holding their stale values, so quality rises at the revival, and every
// node holds the best live value again within a few cycles.
func TestAntiEntropyChurnScenario(t *testing.T) {
	spec, _ := Builtin("antientropy-churn")
	var sink captureSink
	sums, err := Run(spec, Options{}, &sink)
	if err != nil {
		t.Fatal(err)
	}
	revive := int64(spec.Timeline[1].At)
	before, after := sink.recs[revive-1], sink.recs[revive]
	if before.Quality != 0 || after.Quality <= 0 {
		t.Fatalf("quality %v before the revival and %v after it, want 0 and > 0", before.Quality, after.Quality)
	}
	if sums[0].Quality != 0 {
		t.Fatalf("revived nodes did not catch up: final quality %v", sums[0].Quality)
	}
	if final := sink.recs[len(sink.recs)-1]; final.Dropped == 0 || final.Lost == 0 {
		t.Fatalf("crash wave produced no failed contacts: %+v", final)
	}
}

// TestNetsplitAcrossProtocols is the acceptance-criteria check that a
// netsplit scenario over each protocol reports Dropped > 0 — the
// traffic that used to bypass the delivery filter under the legacy
// NextCycle contract is now visibly blocked at the cut. (Zero state
// leakage is asserted where protocol state is inspectable: the partition-
// isolation tests in internal/gossip and internal/overlay.)
func TestNetsplitAcrossProtocols(t *testing.T) {
	for _, proto := range []string{ProtocolOpt, ProtocolAntiEntropy} {
		spec := Spec{
			Name:         "split-" + proto,
			Nodes:        32,
			Seed:         41,
			Stack:        Stack{Protocol: proto},
			Timeline:     []Event{{At: 0, Action: "partition", Groups: 2}},
			MetricsEvery: 10,
			Stop:         Stop{Cycles: 30},
		}
		var sink captureSink
		if _, err := Run(spec, Options{}, &sink); err != nil {
			t.Fatalf("%s: %v", proto, err)
		}
		final := sink.recs[len(sink.recs)-1]
		if final.Dropped == 0 {
			t.Fatalf("%s: partition dropped nothing: %+v", proto, final)
		}
		if final.Delivered == 0 {
			t.Fatalf("%s: same-island traffic did not flow: %+v", proto, final)
		}
	}
}

func TestProtocolSpecValidation(t *testing.T) {
	cases := map[string]string{
		"unknown protocol":     `{"name":"x","stack":{"protocol":"plague"}}`,
		"protocol on event":    `{"name":"x","engine":"event","stack":{"protocol":"antientropy"}}`,
		"solvers with ae":      `{"name":"x","stack":{"protocol":"antientropy","solvers":["pso"]}}`,
		"function with ae":     `{"name":"x","stack":{"protocol":"antientropy","function":"Sphere"}}`,
		"particles with ae":    `{"name":"x","stack":{"protocol":"antientropy","particles":8}}`,
		"drop_prob over 1":     `{"name":"x","stack":{"protocol":"antientropy","drop_prob":3}}`,
		"drop_prob negative":   `{"name":"x","stack":{"drop_prob":-0.1}}`,
		"max_evals with ae":    `{"name":"x","stack":{"protocol":"antientropy"},"stop":{"max_evals":10}}`,
		"gossip_every with ae": `{"name":"x","stack":{"protocol":"antientropy","gossip_every":4}}`,
		"dim with antientropy": `{"name":"x","stack":{"protocol":"antientropy","dim":3}}`,
	}
	for label, raw := range cases {
		if _, err := Parse([]byte(raw)); err == nil {
			t.Errorf("%s: accepted %s", label, raw)
		}
	}
	s, err := Parse([]byte(`{"name":"ok","stack":{"protocol":"antientropy","drop_prob":0.1}}`))
	if err != nil {
		t.Fatalf("valid protocol spec rejected: %v", err)
	}
	// Re-normalizing a normalized protocol spec must be a no-op (Run
	// normalizes what Parse already returned).
	if again, err := s.normalized(); err != nil || !reflect.DeepEqual(again, s) {
		t.Fatalf("re-normalization changed or rejected a normalized spec: %v", err)
	}
	if got := ProtocolNames(); !reflect.DeepEqual(got, []string{ProtocolAntiEntropy, ProtocolOpt}) {
		t.Fatalf("ProtocolNames() = %v", got)
	}
}

// TestRetiredInputsRejected: the protocols, topology and tuning fields of
// the retired T-Man, rumor-mongering and Cyclon services fail loudly in a
// scenario file and in a sweep file (base or axis), with an error that
// names the valid values or the unknown field.
func TestRetiredInputsRejected(t *testing.T) {
	for _, c := range []struct{ stack, want string }{
		{`{"protocol":"rumor"}`, "available: antientropy, opt"},
		{`{"protocol":"tman"}`, "available: antientropy, opt"},
		{`{"topology":"cyclon"}`, "available: full, newscast, random, ring, star"},
		{`{"fanout":2}`, `unknown field "fanout"`},
		{`{"stop_prob":0.05}`, `unknown field "stop_prob"`},
		{`{"tman_c":4}`, `unknown field "tman_c"`},
	} {
		spec := `{"name":"x","stack":` + c.stack + `}`
		_, err := Parse([]byte(spec))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Parse(%s) = %v, want an error naming %q", spec, err, c.want)
		}
		for _, sw := range []string{
			`{"name":"x","base":{"stack":` + c.stack + `},"axes":[{"name":"n","path":"nodes","values":[{"value":8}]}]}`,
			`{"name":"x","axes":[{"name":"s","path":"stack","values":[{"value":` + c.stack + `}]}]}`,
		} {
			_, err := ParseSweep([]byte(sw))
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("ParseSweep(%s) = %v, want an error naming %q", sw, err, c.want)
			}
		}
	}
}

// Run re-normalizes internally; the caller's Spec value — including the
// Timeline backing array — must come back untouched.
func TestRunDoesNotMutateCallerSpec(t *testing.T) {
	spec := Spec{
		Name:  "no-mutate",
		Nodes: 8,
		Timeline: []Event{
			{At: 3, Action: "heal"},
			{At: 1, Action: "partition", Groups: 2},
		},
		Stop: Stop{Cycles: 5},
	}
	if _, err := Run(spec, Options{}, exp.DiscardSink{}); err != nil {
		t.Fatal(err)
	}
	if spec.Timeline[0].Action != "heal" || spec.Timeline[1].Action != "partition" {
		t.Fatalf("Run reordered the caller's timeline: %+v", spec.Timeline)
	}
}
