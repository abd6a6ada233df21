package scenario

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"gossipopt/internal/exp"
)

func TestBuiltinSweepsExpandAndRun(t *testing.T) {
	names := BuiltinSweepNames()
	if len(names) != 3 {
		t.Fatalf("expected 3 built-in sweeps, got %v", names)
	}
	for _, name := range names {
		sw, ok := BuiltinSweep(name)
		if !ok {
			t.Fatalf("BuiltinSweep(%q) missing", name)
		}
		cells, err := sw.Cells()
		if err != nil {
			t.Fatalf("built-in sweep %q does not expand: %v", name, err)
		}
		grid := 1
		for _, ax := range sw.Axes {
			grid *= len(ax.Values)
		}
		if len(cells) != grid {
			t.Fatalf("built-in sweep %q: %d cells, want the full %d-cell grid", name, len(cells), grid)
		}
		var sink captureSink
		res, err := RunSweep(sw, Options{Reps: 2, RepWorkers: 2}, &sink)
		if err != nil {
			t.Fatalf("built-in sweep %q failed: %v", name, err)
		}
		if len(res) != grid {
			t.Fatalf("built-in sweep %q: %d cell results, want %d", name, len(res), grid)
		}
		for _, r := range res {
			if len(r.Sums) != 2 {
				t.Fatalf("%s: %d rep summaries, want 2", r.Cell.Name, len(r.Sums))
			}
			if r.Summary.Reps != 2 || r.Summary.Cell != r.Cell.Name || r.Summary.Sweep != name {
				t.Fatalf("%s: summary mislabeled: %+v", r.Cell.Name, r.Summary)
			}
			if r.Summary.Quality.N != 2 || math.IsNaN(r.Summary.Quality.Mean) {
				t.Fatalf("%s: quality not aggregated: %+v", r.Cell.Name, r.Summary.Quality)
			}
			if r.Summary.Threshold == nil || r.Summary.Reached+r.Summary.Censored != 2 {
				t.Fatalf("%s: threshold accounting off: %+v", r.Cell.Name, r.Summary)
			}
		}
	}
	if _, ok := BuiltinSweep("no-such"); ok {
		t.Fatal("unknown builtin sweep found")
	}
}

// TestSweepCellOrderDeterministic pins the expansion order: row-major,
// last axis fastest — so output order is a function of the spec alone.
func TestSweepCellOrderDeterministic(t *testing.T) {
	sw := SweepSpec{
		Name: "grid",
		Base: Spec{Nodes: 8, Stop: Stop{Cycles: 5}},
		Axes: []Axis{
			{Name: "a", Path: "nodes", Values: []AxisValue{{Value: raw(`8`)}, {Value: raw(`16`)}}},
			{Name: "b", Path: "stack.view_size", Values: []AxisValue{{Value: raw(`1`)}, {Value: raw(`2`)}, {Value: raw(`3`)}}},
		},
	}
	cells, err := sw.Cells()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"grid/a=8,b=1", "grid/a=8,b=2", "grid/a=8,b=3",
		"grid/a=16,b=1", "grid/a=16,b=2", "grid/a=16,b=3",
	}
	if len(cells) != len(want) {
		t.Fatalf("%d cells, want %d", len(cells), len(want))
	}
	for i, c := range cells {
		if c.Name != want[i] || c.Index != i {
			t.Fatalf("cell %d is %q (index %d), want %q", i, c.Name, c.Index, want[i])
		}
	}
	again, _ := sw.Cells()
	for i := range cells {
		if again[i].Name != cells[i].Name {
			t.Fatalf("expansion not deterministic at cell %d", i)
		}
	}
}

// TestSweepOverrideDeepMerge pins the merge semantics: nested objects
// merge field-by-field, arrays and scalars replace, null resets to the
// default, and sibling fields of the base survive.
func TestSweepOverrideDeepMerge(t *testing.T) {
	sw := SweepSpec{
		Name: "merge",
		Base: Spec{
			Nodes: 16,
			Seed:  9,
			Stack: Stack{Function: "Rastrigin", Particles: 4},
			Timeline: []Event{
				{At: 1, Action: "partition", Groups: 2},
				{At: 2, Action: "heal"},
			},
			Stop: Stop{Cycles: 10},
		},
		Axes: []Axis{{Name: "v", Values: []AxisValue{{Label: "x", Value: raw(`{
			"stack": {"function": "Sphere"},
			"timeline": [{"at": 3, "action": "heal"}],
			"nodes": null
		}`)}}}},
	}
	cells, err := sw.Cells()
	if err != nil {
		t.Fatal(err)
	}
	s := cells[0].Spec
	if s.Stack.Function != "Sphere" {
		t.Fatalf("merged field not applied: %+v", s.Stack)
	}
	if s.Stack.Particles != 4 || s.Seed != 9 {
		t.Fatalf("sibling fields did not survive the merge: %+v", s)
	}
	if len(s.Timeline) != 1 || s.Timeline[0].At != 3 {
		t.Fatalf("array should replace, not merge: %+v", s.Timeline)
	}
	if s.Nodes != 64 {
		t.Fatalf("null should reset nodes to the default (64): %d", s.Nodes)
	}
}

func TestSweepPathOverrides(t *testing.T) {
	sw := SweepSpec{
		Name: "paths",
		Base: Spec{Nodes: 8, Stop: Stop{Cycles: 5}},
		Axes: []Axis{
			{Name: "topo", Path: "stack.topology", Values: []AxisValue{{Value: raw(`"random"`)}}},
			{Name: "tl", Path: "timeline", Values: []AxisValue{
				{Label: "split", Value: raw(`[{"at":1,"action":"partition","groups":2}]`)},
			}},
		},
	}
	cells, err := sw.Cells()
	if err != nil {
		t.Fatal(err)
	}
	s := cells[0].Spec
	if s.Stack.Topology != "random" {
		t.Fatalf("dotted path not applied: %+v", s.Stack)
	}
	if len(s.Timeline) != 1 || s.Timeline[0].Action != "partition" {
		t.Fatalf("top-level path not applied: %+v", s.Timeline)
	}
	if cells[0].Name != "paths/topo=random,tl=split" {
		t.Fatalf("cell name wrong: %q", cells[0].Name)
	}
}

func TestSweepRejectsBadSpecs(t *testing.T) {
	cases := map[string]string{
		"missing name":      `{"base":{"nodes":4},"axes":[{"name":"a","path":"nodes","values":[{"value":8}]}]}`,
		"no axes":           `{"name":"x","base":{"nodes":4}}`,
		"axis without name": `{"name":"x","axes":[{"path":"nodes","values":[{"value":8}]}]}`,
		"duplicate axis":    `{"name":"x","axes":[{"name":"a","path":"nodes","values":[{"value":8}]},{"name":"a","path":"seed","values":[{"value":1}]}]}`,
		"axis no values":    `{"name":"x","axes":[{"name":"a","path":"nodes"}]}`,
		"empty value":       `{"name":"x","axes":[{"name":"a","path":"nodes","values":[{"label":"v"}]}]}`,
		"unknown field":     `{"name":"x","axez":[]}`,
		"unknown leaf":      `{"name":"x","axes":[{"name":"a","path":"stack.topologyy","values":[{"value":"random"}]}]}`,
		"path through leaf": `{"name":"x","axes":[{"name":"a","path":"nodes.deep","values":[{"value":1}]}]}`,
		"empty path seg":    `{"name":"x","axes":[{"name":"a","path":"stack..topology","values":[{"value":"random"}]}]}`,
		"merge non-object":  `{"name":"x","axes":[{"name":"a","values":[{"value":7}]}]}`,
		"invalid cell spec": `{"name":"x","axes":[{"name":"a","path":"stack.topology","values":[{"value":"hypercube"}]}]}`,
		"NaN-free":          `{"name":"x","threshold":"nan","axes":[{"name":"a","path":"nodes","values":[{"value":8}]}]}`,
		"seed axis":         `{"name":"x","axes":[{"name":"a","path":"seed","values":[{"value":1},{"value":2}]}]}`,
		"duplicate value":   `{"name":"x","axes":[{"name":"a","path":"nodes","values":[{"value":8},{"value":8}]}]}`,
		"duplicate label":   `{"name":"x","axes":[{"name":"a","values":[{"label":"v","value":{}},{"label":"v","value":{"nodes":8}}]}]}`,
		"seed via merge":    `{"name":"x","base":{"seed":7},"axes":[{"name":"a","values":[{"label":"reset","value":{"seed":null}}]}]}`,
	}
	for label, raw := range cases {
		if _, err := ParseSweep([]byte(raw)); err == nil {
			t.Errorf("%s: accepted %s", label, raw)
		}
	}
	good := `{"name":"ok","base":{"nodes":8,"stop":{"cycles":5}},
		"axes":[{"name":"n","path":"nodes","values":[{"value":8},{"value":16}]}],"reps":2,"threshold":0.5}`
	sw, err := ParseSweep([]byte(good))
	if err != nil {
		t.Fatalf("valid sweep rejected: %v", err)
	}
	if sw.Reps != 2 || sw.Threshold == nil || *sw.Threshold != 0.5 {
		t.Fatalf("sweep fields not decoded: %+v", sw)
	}
}

// TestSweepGridCap: a grid larger than maxSweepCells is rejected rather
// than silently queueing days of work.
func TestSweepGridCap(t *testing.T) {
	vals := make([]AxisValue, 70)
	for i := range vals {
		vals[i] = AxisValue{Value: raw(strconv.Itoa(i + 1))}
	}
	sw := SweepSpec{
		Name: "huge",
		Axes: []Axis{
			{Name: "a", Path: "nodes", Values: vals},
			{Name: "b", Path: "stack.view_size", Values: vals},
		},
	}
	if _, err := sw.Cells(); err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("oversized grid accepted: %v", err)
	}
}

// TestSweepDoesNotMutateBase: expanding cells must not leak overrides
// into the shared base or across sibling cells.
func TestSweepDoesNotMutateBase(t *testing.T) {
	sw := SweepSpec{
		Name: "isolate",
		Base: Spec{Nodes: 8, Stack: Stack{Function: "Rastrigin"}, Stop: Stop{Cycles: 5}},
		Axes: []Axis{{Name: "f", Path: "stack.function", Values: []AxisValue{
			{Value: raw(`"Sphere"`)}, {Value: raw(`"Griewank"`)},
		}}},
	}
	cells, err := sw.Cells()
	if err != nil {
		t.Fatal(err)
	}
	if cells[0].Spec.Stack.Function != "Sphere" || cells[1].Spec.Stack.Function != "Griewank" {
		t.Fatalf("overrides bled across cells: %q vs %q", cells[0].Spec.Stack.Function, cells[1].Spec.Stack.Function)
	}
	if sw.Base.Stack.Function != "Rastrigin" {
		t.Fatalf("base mutated: %+v", sw.Base.Stack)
	}
}

// TestSweepWorkerInvariance is the tentpole guarantee: the full sweep
// byte stream is identical for any pool size and engine worker count.
func TestSweepWorkerInvariance(t *testing.T) {
	sw, _ := BuiltinSweep("overlay-vs-churn")
	render := func(repWorkers, workers int) (string, []SweepCellResult) {
		var buf bytes.Buffer
		res, err := RunSweep(sw, Options{Reps: 3, RepWorkers: repWorkers, Workers: workers}, exp.NewCSVSink(&buf))
		if err != nil {
			t.Fatalf("repworkers=%d: %v", repWorkers, err)
		}
		return buf.String(), res
	}
	one, oneRes := render(1, 1)
	if strings.Count(one, "\n") < 4*3*2 {
		t.Fatalf("suspiciously little sweep output:\n%s", one)
	}
	for _, w := range []int{2, 8} {
		got, gotRes := render(w, 2)
		if got != one {
			t.Fatalf("sweep bytes differ between repworkers=1 and repworkers=%d", w)
		}
		for i := range oneRes {
			// The engine-stats aggregate is worker-variant (wall times,
			// shard spread); its deterministic counters must still agree.
			a, b := oneRes[i].Summary, gotRes[i].Summary
			if a.Engine == nil || b.Engine == nil {
				t.Fatalf("cell %d: missing engine summary at repworkers=%d", i, w)
			}
			if a.Engine.ApplyRounds != b.Engine.ApplyRounds || a.Engine.ApplyJobs != b.Engine.ApplyJobs ||
				a.Engine.LiveRebuilds != b.Engine.LiveRebuilds {
				t.Fatalf("cell %d engine counters differ at repworkers=%d:\n%+v\n%+v", i, w, a.Engine, b.Engine)
			}
			a.Engine, b.Engine = nil, nil
			if a != b {
				t.Fatalf("cell %d summary differs at repworkers=%d:\n%+v\n%+v", i, w, a, b)
			}
			for j := range oneRes[i].Sums {
				sa, sb := oneRes[i].Sums[j], gotRes[i].Sums[j]
				stripWorkerVariantStats(&sa.Stats)
				stripWorkerVariantStats(&sb.Stats)
				if !reflect.DeepEqual(sa, sb) {
					t.Fatalf("cell %d rep %d summary differs at repworkers=%d:\n%+v\n%+v", i, j, w, sa, sb)
				}
			}
		}
	}
}

// TestSweepCellZeroMatchesCampaign: cell 0's repetition seeds equal a
// plain campaign's (one seed mixer, exp.SeedFor, for both paths).
func TestSweepCellZeroMatchesCampaign(t *testing.T) {
	sw := SweepSpec{
		Name: "seeds",
		Base: Spec{Nodes: 8, Seed: 77, MetricsEvery: 5, Stop: Stop{Cycles: 10}},
		Axes: []Axis{{Name: "n", Path: "nodes", Values: []AxisValue{{Value: raw(`8`)}, {Value: raw(`12`)}}}},
	}
	res, err := RunSweep(sw, Options{Reps: 3}, exp.DiscardSink{})
	if err != nil {
		t.Fatal(err)
	}
	spec := sw.Base
	spec.Name = "campaign"
	sums, err := Run(spec, Options{Reps: 3}, exp.DiscardSink{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range sums {
		if res[0].Sums[i].Seed != sums[i].Seed {
			t.Fatalf("cell 0 rep %d seed %d differs from campaign seed %d", i, res[0].Sums[i].Seed, sums[i].Seed)
		}
		if res[0].Sums[i].Quality != sums[i].Quality {
			t.Fatalf("cell 0 rep %d diverged from the plain campaign", i)
		}
	}
	if res[1].Sums[0].Seed == res[0].Sums[0].Seed {
		t.Fatal("distinct cells share repetition seeds")
	}
}

// TestSweepThresholdAccounting: a loose threshold is reached at the
// first sample of every repetition; an unreachable one censors them all.
func TestSweepThresholdAccounting(t *testing.T) {
	mk := func(th float64) SweepSpec {
		return SweepSpec{
			Name:      "th",
			Base:      Spec{Nodes: 8, Seed: 3, MetricsEvery: 5, Stop: Stop{Cycles: 10}},
			Axes:      []Axis{{Name: "n", Path: "nodes", Values: []AxisValue{{Value: raw(`8`)}}}},
			Threshold: &th,
		}
	}
	res, err := RunSweep(mk(1e18), Options{Reps: 2}, exp.DiscardSink{})
	if err != nil {
		t.Fatal(err)
	}
	s := res[0].Summary
	if s.Reached != 2 || s.Censored != 0 {
		t.Fatalf("loose threshold not reached: %+v", s)
	}
	if s.ToThreshold.Mean != 5 {
		t.Fatalf("loose threshold should be reached at the first sample (time 5): %+v", s.ToThreshold)
	}
	res, err = RunSweep(mk(-1), Options{Reps: 2}, exp.DiscardSink{})
	if err != nil {
		t.Fatal(err)
	}
	s = res[0].Summary
	if s.Reached != 0 || s.Censored != 2 || s.ToThreshold.N != 0 {
		t.Fatalf("impossible threshold not censored: %+v", s)
	}
}

// TestSweepRowsAreCellThenRepOrdered pins the emission contract: rows
// grouped by cell in grid order, repetitions in order within a cell.
func TestSweepRowsAreCellThenRepOrdered(t *testing.T) {
	sw := SweepSpec{
		Name: "order",
		Base: Spec{Nodes: 8, Seed: 5, MetricsEvery: 5, Stop: Stop{Cycles: 10}},
		Axes: []Axis{{Name: "n", Path: "nodes", Values: []AxisValue{{Value: raw(`8`)}, {Value: raw(`12`)}}}},
	}
	var sink captureSink
	if _, err := RunSweep(sw, Options{Reps: 2, RepWorkers: 4}, &sink); err != nil {
		t.Fatal(err)
	}
	type key struct {
		cell string
		rep  int
	}
	var order []key
	for _, r := range sink.recs {
		k := key{r.Scenario, r.Rep}
		if len(order) == 0 || order[len(order)-1] != k {
			order = append(order, k)
		}
	}
	want := []key{
		{"order/n=8", 0}, {"order/n=8", 1},
		{"order/n=12", 0}, {"order/n=12", 1},
	}
	if len(order) != len(want) {
		t.Fatalf("row grouping %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("row grouping %v, want %v", order, want)
		}
	}
}

// TestSweepShowRoundTrips: a built-in sweep marshals to JSON that
// ParseSweep accepts — the -show/-spec workflow.
func TestSweepShowRoundTrips(t *testing.T) {
	for _, name := range BuiltinSweepNames() {
		sw, _ := BuiltinSweep(name)
		data, err := json.Marshal(sw)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ParseSweep(data); err != nil {
			t.Fatalf("built-in sweep %q does not round-trip: %v", name, err)
		}
	}
}
