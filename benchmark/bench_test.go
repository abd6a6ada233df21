package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

// toy returns a copy of w small enough for `go test -race`: 100 nodes and
// 6 ops, no quality bound (a toy run converges nowhere).
func toy(w *workload) *workload {
	t := *w
	t.nodes = min(w.nodes, 100)
	t.warm = min(w.warm, 2)
	t.ops = 6
	t.qualityBound = 0
	if w.name == "campaign-mix" {
		t.ops, t.planLimit = 1, 1
	}
	return &t
}

func TestMain(m *testing.M) {
	kernelBatches = 1
	os.Exit(m.Run())
}

// TestWorkloadsAtToyScale runs every workload untraced and traced: no op
// may fail its check, the tracer must not change the simulation, and a
// repeated pass must reproduce the digest.
func TestWorkloadsAtToyScale(t *testing.T) {
	for _, full := range workloads {
		w := toy(full)
		t.Run(w.name, func(t *testing.T) {
			run := func(setups int, tr *tracer) *pass {
				p := newPass(w, 7, w.ops, setups, tr)
				w.run(p)
				if p.failedOps != 0 {
					t.Fatalf("failed ops: %v", p.failures)
				}
				if len(p.opNs) < w.ops || p.nodeCycles <= 0 || p.measuredNs <= 0 {
					t.Fatalf("ops %d, node-cycles %d, measured %d ns", len(p.opNs), p.nodeCycles, p.measuredNs)
				}
				return p
			}
			plain, again, traced := run(2, nil), run(1, nil), run(1, &tracer{})
			if plain.dig.sum() != again.dig.sum() {
				t.Errorf("digest %016x does not repeat: %016x", plain.dig.sum(), again.dig.sum())
			}
			if plain.dig.sum() != traced.dig.sum() {
				t.Errorf("traced digest %016x differs from untraced %016x", traced.dig.sum(), plain.dig.sum())
			}
			if len(plain.setupNs) != 2 || plain.heapBytes <= 0 {
				t.Errorf("set-ups %v, heap growth %d", plain.setupNs, plain.heapBytes)
			}
			if c := traced.layer["ledger.coverage"]; c < 0.5 || c > 1.05 {
				t.Errorf("ledger.coverage = %v", c)
			}
			if len(traced.tr.spans) < w.ops {
				t.Errorf("%d spans for %d ops", len(traced.tr.spans), w.ops)
			}
			known := map[string]bool{}
			for _, d := range perLayer {
				known[d.name] = true
			}
			for name := range traced.layer {
				if !known[name] {
					t.Errorf("pass produced undeclared metric %q", name)
				}
			}
		})
	}
}

// TestFailedCheckIsCounted plants a violation: a quality bound no run can
// meet must surface as a failed op, not pass silently.
func TestFailedCheckIsCounted(t *testing.T) {
	w := toy(workloadByName("paper-stack"))
	w.qualityBound = 1e-300
	p := newPass(w, 7, w.ops, 1, nil)
	w.run(p)
	if p.failedOps != 1 {
		t.Fatalf("failedOps = %d (%v), want 1", p.failedOps, p.failures)
	}
}

func TestPercentile(t *testing.T) {
	samples := make([]int64, 120)
	for i := range samples {
		samples[i] = int64(120 - i) // 120..1, unsorted on purpose
	}
	for _, c := range []struct {
		p    float64
		want int64
	}{{50, 60}, {90, 108}, {100, 120}, {0.1, 1}} {
		if got := percentile(samples, c.p); got != c.want {
			t.Errorf("percentile(%v) = %d, want %d", c.p, got, c.want)
		}
	}
	if samples[0] != 120 {
		t.Error("percentile reordered its input")
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %d", got)
	}
}

func TestDigest(t *testing.T) {
	a, b, c := newDigest(), newDigest(), newDigest()
	a.op(1, 10, 10, 5, 0, 0.5)
	b.op(1, 10, 10, 5, 0, 0.5)
	c.op(1, 10, 10, 5, 1, 0.5)
	if a.sum() != b.sum() {
		t.Error("equal inputs, different digests")
	}
	if a.sum() == c.sum() {
		t.Error("a changed counter left the digest unchanged")
	}
}

func TestOpsFor(t *testing.T) {
	for _, w := range workloads {
		if got := w.opsFor(declaredSeconds); got != w.ops {
			t.Errorf("%s: opsFor(declared) = %d, want %d", w.name, got, w.ops)
		}
		if got, want := w.opsFor(1), max(w.ops/declaredSeconds, w.minOps); got != want || w.minOps == 0 {
			t.Errorf("%s: opsFor(1) = %d, want %d (floor %d)", w.name, got, want, w.minOps)
		}
	}
}

// contract mirrors BENCHMARK.json.
type contract struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []contractMetric `json:"end_to_end"`
	PerLayer   []contractMetric `json:"per_layer"`
}

type contractMetric struct {
	Name, Unit, Better string
	Bound              *float64
}

// TestNamesMatchContract checks the names and units the code emits against
// BENCHMARK.json, in both directions, and the contract's own limits.
func TestNamesMatchContract(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(data, &c); err != nil {
		t.Fatal(err)
	}
	if c.RunSeconds != declaredSeconds {
		t.Errorf("run_seconds = %d, the op counts are sized for %d", c.RunSeconds, declaredSeconds)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

	if len(c.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d in the code", len(c.Workloads), len(workloads))
	}
	for i, w := range workloads {
		d := c.Workloads[i]
		if d.Name != w.name || d.Why != w.why {
			t.Errorf("workload %d: declared %q (%q), code has %q (%q)", i, d.Name, d.Why, w.name, w.why)
		}
		if !nameRE.MatchString(w.name) || len(w.why) > 200 {
			t.Errorf("workload %q: bad name or a why of %d characters", w.name, len(w.why))
		}
	}

	compare := func(kind string, declared []contractMetric, defs []metricDef, bounded bool) {
		if len(declared) != len(defs) {
			t.Errorf("%s: %d declared, %d in the code", kind, len(declared), len(defs))
		}
		seen := map[string]bool{}
		for i, def := range defs {
			if !nameRE.MatchString(def.name) || !unitRE.MatchString(def.unit) || seen[def.name] {
				t.Errorf("%s %q: bad or repeated name, or bad unit %q", kind, def.name, def.unit)
			}
			seen[def.name] = true
			if i >= len(declared) {
				continue
			}
			d := declared[i]
			if d.Name != def.name || d.Unit != def.unit {
				t.Errorf("%s %d: declared %s [%s], code has %s [%s]", kind, i, d.Name, d.Unit, def.name, def.unit)
			}
			if d.Better != "higher" && d.Better != "lower" {
				t.Errorf("%s %s: better = %q", kind, d.Name, d.Better)
			}
			if bounded != (d.Bound != nil) || (bounded && (*d.Bound <= 0 || *d.Bound > 0.25)) {
				t.Errorf("%s %s: bound %v", kind, d.Name, d.Bound)
			}
		}
	}
	compare("end_to_end", c.EndToEnd, endToEnd, true)
	compare("per_layer", c.PerLayer, perLayer, false)
}
