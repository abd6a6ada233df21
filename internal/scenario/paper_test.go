package scenario

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"gossipopt/internal/exp"
)

// paperDir holds the sweep files that reproduce the paper's experiments.
const paperDir = "../../paper"

// TestPaperSweeps pins the paper's parameters in the sweep files of
// paper/: the cell counts of every grid, the evaluation budget e of every
// cell (1000n, or 2^20 for Table 2), Table 4's threshold and cap, and r = k
// wherever r is not the swept axis. It then runs every file with each cell
// shrunk to at most 4 nodes and 2 000 evaluations, one repetition.
func TestPaperSweeps(t *testing.T) {
	wantCells := map[string]int{
		"table1": 120, "table2": 408, "table3": 306, "table4": 264,
		"ablation-nogossip": 240, "ablation-topology": 24, "ablation-churn": 24,
		"ablation-solvers": 24, "ablation-loss": 30,
	}
	paths, err := filepath.Glob(filepath.Join(paperDir, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != len(wantCells) {
		t.Fatalf("paper/ holds %d sweep files, want %d", len(paths), len(wantCells))
	}
	sort.Strings(paths)
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		sw, err := ParseSweep(data)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		t.Run(sw.Name, func(t *testing.T) {
			want, ok := wantCells[sw.Name]
			if !ok || filepath.Base(path) != sw.Name+".json" {
				t.Fatalf("%s: unexpected sweep %q", path, sw.Name)
			}
			cells, err := sw.Cells()
			if err != nil {
				t.Fatal(err)
			}
			if len(cells) != want {
				t.Fatalf("%d cells, want %d", len(cells), want)
			}
			if sw.Reps != 50 {
				t.Fatalf("reps = %d, want the paper's 50", sw.Reps)
			}
			uncoordinated := 0
			for _, c := range cells {
				checkPaperCell(t, sw, c.Spec)
				if c.Spec.Stack.GossipEvery < 0 {
					uncoordinated++
				}
			}
			wantOff := 0
			if sw.Name == "ablation-nogossip" {
				wantOff = want / 2
			}
			if uncoordinated != wantOff {
				t.Fatalf("%d cells without coordination, want %d", uncoordinated, wantOff)
			}

			small := shrinkSweep(t, sw)
			res, err := RunSweep(small, Options{Reps: 1}, exp.DiscardSink{})
			if err != nil {
				t.Fatal(err)
			}
			if len(res) != want {
				t.Fatalf("shrunk run: %d cell results, want %d", len(res), want)
			}
			for _, r := range res {
				s := r.Sums[0]
				if s.Evals == 0 || (s.Evals < r.Cell.Spec.Stop.MaxEvals && !s.Reached) {
					t.Fatalf("%s stopped early: %+v", r.Cell.Name, s)
				}
				if len(r.Cell.Spec.Timeline) > 0 && r.Summary.Live.Mean >= float64(r.Cell.Spec.Nodes) {
					t.Fatalf("%s: the scripted crash never fired", r.Cell.Name)
				}
			}
		})
	}
}

// checkPaperCell asserts one cell's spec against the paper's parameters.
func checkPaperCell(t *testing.T, sw SweepSpec, s Spec) {
	t.Helper()
	budget := int64(1000 * s.Nodes)
	switch sw.Name {
	case "table2":
		budget = 1 << 20
	case "table4":
		budget = 1 << 20
		if sw.Threshold == nil || *sw.Threshold != 1e-10 || s.Stop.Quality == nil || *s.Stop.Quality != 1e-10 {
			t.Fatalf("%s: threshold and stop.quality must both be 1e-10", s.Name)
		}
	}
	if s.Stop.MaxEvals != budget {
		t.Fatalf("%s: max_evals %d, want %d", s.Name, s.Stop.MaxEvals, budget)
	}
	if sw.Name != "table4" && (sw.Threshold != nil || s.Stop.Quality != nil) {
		t.Fatalf("%s: only table4 stops on quality", s.Name)
	}
	// Every live node spends one evaluation per cycle, so a cycle cap of
	// at least e never binds before the budget does.
	if s.Stop.Cycles < s.Stop.MaxEvals {
		t.Fatalf("%s: stop.cycles %d could bind before max_evals %d", s.Name, s.Stop.Cycles, s.Stop.MaxEvals)
	}
	if s.MetricsEvery < 100 {
		t.Fatalf("%s: metrics_every %v buffers too many rows per repetition", s.Name, s.MetricsEvery)
	}
	r, k := s.Stack.GossipEvery, s.Stack.Particles
	switch {
	case sw.Name == "table3":
		if k != 16 {
			t.Fatalf("%s: k = %d, want 16", s.Name, k)
		}
	case sw.Name == "ablation-nogossip" && r == -1:
	case r != k:
		t.Fatalf("%s: r = %d, want r = k = %d", s.Name, r, k)
	}
}

// shrinkSweep caps every "nodes" at 4 and every "max_evals" at 2000 in the
// sweep's base and axis values, keeping the grid and its labels.
func shrinkSweep(t *testing.T, sw SweepSpec) SweepSpec {
	t.Helper()
	data, err := json.Marshal(sw)
	if err != nil {
		t.Fatal(err)
	}
	var m any
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	caps := map[string]float64{"nodes": 4, "max_evals": 2000}
	var walk func(v any)
	walk = func(v any) {
		switch v := v.(type) {
		case map[string]any:
			for key, e := range v {
				if c, ok := caps[key]; ok {
					if f, ok := e.(float64); ok && f > c {
						v[key] = c
					}
				}
				walk(e)
			}
		case []any:
			for _, e := range v {
				walk(e)
			}
		}
	}
	walk(m)
	if data, err = json.Marshal(m); err != nil {
		t.Fatal(err)
	}
	small, err := ParseSweep(data)
	if err != nil {
		t.Fatalf("shrunk sweep: %v", err)
	}
	return small
}
