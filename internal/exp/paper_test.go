package exp_test

import (
	"os"
	"path/filepath"
	"testing"

	"gossipopt/internal/scenario"
)

// paperCells expands paper/<name>.json, the sweep file that reproduces one
// of the paper's experiment sets.
func paperCells(t *testing.T, name string) []scenario.SweepCell {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "paper", name+".json"))
	if err != nil {
		t.Fatal(err)
	}
	sw, err := scenario.ParseSweep(data)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	cells, err := sw.Cells()
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return cells
}

func TestExperimentCellCounts(t *testing.T) {
	if got := len(paperCells(t, "table1")); got != 6*4*5 {
		t.Fatalf("E1 cells = %d, want 120", got)
	}
	if got := len(paperCells(t, "table2")); got != 6*17*4 {
		t.Fatalf("E2 cells = %d, want 408", got)
	}
	if got := len(paperCells(t, "table3")); got != 6*3*17 {
		t.Fatalf("E3 cells = %d, want 306", got)
	}
	if got := len(paperCells(t, "table4")); got != 6*11*4 {
		t.Fatalf("E4 cells = %d, want 264", got)
	}
}

func TestExperimentParamsMatchPaper(t *testing.T) {
	for _, c := range paperCells(t, "table1") {
		s := c.Spec
		if s.Stack.GossipEvery != s.Stack.Particles {
			t.Fatalf("E1 cell %s: r != k", c.Name)
		}
		if s.Stop.MaxEvals != int64(s.Nodes)*1000 {
			t.Fatalf("E1 cell %s: budget %d != 1000n", c.Name, s.Stop.MaxEvals)
		}
	}
	for _, c := range paperCells(t, "table2") {
		if c.Spec.Stop.MaxEvals != 1<<20 {
			t.Fatalf("E2 cell %s: budget %d != 2^20", c.Name, c.Spec.Stop.MaxEvals)
		}
	}
	for _, c := range paperCells(t, "table4") {
		if q := c.Spec.Stop.Quality; q == nil || *q != 1e-10 {
			t.Fatalf("E4 cell %s: threshold %v", c.Name, q)
		}
	}
}
