package lint

import (
	"bufio"
	"bytes"
	"fmt"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// budgetFile is the committed size budget, relative to the repo root.
const budgetFile = "scripts/loc_budget.txt"

// budgetSlack is how far below its budget a count may fall before the
// budget must be lowered: 5%.
const budgetSlack = 0.05

// parseBudgets reads budget lines of the form "<path> <lines>"; blank
// lines and lines starting with # are skipped. A path ending in .go is a
// file budget, any other path a package directory ("." is the root).
func parseBudgets(data []byte) (map[string]int, error) {
	budgets := map[string]int{}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for line := 1; sc.Scan(); line++ {
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) != 2 {
			return nil, fmt.Errorf("line %d: want \"<path> <lines>\", got %q", line, text)
		}
		n, err := strconv.Atoi(fields[1])
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("line %d: bad line count %q", line, fields[1])
		}
		if _, dup := budgets[fields[0]]; dup {
			return nil, fmt.Errorf("line %d: %s budgeted twice", line, fields[0])
		}
		budgets[fields[0]] = n
	}
	return budgets, sc.Err()
}

// lineCounts returns the physical line count of every non-test Go file
// of the main module (keyed by its slash path from the root) and of every
// package directory (the sum over its files). It skips testdata, hidden
// directories and nested modules such as benchmark/.
func lineCounts(root string) (map[string]int, error) {
	counts := map[string]int{}
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p == root {
				return nil
			}
			if d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(p, "go.mod")); err == nil {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		data, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, p)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		n := bytes.Count(data, []byte("\n"))
		counts[rel] = n
		counts[path.Dir(rel)] += n
		return nil
	})
	return counts, err
}

// checkBudgets compares measured counts against budgets and returns one
// message per violation, sorted: a package or budgeted file over its
// line, a package with no line, or a count (0 for a path that is gone)
// more than budgetSlack below its line. Files without a line of their own
// are only counted in their package.
func checkBudgets(counts, budgets map[string]int) []string {
	var bad []string
	for key := range counts {
		if _, ok := budgets[key]; !ok && !strings.HasSuffix(key, ".go") {
			bad = append(bad, fmt.Sprintf("%s: %d lines and no budget line", key, counts[key]))
		}
	}
	for key, budget := range budgets {
		n := counts[key]
		switch {
		case n > budget:
			bad = append(bad, fmt.Sprintf("%s: %d lines, over its budget of %d", key, n, budget))
		case float64(n) < float64(budget)*(1-budgetSlack):
			bad = append(bad, fmt.Sprintf("%s: %d lines, more than %.0f%% below its budget of %d: lower the budget",
				key, n, budgetSlack*100, budget))
		}
	}
	slices.Sort(bad)
	return bad
}

// TestLineBudgets is the repository's size gate: every package of the
// main module has a line budget in scripts/loc_budget.txt, counted over
// its non-test Go files. A change that grows a package raises its line in
// the same diff, and one that shrinks it by more than 5% lowers it, so the
// budget file always states the size the code is meant to have.
func TestLineBudgets(t *testing.T) {
	data, err := os.ReadFile(filepath.Join(repoRoot, budgetFile))
	if err != nil {
		t.Fatal(err)
	}
	budgets, err := parseBudgets(data)
	if err != nil {
		t.Fatalf("%s: %v", budgetFile, err)
	}
	counts, err := lineCounts(repoRoot)
	if err != nil {
		t.Fatal(err)
	}
	for _, msg := range checkBudgets(counts, budgets) {
		t.Errorf("%s: %s", budgetFile, msg)
	}
}

// TestCheckBudgets table-tests the comparison: exact and 5%-shrunk
// counts pass; growth, an unbudgeted package, an un-lowered shrink past
// 5% and a budgeted path that is gone all fail.
func TestCheckBudgets(t *testing.T) {
	budgets := map[string]int{".": 100, "internal/sim": 1000,
		"internal/analysis": 2000, "internal/analysis/ownership.go": 564}
	for _, tc := range []struct {
		name    string
		mutate  func(counts map[string]int)
		wantBad bool
	}{
		{"exact", func(map[string]int) {}, false},
		{"shrunk 5%", func(c map[string]int) { c["internal/sim"] = 950 }, false},
		{"planted +50-line package", func(c map[string]int) { c["internal/planted"] = 50 }, true},
		{"package grew by 50", func(c map[string]int) { c["internal/sim"] += 50 }, true},
		{"budgeted file grew", func(c map[string]int) { c["internal/analysis/ownership.go"]++ }, true},
		{"un-lowered -10% shrink", func(c map[string]int) { c["internal/sim"] = 900 }, true},
		{"budgeted package gone", func(c map[string]int) { delete(c, ".") }, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			counts := map[string]int{"main.go": 100, "internal/sim/sim.go": 1000}
			for key, n := range budgets {
				counts[key] = n
			}
			tc.mutate(counts)
			bad := checkBudgets(counts, budgets)
			if got := len(bad) > 0; got != tc.wantBad {
				t.Fatalf("violations %q, want any: %v", bad, tc.wantBad)
			}
		})
	}
}

// TestParseBudgets rejects malformed and duplicate budget lines.
func TestParseBudgets(t *testing.T) {
	got, err := parseBudgets([]byte("# comment\n\ninternal/sim 10\ninternal/sim/sim.go 5\n"))
	if err != nil || len(got) != 2 || got["internal/sim"] != 10 || got["internal/sim/sim.go"] != 5 {
		t.Fatalf("parse = %v, %v", got, err)
	}
	for _, in := range []string{"internal/sim\n", "internal/sim ten\n", "internal/sim 0\n", "a 1\na 2\n", "a 1 2\n"} {
		if _, err := parseBudgets([]byte(in)); err == nil {
			t.Errorf("parseBudgets(%q) accepted", in)
		}
	}
}
