package analysis

import (
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// The fixture driver: each fixture package under testdata/src annotates the
// lines where an analyzer must report with `// want "substring"` comments
// (multiple quoted substrings allowed; `// want+N` shifts the expected line
// N lines down, for diagnostics that land on a line that cannot carry a
// trailing comment, like a waiver line). The driver loads the fixture, runs
// one analyzer, and requires an exact match: every expectation consumed by
// a diagnostic on its line containing the substring, and no diagnostic left
// over.

// wantRe matches a want comment: the optional +N offset, then one or more
// quoted substrings.
var wantRe = regexp.MustCompile(`// want(\+\d+)?((?: "[^"]*")+)`)

// quotedRe extracts the individual quoted substrings.
var quotedRe = regexp.MustCompile(`"([^"]*)"`)

type expectation struct {
	file   string // base filename
	line   int
	substr string
}

// collectWants scans the fixture's comments for want expectations.
func collectWants(t *testing.T, pkg *Package) []expectation {
	t.Helper()
	var wants []expectation
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				line := pos.Line
				if m[1] != "" {
					off, err := strconv.Atoi(m[1])
					if err != nil {
						t.Fatalf("%s: bad want offset %q", pos, m[1])
					}
					line += off
				}
				for _, q := range quotedRe.FindAllStringSubmatch(m[2], -1) {
					wants = append(wants, expectation{
						file:   filepath.Base(pos.Filename),
						line:   line,
						substr: q[1],
					})
				}
			}
		}
	}
	return wants
}

// runFixture loads one fixture package, runs one analyzer over it, and
// compares diagnostics against the want comments.
func runFixture(t *testing.T, a *Analyzer, importPath string) {
	t.Helper()
	pkg, err := loadFixture(filepath.Join("testdata", "src"), importPath)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", importPath, err)
	}
	diags := RunAnalyzers(pkg.Fset, pkg.Files, pkg.Types, pkg.Info, []*Analyzer{a})
	wants := collectWants(t, pkg)

	matched := make([]bool, len(diags))
	for _, w := range wants {
		found := false
		for i, d := range diags {
			if matched[i] {
				continue
			}
			if filepath.Base(d.Pos.Filename) == w.file && d.Pos.Line == w.line &&
				strings.Contains(d.Message, w.substr) {
				matched[i] = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s: missing diagnostic at %s:%d containing %q", importPath, w.file, w.line, w.substr)
		}
	}
	for i, d := range diags {
		if !matched[i] {
			t.Errorf("%s: unexpected diagnostic: %s", importPath, d)
		}
	}
}

func TestDeterminismFixture(t *testing.T) {
	runFixture(t, Determinism, "internal/gossip")
}

func TestDeterminismIgnoresNonTracePackages(t *testing.T) {
	runFixture(t, Determinism, "plain")
}

func TestNodeLocalFixture(t *testing.T) {
	runFixture(t, NodeLocal, "handlers")
}

func TestNodeLocalExemptsEnginePackage(t *testing.T) {
	runFixture(t, NodeLocal, "internal/sim")
}

func TestOwnershipFixture(t *testing.T) {
	runFixture(t, Ownership, "ownfix")
}

func TestSpectatorFixture(t *testing.T) {
	runFixture(t, Spectator, "internal/obs")
}

func TestSpectatorStatsPathFixture(t *testing.T) {
	runFixture(t, Spectator, "statspath")
}
