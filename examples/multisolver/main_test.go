package main

import (
	"bytes"
	"strings"
	"testing"
)

// Smoke test: a scaled-down run must report all four populations on each
// of the three functions.
func TestMultisolverExampleRuns(t *testing.T) {
	var buf bytes.Buffer
	run(&buf, 6, 3000)
	out := buf.String()
	for _, f := range []string{"Rosenbrock", "Rastrigin", "Griewank"} {
		if !strings.Contains(out, f+" (dim") {
			t.Fatalf("function %s missing:\n%s", f, out)
		}
	}
	for _, label := range []string{"pso", "de", "es", "mixed"} {
		if got := strings.Count(out, "  "+label+" "); got != 3 {
			t.Fatalf("%q reported %d times, want 3:\n%s", label, got, out)
		}
	}
}
