package main

import (
	"bytes"
	"strings"
	"testing"
)

// Smoke test: a scaled-down run must tabulate all three gossip rates over
// ten budget steps and report each final quality.
func TestConvergenceExampleRuns(t *testing.T) {
	var buf bytes.Buffer
	run(&buf, 12, 6000)
	out := buf.String()
	for _, label := range []string{"r=4", "r=32", "isolated"} {
		if !strings.Contains(out, label+" ") {
			t.Fatalf("final quality for %q missing:\n%s", label, out)
		}
	}
	if !strings.Contains(out, "final quality") || !strings.Contains(out, "Rastrigin") {
		t.Fatalf("table or summary missing:\n%s", out)
	}
	if !strings.Contains(out, "      6000 ") {
		t.Fatalf("table does not reach the budget:\n%s", out)
	}
}
