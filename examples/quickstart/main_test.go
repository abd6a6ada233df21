package main

import (
	"bytes"
	"strings"
	"testing"
)

// Smoke test: a scaled-down run must report eight progress lines, the
// final quality and a nonzero coordination count.
func TestQuickstartExampleRuns(t *testing.T) {
	var buf bytes.Buffer
	run(&buf, 8, 8000)
	out := buf.String()
	if got := strings.Count(out, "evals="); got != 8 {
		t.Fatalf("%d progress lines, want 8:\n%s", got, out)
	}
	if !strings.Contains(out, "final quality") || !strings.Contains(out, "best point") {
		t.Fatalf("summary missing:\n%s", out)
	}
	if strings.Contains(out, "coordination: 0 exchanges") {
		t.Fatalf("no coordination happened:\n%s", out)
	}
}
