package main

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// Smoke test: a three-node loopback cluster must start, report each tick,
// and keep a finite best after the bootstrap node crashes.
func TestLiveclusterExampleRuns(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, 3, 100*time.Millisecond, 2); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if got := strings.Count(out, "started node"); got != 3 {
		t.Fatalf("%d nodes started, want 3:\n%s", got, out)
	}
	if got := strings.Count(out, "cluster best="); got != 2 {
		t.Fatalf("%d tick reports, want 2:\n%s", got, out)
	}
	if !strings.Contains(out, "survivors' best after crash") || strings.Contains(out, "after crash: +Inf") {
		t.Fatalf("survivors lost the computation:\n%s", out)
	}
}
