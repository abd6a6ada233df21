package main

import (
	"bytes"
	"strings"
	"testing"
)

// Smoke test: the partition must hold the maximum on its island (drops
// accumulate) and the heal must let it finish.
func TestEpidemicExampleCrossesAfterHeal(t *testing.T) {
	var buf bytes.Buffer
	run(&buf, 64, 30, 60)
	out := buf.String()
	if !strings.Contains(out, "netsplit: two islands") {
		t.Fatalf("netsplit marker missing:\n%s", out)
	}
	if !strings.Contains(out, "the maximum crossed only after the partition healed: true") {
		t.Fatalf("the maximum crossed the cut or did not reach the whole network:\n%s", out)
	}
	if strings.Contains(out, " 0 messages dropped") {
		t.Fatalf("partition dropped nothing:\n%s", out)
	}
}
