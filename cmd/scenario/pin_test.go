package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gossipopt/internal/scenario"
)

var update = flag.Bool("update", false, "rewrite testdata/builtins.pin from this build's outputs")

var pinPath = filepath.Join("testdata", "builtins.pin")

// pinnedOutput is one pinned output: its key in the pin file and its bytes.
type pinnedOutput struct{ key, body string }

// builtinOutputs renders what the pin file pins: the rows of every
// built-in scenario at -reps 2, and the rows and the summary table of
// every built-in sweep at -reps 2, in name order.
func builtinOutputs(t *testing.T) []pinnedOutput {
	t.Helper()
	var outs []pinnedOutput
	for _, name := range scenario.BuiltinNames() {
		rows, _, err := runCmd(t, "-run", name, "-reps", "2")
		if err != nil {
			t.Fatalf("scenario %q: %v", name, err)
		}
		outs = append(outs, pinnedOutput{"run/" + name, rows})
	}
	for _, name := range scenario.BuiltinSweepNames() {
		sumPath := filepath.Join(t.TempDir(), "cells.csv")
		rows, _, err := runCmd(t, "-sweep", name, "-reps", "2", "-summary", sumPath)
		if err != nil {
			t.Fatalf("sweep %q: %v", name, err)
		}
		sum, err := os.ReadFile(sumPath)
		if err != nil {
			t.Fatal(err)
		}
		outs = append(outs, pinnedOutput{"sweep/" + name + "/rows", rows},
			pinnedOutput{"sweep/" + name + "/summary", string(sum)})
	}
	return outs
}

// lineHash is the 32-bit FNV-1a of one output line, as the pin file
// records it: enough to locate the first line that differs.
func lineHash(line string) string {
	h := fnv.New32a()
	h.Write([]byte(line))
	return fmt.Sprintf("%08x", h.Sum32())
}

// pinLine formats one pin-file line: the key, the SHA-256 of the whole
// output, then the hash of each of its lines.
func pinLine(o pinnedOutput) string {
	sum := sha256.Sum256([]byte(o.body))
	fields := []string{o.key, hex.EncodeToString(sum[:])}
	for _, line := range strings.SplitAfter(o.body, "\n") {
		if line != "" {
			fields = append(fields, lineHash(line))
		}
	}
	return strings.Join(fields, " ")
}

// TestBuiltinOutputsPinned holds the SHA-256 of every built-in scenario's
// and sweep's output, so a change to anything a built-in runs — a net
// model, a failure model, a protocol, the aggregation — shows here even
// where no golden file covers it. A mismatch names the first line whose
// hash differs from the pinned one and prints that line as it is now.
//
// A change that moves an output on purpose regenerates the file with
//
//	go test ./cmd/scenario -run TestBuiltinOutputsPinned -update
//
// and says in CHANGES.md which outputs moved and why.
func TestBuiltinOutputsPinned(t *testing.T) {
	outs := builtinOutputs(t)
	if *update {
		var b strings.Builder
		b.WriteString("# go test ./cmd/scenario -run TestBuiltinOutputsPinned -update: <output> <sha256> <fnv-1a of each line>\n")
		for _, o := range outs {
			b.WriteString(pinLine(o) + "\n")
		}
		if err := os.WriteFile(pinPath, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(pinPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string][]string{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if fields := strings.Fields(sc.Text()); len(fields) >= 2 && !strings.HasPrefix(fields[0], "#") {
			want[fields[0]] = fields[1:]
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(outs) {
		t.Errorf("%s pins %d outputs, the built-ins produce %d", pinPath, len(want), len(outs))
	}
	for _, o := range outs {
		pin, ok := want[o.key]
		if !ok {
			t.Errorf("%s: not pinned", o.key)
			continue
		}
		got := strings.Fields(pinLine(o))[1:]
		if got[0] == pin[0] {
			continue
		}
		lines := strings.SplitAfter(o.body, "\n")
		i := 1
		for i < len(got) && i < len(pin) && got[i] == pin[i] {
			i++
		}
		first := "(none: the output is shorter than pinned)"
		if i < len(got) {
			first = fmt.Sprintf("%q", lines[i-1])
		}
		t.Errorf("%s: sha256 %s, pinned %s; %d lines, pinned %d; first differing line %d: %s",
			o.key, got[0], pin[0], len(got)-1, len(pin)-1, i, first)
	}
}
