package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gossipopt/internal/scenario"
)

// TestProgressKeepsStdoutGolden is the satellite regression: with
// -progress set, stdout must still be exactly the golden CSV — every
// human-facing line (progress, summaries) belongs on stderr.
func TestProgressKeepsStdoutGolden(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "baseline.golden.csv"))
	if err != nil {
		t.Fatal(err)
	}
	out, errOut, err := runCmd(t, "-run", "baseline", "-reps", "2", "-progress")
	if err != nil {
		t.Fatal(err)
	}
	if out != string(golden) {
		t.Fatalf("-progress changed stdout:\n--- got ---\n%s--- want ---\n%s", out, golden)
	}
	if !strings.Contains(errOut, "progress:") {
		t.Fatalf("-progress printed nothing to stderr:\n%s", errOut)
	}
}

// TestInstrumentationStdoutInvariance byte-compares every built-in
// scenario's stdout with the full observability layer on (progress,
// statsjson, debug endpoint) against a plain run — the tentpole's hard
// contract that instrumentation never touches a metric byte.
func TestInstrumentationStdoutInvariance(t *testing.T) {
	dir := t.TempDir()
	for _, name := range scenario.BuiltinNames() {
		plain, _, err := runCmd(t, "-run", name, "-reps", "2")
		if err != nil {
			t.Fatalf("scenario %q: %v", name, err)
		}
		inst, _, err := runCmd(t, "-run", name, "-reps", "2",
			"-progress", "-statsjson", filepath.Join(dir, name+".jsonl"), "-debugaddr", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("scenario %q instrumented: %v", name, err)
		}
		if plain != inst {
			t.Fatalf("scenario %q: instrumentation changed stdout:\n--- plain ---\n%s--- instrumented ---\n%s",
				name, plain, inst)
		}
	}
	for _, name := range scenario.BuiltinSweepNames() {
		plain, _, err := runCmd(t, "-sweep", name, "-reps", "2")
		if err != nil {
			t.Fatalf("sweep %q: %v", name, err)
		}
		inst, _, err := runCmd(t, "-sweep", name, "-reps", "2",
			"-progress", "-statsjson", filepath.Join(dir, "sweep-"+name+".jsonl"))
		if err != nil {
			t.Fatalf("sweep %q instrumented: %v", name, err)
		}
		if plain != inst {
			t.Fatalf("sweep %q: instrumentation changed stdout", name)
		}
	}
}

// statsLines parses a -statsjson file into per-line JSON objects.
func statsLines(t *testing.T, path string) []map[string]any {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var lines []map[string]any
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("%s: line %d does not parse: %v\n%s", path, len(lines)+1, err, sc.Text())
		}
		lines = append(lines, m)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return lines
}

// TestStatsJSONCampaign checks the campaign stats file: one line per
// repetition, in order, each carrying the engine snapshot.
func TestStatsJSONCampaign(t *testing.T) {
	path := filepath.Join(t.TempDir(), "stats.jsonl")
	if _, _, err := runCmd(t, "-run", "baseline", "-reps", "3", "-statsjson", path); err != nil {
		t.Fatal(err)
	}
	lines := statsLines(t, path)
	if len(lines) != 3 {
		t.Fatalf("got %d lines, want 3", len(lines))
	}
	for i, m := range lines {
		if m["scenario"] != "baseline" || m["rep"] != float64(i) {
			t.Fatalf("line %d mislabeled: %v", i, m)
		}
		st, ok := m["stats"].(map[string]any)
		if !ok {
			t.Fatalf("line %d has no stats: %v", i, m)
		}
		for _, k := range []string{"propose_ns", "apply_ns", "apply_rounds", "shard_mean_load", "freelist_hits"} {
			if _, ok := st[k]; !ok {
				t.Fatalf("line %d stats missing %q: %v", i, k, st)
			}
		}
		if st["cycles"].(float64) <= 0 || st["apply_rounds"].(float64) <= 0 {
			t.Fatalf("line %d has empty counters: %v", i, st)
		}
		h, ok := m["health"].(map[string]any)
		if !ok {
			t.Fatalf("line %d has no view health: %v", i, m)
		}
		for _, k := range []string{"empty", "orphans", "dead_share", "in_min", "in_median", "in_max"} {
			if _, ok := h[k]; !ok {
				t.Fatalf("line %d health missing %q: %v", i, k, h)
			}
		}
	}
}

// TestStatsJSONOmitsHealthOffCycleEngine: an event-engine repetition has
// no overlay.Health to report, so its line carries no health key.
func TestStatsJSONOmitsHealthOffCycleEngine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "stats.jsonl")
	if _, _, err := runCmd(t, "-run", "lossy-wan", "-statsjson", path); err != nil {
		t.Fatal(err)
	}
	for i, m := range statsLines(t, path) {
		if _, ok := m["health"]; ok {
			t.Fatalf("line %d of an event-engine run carries health: %v", i, m)
		}
	}
}

// TestStatsJSONSweep checks the sweep stats file: rep lines in canonical
// cell-then-repetition order followed by one aggregated line per cell.
func TestStatsJSONSweep(t *testing.T) {
	path := filepath.Join(t.TempDir(), "stats.jsonl")
	if _, _, err := runCmd(t, "-sweep", "overlay-vs-churn", "-reps", "2", "-statsjson", path); err != nil {
		t.Fatal(err)
	}
	lines := statsLines(t, path)
	var reps, cells int
	for _, m := range lines {
		if _, ok := m["sweep"]; ok {
			cells++
			st := m["stats"].(map[string]any)
			jobs, ok := st["apply_jobs"].(map[string]any)
			if !ok || jobs["n"] != float64(2) {
				t.Fatalf("cell line aggregates wrong rep count: %v", m)
			}
		} else {
			if cells != 0 {
				// Cell aggregate lines are written after the run, so every
				// rep line precedes every cell line.
				t.Fatalf("rep line after a cell line: %v", m)
			}
			reps++
		}
	}
	if cells == 0 || reps == 0 || reps != 2*cells {
		t.Fatalf("got %d rep lines and %d cell lines, want 2 reps per cell", reps, cells)
	}
}

// TestDebugAddrAnnouncesEndpoint checks the -debugaddr chatter lands on
// stderr (the scrape itself is covered by internal/obs and the CI smoke).
func TestDebugAddrAnnouncesEndpoint(t *testing.T) {
	out, errOut, err := runCmd(t, "-run", "baseline", "-debugaddr", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(errOut, "debug: expvar and pprof on http://127.0.0.1:") {
		t.Fatalf("no debug endpoint announcement on stderr:\n%s", errOut)
	}
	if strings.Contains(out, "debug:") {
		t.Fatal("debug announcement leaked to stdout")
	}
}

// TestObsFlagsRejectedOutsideRuns: -list/-show have nothing to
// instrument, so the observability flags are errors there, mirroring the
// strictness of the mode-foreign parallelism flags.
func TestObsFlagsRejectedOutsideRuns(t *testing.T) {
	for _, args := range [][]string{
		{"-list", "-progress"},
		{"-list", "-statsjson", "x.jsonl"},
		{"-show", "baseline", "-debugaddr", "127.0.0.1:0"},
	} {
		if _, _, err := runCmd(t, args...); err == nil {
			t.Fatalf("%v accepted", args)
		}
	}
}

// TestStatsJSONNotCreatedOnBadMode: like -o, the stats file must only be
// created after the mode resolves — a typo'd scenario name must not
// truncate an existing stats file.
func TestStatsJSONNotCreatedOnBadMode(t *testing.T) {
	path := filepath.Join(t.TempDir(), "stats.jsonl")
	if err := os.WriteFile(path, []byte("precious\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := runCmd(t, "-run", "no-such-scenario", "-statsjson", path); err == nil {
		t.Fatal("unknown scenario accepted")
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "precious\n" {
		t.Fatalf("stats file clobbered before validation: %q", data)
	}
}
