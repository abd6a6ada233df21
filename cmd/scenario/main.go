// Command scenario runs declarative experiment scripts: a JSON spec (or a
// built-in scenario) describes the network, the protocol stack, a timeline
// of scripted events — churn bursts, partitions and heals, link-model
// swaps (lossy/delaying links, regional outages), Byzantine-node waves,
// crash/restart waves — the metric schedule and the stop conditions;
// this command runs a seeded campaign of repetitions and emits
// structured per-cycle metrics as CSV or JSON lines.
//
// A sweep spec (-sweep) is a base scenario plus a grid of named override
// axes; every grid cell runs its repetitions on one bounded worker pool
// (-repworkers), the per-cycle rows stream out in cell-then-repetition
// order, each cell is aggregated (min/mean/max/stddev per metric at the
// final sample, plus time-to-threshold) into a summary table (-summary),
// and a human-readable comparison report lands on stderr.
//
// The same spec + seed produces byte-identical metric output at any
// -workers (engine parallelism) and -repworkers (campaign or sweep pool)
// value. -cpuprofile and -memprofile write pprof profiles of a campaign or
// sweep run.
//
// Observability (docs/OBSERVABILITY.md): -progress renders live progress
// lines on stderr, -statsjson dumps end-of-run engine instrumentation as
// JSON lines, and -debugaddr serves expvar + pprof over HTTP while the
// run is in flight. None of the three changes a single metric byte on
// stdout — the invariance tests in this package pin that.
//
// Examples:
//
//	scenario -list                          # built-in scenarios and sweeps
//	scenario -run netsplit-heal             # run one built-in, CSV on stdout
//	scenario -run baseline -reps 5 -o m.csv # seeded campaign of 5 reps
//	scenario -run antientropy-netsplit -reps 8 -repworkers 4   # parallel campaign
//	scenario -show lossy-wan                # print a built-in as JSON
//	scenario -spec my.json -format jsonl    # run a spec file
//	scenario -sweep overlay-vs-churn -repworkers 8 -o rows.csv -summary cells.csv
//	scenario -sweep my-sweep.json -reps 10  # sweep from a file
//	scenario -sweep overlay-vs-churn -progress -statsjson stats.jsonl -debugaddr 127.0.0.1:6060
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"time"

	"gossipopt/internal/exp"
	"gossipopt/internal/obs"
	"gossipopt/internal/scenario"
	"gossipopt/internal/sim"
)

// errBadFlags marks a parse failure the FlagSet has already reported to
// stderr, so main must not print it again.
var errBadFlags = errors.New("invalid command line")

func main() {
	switch err := run(os.Args[1:], os.Stdout, os.Stderr); {
	case err == nil:
	case errors.Is(err, flag.ErrHelp): // -h: usage printed, success
	case errors.Is(err, errBadFlags):
		os.Exit(2)
	default:
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
}

// run executes the command: metric rows go to out (or -o), human-facing
// progress to errOut (separated from main for testability). The return is
// named so the deferred heap-profile writer can surface its failure as
// the command's error instead of a stderr-only note.
func run(args []string, out, errOut io.Writer) (err error) {
	fs := flag.NewFlagSet("scenario", flag.ContinueOnError)
	fs.SetOutput(errOut)
	var (
		list        = fs.Bool("list", false, "list built-in scenarios and sweeps and exit")
		name        = fs.String("run", "", "run a built-in scenario by name")
		show        = fs.String("show", "", "print a built-in scenario or sweep as JSON and exit")
		specPath    = fs.String("spec", "", "run a scenario spec from a JSON file")
		sweepName   = fs.String("sweep", "", "run a sweep: a built-in sweep name or a JSON file")
		reps        = fs.Int("reps", 1, "repetitions in the campaign (sweeps: per cell; 0 keeps the sweep's default)")
		seed        = fs.Uint64("seed", 0, "override the spec's base seed (0: keep)")
		workers     = fs.Int("workers", 1, "cycle-engine pool workers for both phases (output is identical for any value)")
		repWorkers  = fs.Int("repworkers", 1, "repetitions (sweeps: cell×rep jobs) run in parallel (output is identical for any value)")
		format      = fs.String("format", "csv", "metric output format: csv or jsonl")
		outPath     = fs.String("o", "", "write metrics to a file instead of stdout")
		summaryPath = fs.String("summary", "", "sweeps: write the aggregated per-cell summary table to this file (same -format)")
		cpuProfile  = fs.String("cpuprofile", "", "write a pprof CPU profile of the campaign/sweep to this file")
		memProfile  = fs.String("memprofile", "", "write a pprof heap profile taken after the campaign/sweep to this file")
		progress    = fs.Bool("progress", false, "render live progress (reps, rows, ETA) to stderr once a second")
		statsJSON   = fs.String("statsjson", "", "write end-of-run engine stats as JSON lines (one per rep, plus one per sweep cell) to this file")
		debugAddr   = fs.String("debugaddr", "", "serve expvar and pprof on this address (e.g. 127.0.0.1:6060; port 0 picks one) for the run's duration")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return errBadFlags
	}
	setFlags := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { setFlags[f.Name] = true })

	// The observability flags instrument a run; with -list/-show there is
	// nothing to instrument, so reject them instead of ignoring them.
	if (*list || *show != "") && (setFlags["progress"] || setFlags["statsjson"] || setFlags["debugaddr"]) {
		return fmt.Errorf("-progress, -statsjson and -debugaddr apply to runs (-run, -spec or -sweep)")
	}

	if *list {
		fmt.Fprintf(out, "%-18s %-7s %s\n", "name", "engine", "description")
		for _, n := range scenario.BuiltinNames() {
			s, _ := scenario.Builtin(n)
			engine := s.Engine
			if engine == "" {
				engine = scenario.EngineCycle
			}
			fmt.Fprintf(out, "%-18s %-7s %s\n", n, engine, s.Description)
		}
		fmt.Fprintf(out, "\n%-18s %-7s %s\n", "sweep", "cells", "description")
		for _, n := range scenario.BuiltinSweepNames() {
			sw, _ := scenario.BuiltinSweep(n)
			cells, err := sw.Cells()
			if err != nil {
				return fmt.Errorf("built-in sweep %q: %w", n, err)
			}
			fmt.Fprintf(out, "%-18s %-7d %s\n", n, len(cells), sw.Description)
		}
		return nil
	}
	if *show != "" {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if s, ok := scenario.Builtin(*show); ok {
			return enc.Encode(s)
		}
		if sw, ok := scenario.BuiltinSweep(*show); ok {
			return enc.Encode(sw)
		}
		return unknownScenario(*show)
	}

	modes := 0
	for _, m := range []string{*name, *specPath, *sweepName} {
		if m != "" {
			modes++
		}
	}
	if modes > 1 {
		return fmt.Errorf("-run, -spec and -sweep are mutually exclusive")
	}
	if modes == 0 {
		fs.Usage()
		return errBadFlags
	}

	// Resolve the mode — names, spec files, and flag combinations — before
	// any output file is created: a typo'd name must not truncate an
	// existing results file. Mode-foreign output flags are rejected rather
	// than silently ignored, the same strictness the spec layer applies to
	// unknown fields.
	var (
		sw    scenario.SweepSpec
		spec  scenario.Spec
		isSwp = *sweepName != ""
	)
	if isSwp {
		s, ok := scenario.BuiltinSweep(*sweepName)
		if !ok {
			data, err := os.ReadFile(*sweepName)
			if err != nil {
				if os.IsNotExist(err) && !strings.ContainsAny(*sweepName, "./") {
					return fmt.Errorf("unknown sweep %q; built-in sweeps: %v (or pass a JSON file)",
						*sweepName, scenario.BuiltinSweepNames())
				}
				return err
			}
			if s, err = scenario.ParseSweep(data); err != nil {
				return err
			}
		}
		sw = s
	} else {
		if setFlags["summary"] {
			return fmt.Errorf("-summary applies to -sweep (only sweeps aggregate cells)")
		}
		switch {
		case *name != "":
			s, ok := scenario.Builtin(*name)
			if !ok {
				return unknownScenario(*name)
			}
			spec = s
		default: // *specPath != ""
			data, err := os.ReadFile(*specPath)
			if err != nil {
				return err
			}
			s, err := scenario.Parse(data)
			if err != nil {
				return err
			}
			spec = s
		}
	}

	if *format != "csv" && *format != "jsonl" {
		return fmt.Errorf("unknown -format %q (want csv or jsonl)", *format)
	}
	w := out
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	var sink exp.Sink
	if *format == "csv" {
		sink = exp.NewCSVSink(w)
	} else {
		sink = exp.NewJSONLSink(w)
	}

	// Profiling hooks for campaign/sweep runs (the usual way to see where
	// a big run spends its time is `-run <name> -reps N -cpuprofile p.out`
	// followed by `go tool pprof`). The heap-profile defer is registered
	// first: defers run LIFO, so the CPU profile stops before the final GC
	// and heap serialization, keeping that work out of the CPU profile.
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			return err
		}
		defer func() {
			defer f.Close()
			runtime.GC() // settle allocations so the heap profile reflects retained memory
			if werr := pprof.WriteHeapProfile(f); werr != nil && err == nil {
				err = fmt.Errorf("writing heap profile: %w", werr)
			}
		}()
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("starting CPU profile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}

	// The observability layer: a stderr progress printer, a JSONL stats
	// file, and the expvar/pprof endpoint. All three feed off the runner's
	// progress callback (one update per finished repetition, in canonical
	// order) and none of them writes to the metric sink — the invariance
	// tests byte-compare stdout with and without them. Free-list counting
	// is process-global and off by default; the stats consumers turn it on
	// for the run's duration.
	var printer *obs.Printer
	if *progress {
		printer = obs.NewPrinter(errOut, time.Second)
		defer printer.Close()
	}
	var (
		statsW   *obs.StatsWriter
		statsErr error
	)
	if *statsJSON != "" {
		f, err := os.Create(*statsJSON)
		if err != nil {
			return err
		}
		defer f.Close()
		statsW = obs.NewStatsWriter(f)
	}
	if *statsJSON != "" || *debugAddr != "" {
		sim.EnableFreeListStats(true)
		defer sim.EnableFreeListStats(false)
	}
	var (
		progMu sync.Mutex
		latest scenario.ProgressUpdate
	)
	if *debugAddr != "" {
		dbg, err := obs.StartDebug(*debugAddr)
		if err != nil {
			return err
		}
		defer dbg.Close()
		fmt.Fprintf(errOut, "debug: expvar and pprof on http://%s/debug/vars\n", dbg.Addr())
		obs.Publish("scenario", func() any {
			progMu.Lock()
			defer progMu.Unlock()
			return latest
		})
	}
	var onProgress func(scenario.ProgressUpdate)
	if *progress || *statsJSON != "" || *debugAddr != "" {
		onProgress = func(u scenario.ProgressUpdate) {
			progMu.Lock()
			latest = u
			progMu.Unlock()
			if printer != nil {
				printer.Update(obs.Progress{
					TotalReps: u.TotalReps, DoneReps: u.DoneReps,
					TotalCells: u.TotalCells, DoneCells: u.DoneCells,
					Rows: u.Rows, Cell: u.Cell,
				})
			}
			if statsW != nil {
				err := statsW.Write(obs.RepStats{
					Scenario: u.Cell, Rep: u.Rep, Seed: u.Summary.Seed,
					Cycles: u.Summary.Cycles, Quality: u.Summary.Quality,
					Stats: u.Summary.Stats, Health: u.Summary.Health,
				})
				if err != nil && statsErr == nil {
					statsErr = fmt.Errorf("writing %s: %w", *statsJSON, err)
				}
			}
		}
	}
	// Human-facing end-of-run chatter goes to stderr only, after the
	// progress printer has shut down so lines never interleave.
	finishProgress := func() error {
		if printer != nil {
			printer.Close()
		}
		return statsErr
	}

	opts := scenario.Options{
		BaseSeed:   *seed,
		Workers:    *workers,
		RepWorkers: *repWorkers,
		Progress:   onProgress,
	}
	if isSwp {
		if setFlags["reps"] {
			opts.Reps = *reps
		}
		results, err := scenario.RunSweep(sw, opts, sink)
		if err != nil {
			return err
		}
		if statsW != nil {
			for _, r := range results {
				if r.Summary.Engine == nil {
					continue
				}
				err := statsW.Write(obs.CellStats{
					Sweep: sw.Name, Cell: r.Cell.Name, Reps: r.Summary.Reps,
					Stats: *r.Summary.Engine,
				})
				if err != nil && statsErr == nil {
					statsErr = fmt.Errorf("writing %s: %w", *statsJSON, err)
				}
			}
		}
		if err := finishProgress(); err != nil {
			return err
		}
		cells := make([]exp.CellSummary, len(results))
		for i, r := range results {
			cells[i] = r.Summary
		}
		if *summaryPath != "" {
			f, err := os.Create(*summaryPath)
			if err != nil {
				return err
			}
			defer f.Close()
			switch *format {
			case "csv":
				err = exp.WriteCellSummariesCSV(f, cells)
			case "jsonl":
				err = exp.WriteCellSummariesJSONL(f, cells)
			}
			if err != nil {
				return err
			}
		}
		fmt.Fprint(errOut, exp.SweepReport(sw.Name, cells))
		return nil
	}

	opts.Reps = *reps
	sums, err := scenario.Run(spec, opts, sink)
	if err != nil {
		return err
	}
	if err := finishProgress(); err != nil {
		return err
	}
	for _, s := range sums {
		fmt.Fprintf(errOut, "%s rep %d: seed=%d cycles=%d evals=%d quality=%g reached=%v\n",
			spec.Name, s.Rep, s.Seed, s.Cycles, s.Evals, s.Quality, s.Reached)
	}
	return nil
}

// unknownScenario names the vocabulary, so a typo is self-correcting.
func unknownScenario(name string) error {
	return fmt.Errorf("unknown scenario %q; built-in scenarios: %v, sweeps: %v",
		name, scenario.BuiltinNames(), scenario.BuiltinSweepNames())
}
