// Command benchmark is the repository's performance benchmark: seven
// workloads that each load one layer of the simulator (overlay, solver,
// engine, the paper's full stack, churn and loss, scenario campaigns, the
// event engine), six end-to-end metrics from an untraced pass, and a
// per-layer ledger from a traced pass whose wrappers live entirely in this
// directory. README.md is the glossary; BENCHMARK.json at the repository
// root is the contract the names and units here are checked against.
//
// Usage, from this directory (or through run.sh from the repository root):
//
//	go run . -workload paper-stack -seed 1            # end-to-end metrics
//	go run . -workload paper-stack -seed 1 -trace 1   # per-layer metrics
//	go run . -workload all                            # every workload in turn
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The exit code is non-zero when an
// op fails its check or the traced pass's sim_digest differs from the
// untraced one's.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"

	"gossipopt/internal/sim"
)

// noisyDrift is the relative change of the spin probe across a run beyond
// which the run is marked noisy.
const noisyDrift = 0.10

// metricValue is one entry of the result line's metrics object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "all", "workload to run, or all")
		seed    = flag.Uint64("seed", 1, "workload seed: the only source of the generated inputs")
		seconds = flag.Int("seconds", declaredSeconds, "run length the op counts are scaled to")
		trace   = flag.Int("trace", 0, "1 runs an untraced and a traced pass and reports the per-layer metrics")
		out     = flag.String("out", "", "directory to write the traced pass's spans to, as JSON lines")
	)
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) || flag.NArg() > 0 {
		flag.Usage()
		os.Exit(2)
	}
	if *name == "all" {
		os.Exit(runAll(os.Args[1:]))
	}
	w := workloadByName(*name)
	if w == nil {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *name)
		os.Exit(2)
	}
	res, err := runWorkload(w, *seed, *seconds, *trace == 1, *out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: encoding result: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// runAll runs every workload in a process of its own, so heap and RSS
// figures belong to one workload each. It returns the exit code.
func runAll(args []string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	code := 0
	for _, w := range workloads {
		cmd := exec.Command(self, append(args[:len(args):len(args)], "-workload", w.name)...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: workload %s: %v\n", w.name, err)
			code = 1
		}
	}
	return code
}

// runWorkload runs one workload and prints its report: an untraced pass
// for the end-to-end metrics, or an untraced reference pass followed by a
// traced one for the per-layer metrics.
func runWorkload(w *workload, seed uint64, seconds int, traced bool, outDir string) (*result, error) {
	ops := w.opsFor(seconds)
	fmt.Printf("workload %s seed %d trace %v\n", w.name, seed, traced)
	fmt.Printf("host nproc=%d gomaxprocs=%d go=%s\n", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	spinBefore := spinMops()

	res := &result{Metrics: map[string]metricValue{}}
	var last *pass
	if !traced {
		p := newPass(w, seed, ops, 3, nil)
		w.run(p)
		if p.peakRSSErr != nil {
			return nil, p.peakRSSErr
		}
		values := map[string]float64{
			"setup_s":             float64(median(p.setupNs)) / 1e9,
			"node_cycles_per_s":   p.throughput(),
			"op_ms_p50":           float64(percentile(p.opNs, 50)) / 1e6,
			"op_ms_p90":           float64(percentile(p.opNs, 90)) / 1e6,
			"heap_bytes_per_node": ratio(float64(p.heapBytes), float64(p.heapNodes)),
			"peak_rss_mb":         p.peakRSSMB,
		}
		report(res, endToEnd, values)
		last = p
	} else {
		ref := newPass(w, seed, ops, 1, nil)
		w.run(ref)
		sim.EnableFreeListStats(true)
		p := newPass(w, seed, ops, 1, &tracer{})
		w.run(p)
		sim.EnableFreeListStats(false)
		if ref.dig.sum() != p.dig.sum() {
			p.fail("sim_digest %016x of the traced pass differs from the untraced pass's %016x", p.dig.sum(), ref.dig.sum())
		}
		p.failedOps += ref.failedOps
		p.failures = append(ref.failures, p.failures...)
		m := p.layer
		m["sim.build_ns"] = float64(median(p.buildNs))
		m["sim.allocs_per_cycle"] = ratio(float64(ref.mallocs), float64(len(ref.opNs)))
		m["sim.alloc_bytes_per_cycle"] = ratio(float64(ref.allocBytes), float64(len(ref.opNs)))
		m["trace_overhead_ratio"] = ratio(ref.throughput(), p.throughput())
		report(res, perLayer, m)
		if outDir != "" {
			if err := writeSpans(p.tr, outDir, w.name, seed); err != nil {
				return nil, err
			}
		}
		last = p
	}

	spinAfter := spinMops()
	drift := ratio(spinAfter-spinBefore, spinBefore)
	fmt.Printf("host.spin_mops_before %.1f\nhost.spin_mops_after %.1f\nnoisy %v\n",
		spinBefore, spinAfter, drift > noisyDrift || drift < -noisyDrift)
	fmt.Printf("ops %d\nfailed_ops %d\nnode_cycles %d\nfinal_quality %g\nsim_digest %016x\n",
		len(last.opNs), last.failedOps, last.nodeCycles, last.finalQuality, last.dig.sum())
	for _, f := range last.failures {
		fmt.Printf("failure: %s\n", f)
	}
	res.Attempted, res.Failed = len(last.opNs), last.failedOps
	res.Correct = last.failedOps == 0
	return res, nil
}

// report prints every metric of defs by name with its unit and adds it to
// the result line. A value the pass did not produce reads 0.
func report(res *result, defs []metricDef, values map[string]float64) {
	for _, d := range defs {
		v := values[d.name]
		fmt.Printf("%-34s %.6g %s\n", d.name, v, d.unit)
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
}

// writeSpans writes the traced pass's spans under dir.
func writeSpans(tr *tracer, dir, workload string, seed uint64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.spans.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.writeSpans(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
