package main

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metricDef names one metric and its unit. BENCHMARK.json declares the
// same names and units; the self-test compares the two in both directions.
type metricDef struct{ name, unit string }

// endToEnd lists the metrics of the untraced pass, the numbers a user of
// the simulator sees. Every workload reports every one of them.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"node_cycles_per_s", "1/s"},
	{"op_ms_p50", "ms"},
	{"op_ms_p90", "ms"},
	{"heap_bytes_per_node", "B"},
	{"peak_rss_mb", "MB"},
}

// perLayer lists the metrics of the traced pass, grouped by the module
// they describe. A metric that does not apply to a workload reads 0.
var perLayer = []metricDef{
	{"sim.cycle_ns", "ns"},
	{"sim.propose_phase_ns", "ns"},
	{"sim.apply_phase_ns", "ns"},
	{"sim.engine_self_ns", "ns"},
	{"sim.apply_rounds", "count"},
	{"sim.apply_jobs", "count"},
	{"sim.delivered", "count"},
	{"sim.dropped", "count"},
	{"sim.delayed", "count"},
	{"sim.payloads_recycled", "count"},
	{"sim.live_rebuilds", "count"},
	{"sim.freelist_hit_ratio", "ratio"},
	{"sim.churn_busy_ns", "ns"},
	{"sim.churn_crashes", "count"},
	{"sim.churn_joins", "count"},
	{"sim.netmodel_judge_calls", "count"},
	{"sim.netmodel_judge_busy_ns", "ns"},
	{"sim.netmodel_nondeliver_ratio", "ratio"},
	{"sim.allocs_per_cycle", "count"},
	{"sim.alloc_bytes_per_cycle", "B"},
	{"sim.build_ns", "ns"},
	{"sim.event_steps", "count"},
	{"sim.event_run_ns", "ns"},
	{"sim.event_delivered", "count"},
	{"sim.event_dropped", "count"},

	{"overlay.propose_calls", "count"},
	{"overlay.propose_busy_ns", "ns"},
	{"overlay.receive_calls", "count"},
	{"overlay.receive_busy_ns", "ns"},
	{"overlay.undelivered_calls", "count"},
	{"overlay.undelivered_busy_ns", "ns"},
	{"overlay.samplepeer_calls", "count"},
	{"overlay.merge_kernel_ns_per_call", "ns/call"},
	{"overlay.merge_share", "ratio"},
	{"overlay.view_fill", "ratio"},

	{"core.propose_calls", "count"},
	{"core.propose_busy_ns", "ns"},
	{"core.receive_calls", "count"},
	{"core.receive_busy_ns", "ns"},
	{"core.undelivered_calls", "count"},
	{"core.undelivered_busy_ns", "ns"},
	{"core.exchanges", "count"},
	{"core.lost_exchanges", "count"},
	{"core.adoptions", "count"},
	{"core.adoption_ratio", "ratio"},

	{"pso.evalone_calls", "count"},
	{"pso.evalone_busy_ns", "ns"},
	{"pso.inject_calls", "count"},
	{"pso.inject_accept_ratio", "ratio"},
	{"pso.evalone_kernel_ns_per_call", "ns/call"},

	{"funcs.eval_calls", "count"},
	{"funcs.eval_kernel_ns_per_call", "ns/call"},

	{"rng.uint64_kernel_ns_per_call", "ns/call"},
	{"rng.split_kernel_ns_per_call", "ns/call"},

	{"gossip.propose_calls", "count"},
	{"gossip.propose_busy_ns", "ns"},
	{"gossip.receive_calls", "count"},
	{"gossip.receive_busy_ns", "ns"},
	{"gossip.undelivered_calls", "count"},
	{"gossip.undelivered_busy_ns", "ns"},
	{"gossip.mass_error", "ratio"},

	{"scenario.parse_ns", "ns"},
	{"scenario.sweep_expand_ns", "ns"},
	{"scenario.reps", "count"},
	{"scenario.rep_ns", "ns"},
	{"scenario.engine_phase_ns", "ns"},
	{"scenario.self_ns", "ns"},
	{"scenario.rows", "count"},
	{"scenario.failed_reps", "count"},

	{"exp.sink_emit_calls", "count"},
	{"exp.sink_emit_busy_ns", "ns"},
	{"exp.sink_bytes", "B"},
	{"exp.aggregate_ns", "ns"},

	{"sim.self_share", "ratio"},
	{"overlay.self_share", "ratio"},
	{"core.self_share", "ratio"},
	{"pso.self_share", "ratio"},
	{"funcs.self_share", "ratio"},
	{"rng.self_share", "ratio"},
	{"gossip.self_share", "ratio"},
	{"scenario.self_share", "ratio"},
	{"exp.self_share", "ratio"},
	{"ledger.coverage", "ratio"},
	{"trace_overhead_ratio", "ratio"},
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// the samples; it sorts a copy.
func percentile(samples []int64, p float64) int64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]int64(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// median returns the 50th percentile.
func median(samples []int64) int64 { return percentile(samples, 50) }

// ratio returns a/b, or 0 when b is 0, so an inapplicable ratio reads 0
// rather than NaN (which JSON cannot carry).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// digest folds the simulated statistics of a pass into one FNV-64 value.
// Two passes of the same workload and seed must agree on it whatever the
// host did to their timings.
type digest struct{ h hash.Hash64 }

func newDigest() digest { return digest{fnv.New64a()} }

// op folds the observable state after one op.
func (d digest) op(cycle int64, live int, evals, delivered, dropped int64, quality float64) {
	var buf [48]byte
	binary.LittleEndian.PutUint64(buf[0:], uint64(cycle))
	binary.LittleEndian.PutUint64(buf[8:], uint64(live))
	binary.LittleEndian.PutUint64(buf[16:], uint64(evals))
	binary.LittleEndian.PutUint64(buf[24:], uint64(delivered))
	binary.LittleEndian.PutUint64(buf[32:], uint64(dropped))
	binary.LittleEndian.PutUint64(buf[40:], math.Float64bits(quality))
	d.h.Write(buf[:])
}

// Write folds raw output bytes (the campaign's CSV).
func (d digest) Write(p []byte) (int, error) { return d.h.Write(p) }

func (d digest) sum() uint64 { return d.h.Sum64() }

// spinMops times a fixed integer loop for about 200 ms and returns
// millions of iterations per second: a probe of how much of a CPU the host
// is giving this process right now.
func spinMops() float64 {
	const batch = 1 << 20
	var x uint64 = 88172645463325252
	var iters int64
	start := time.Now()
	for time.Since(start) < 200*time.Millisecond {
		for i := 0; i < batch; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		iters += batch
	}
	el := time.Since(start).Seconds()
	if x == 0 { // keeps the loop's result live
		iters++
	}
	return float64(iters) / el / 1e6
}

// liveHeap returns the bytes of live heap objects after a full collection
// (two, so finalizer-held engines are gone as well). HeapAlloc rather than
// HeapInuse: span occupancy depends on how the concurrent collector's
// cycles happened to interleave with construction, and moved the figure
// by up to 8% between identical runs; the object bytes repeat.
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}

// allocCounters returns the cumulative malloc count and bytes.
func allocCounters() (mallocs, bytes int64) {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return int64(m.Mallocs), int64(m.TotalAlloc)
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", fields[1], err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("VmHWM not found in /proc/self/status")
}
