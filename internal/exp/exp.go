// Package exp holds the measurement primitives the scenario layer runs on:
// the metric Record and its byte-deterministic CSV/JSONL sinks, the
// repetition seed mixer, per-cell aggregation over a sweep's repetitions
// (min/mean/max/stddev plus time-to-threshold), the summary-table writers,
// the human-readable sweep report and the engine-stats aggregate.
//
// The paper's experiments are sweep files in the repository's paper/
// directory, run by cmd/scenario -sweep; docs/SCENARIOS.md ("Reproducing
// the paper") maps each file to its table.
package exp

// SeedFor derives a deterministic repetition seed from a base seed and
// the repetition's indices (SplitMix64-style mixing). Sweeps use their
// cell index; single-spec campaigns (internal/scenario) pass cellIdx 0 —
// one mixer, so campaign and sweep seeding can never drift apart.
func SeedFor(base uint64, cellIdx, rep int) uint64 {
	x := base ^ uint64(cellIdx)*0x9e3779b97f4a7c15 ^ uint64(rep)*0xbf58476d1ce4e5b9
	x ^= x >> 31
	x *= 0x94d049bb133111eb
	x ^= x >> 29
	return x
}
