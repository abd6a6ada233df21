package sim

import (
	"math"
	"sync/atomic"
)

// Engine instrumentation. Every counter here is accumulated in plain
// coordinator-owned fields on the hot path (no atomics, no locks, no
// allocations — the disabled-looking path IS the enabled path) and
// published to an atomic snapshot once per cycle, at the end of RunCycle.
// Engine.Stats reads only the atomic snapshot, so it is safe to call from
// any goroutine concurrently with RunCycle; the values it returns are
// those of the last completed cycle. Nothing in this file touches an RNG
// stream or the metric byte stream: traces are bit-identical with the
// instrumentation read or ignored (pinned by the invariance tests in
// cmd/scenario and by TestStatsStreamWorkerInvariance in
// internal/scenario).

// EngineStats is a point-in-time snapshot of the cycle engine's
// instrumentation counters, taken at a cycle boundary. All duration and
// load counters are cumulative over the engine's lifetime; rates per
// cycle divide by Cycles.
type EngineStats struct {
	// Cycles is the number of completed cycles.
	Cycles int64 `json:"cycles"`
	// Delivered counts apply-phase messages delivered to a live,
	// reachable destination, reply legs included.
	Delivered int64 `json:"delivered"`
	// Dropped counts apply-phase messages lost to a dead destination, the
	// delivery filter (partitions), or a net-model drop/blackhole/corrupt
	// verdict, reply legs included.
	Dropped int64 `json:"dropped"`
	// Delayed counts legs the net model held back for later cycles; each
	// moves Delivered or Dropped at its actual delivery.
	Delayed int64 `json:"delayed"`
	// Corrupted counts legs the net model garbled in transit, each also
	// counted in Dropped (a corrupted leg is never Delivered).
	Corrupted int64 `json:"corrupted"`
	// Evals is the engine-maintained objective-evaluation count.
	Evals int64 `json:"evals"`
	// ProposeNanos is the cumulative wall time of the parallel propose
	// phase (worker launch through the eval-count barrier).
	ProposeNanos int64 `json:"propose_ns"`
	// ApplyNanos is the cumulative wall time of the apply phase: the
	// canonical shuffle, every delivery round, and the end-of-cycle
	// payload recycling.
	ApplyNanos int64 `json:"apply_ns"`
	// ApplyRounds is the total number of apply rounds executed (a cycle
	// runs one round per follow-up depth: request legs, then replies...).
	ApplyRounds int64 `json:"apply_rounds"`
	// ApplyJobs is the total number of routed apply jobs handled — every
	// delivered message plus every undeliverable bounced to a live
	// sender. Messages with no handling node at all are excluded.
	ApplyJobs int64 `json:"apply_jobs"`
	// ApplyBatches is the total number of (handling node, round) pairs:
	// the distinct nodes each apply round visited, counted by the
	// coordinator and therefore identical at every worker count.
	// ApplyJobs/ApplyBatches is the mean number of messages a visited
	// node handles back to back.
	ApplyBatches int64 `json:"apply_batches"`
	// PayloadsRecycled is the total number of message payloads returned to
	// their free lists at cycle end (payloads implementing Recyclable): one
	// per payload object, so a request forwarded as its reply counts once.
	// Unlike FreeListHits/FreeListMisses it moves unconditionally and
	// counts recycles, not Gets.
	PayloadsRecycled int64 `json:"payloads_recycled"`
	// ShardedRounds counts the apply rounds that ran on more than one
	// worker; the Shard* load counters below accumulate over exactly
	// these rounds.
	ShardedRounds int64 `json:"sharded_rounds"`
	// ShardMinLoad / ShardMaxLoad / ShardMeanLoad accumulate, per sharded
	// round, the smallest, largest and mean job load of the workers'
	// spans. Their per-round averages — and the ShardSkew ratio — expose
	// how evenly the node-boundary span cut spread the round's work.
	ShardMinLoad  int64   `json:"shard_min_load"`
	ShardMaxLoad  int64   `json:"shard_max_load"`
	ShardMeanLoad float64 `json:"shard_mean_load"`
	// LiveRebuilds counts lazy live-index rebuilds: one arena scan each,
	// triggered by the first live-population read after a Crash/Revive.
	LiveRebuilds int64 `json:"live_rebuilds"`
	// PoolTasks counts jobs submitted to the persistent worker pool
	// (shard 0 runs on the coordinator and is not counted). It grows by
	// workers-1 per parallel phase or sharded round; a single-worker
	// engine keeps it at zero.
	PoolTasks int64 `json:"pool_tasks"`
	// FreeListHits / FreeListMisses count this engine's payload free-list
	// Gets: served from a recycled payload, or by a fresh allocation. The
	// lists are shared by every engine in the process (see freelist.go)
	// but the counts are the engine's own; they only move while
	// EnableFreeListStats is on.
	FreeListHits   int64 `json:"freelist_hits"`
	FreeListMisses int64 `json:"freelist_misses"`
}

// ShardSkew is the load-imbalance ratio of the sharded apply rounds: the
// accumulated per-round maximum worker load over the accumulated
// per-round mean. 1.0 is a perfectly even spread; a span never exceeds the
// mean by more than one node's messages, so the ratio rises only when a
// single node receives a large share of a round. Returns 1 when no round
// was sharded.
func (s EngineStats) ShardSkew() float64 {
	if s.ShardMeanLoad <= 0 {
		return 1
	}
	return float64(s.ShardMaxLoad) / s.ShardMeanLoad
}

// engineStats is the published snapshot: atomics written by the
// coordinator in publishStats, read by Stats from any goroutine. The
// float accumulator travels as its IEEE bits.
type engineStats struct {
	cycles, delivered, dropped, evals atomic.Int64
	delayed, corrupted                atomic.Int64
	proposeNanos, applyNanos          atomic.Int64
	applyRounds, applyJobs            atomic.Int64
	applyBatches, payloadsRecycled    atomic.Int64
	shardedRounds, shardMin, shardMax atomic.Int64
	shardMeanBits                     atomic.Uint64
	liveRebuilds, poolTasks           atomic.Int64
	flHits, flMisses                  atomic.Int64
}

// publishStats copies the coordinator-owned accumulators into the atomic
// snapshot. Called once per cycle, at the end of RunCycle — a dozen
// uncontended stores, so the instrumentation's steady-state cost is
// independent of population and message volume.
func (e *Engine) publishStats() {
	s := &e.stats
	s.cycles.Store(e.cycle)
	s.delivered.Store(e.delivered)
	s.dropped.Store(e.dropped)
	s.delayed.Store(e.delayed)
	s.corrupted.Store(e.corrupted)
	s.evals.Store(e.evals)
	s.proposeNanos.Store(e.proposeNanos)
	s.applyNanos.Store(e.applyNanos)
	s.applyRounds.Store(e.applyRounds)
	s.applyJobs.Store(e.applyJobs)
	s.applyBatches.Store(e.applyBatches)
	s.payloadsRecycled.Store(e.payloadsRecycled)
	s.shardedRounds.Store(e.shardedRounds)
	s.shardMin.Store(e.shardMinSum)
	s.shardMax.Store(e.shardMaxSum)
	s.shardMeanBits.Store(math.Float64bits(e.shardMeanSum))
	s.liveRebuilds.Store(e.liveRebuilds)
	s.poolTasks.Store(e.pool.submitted)
	s.flHits.Store(e.flHits)
	s.flMisses.Store(e.flMisses)
}

// Stats returns the engine's instrumentation snapshot as of the last
// completed cycle. Safe to call from any goroutine, concurrently with
// RunCycle; it allocates nothing and never perturbs a run (no RNG, no
// lock shared with the hot path).
func (e *Engine) Stats() EngineStats {
	s := &e.stats
	return EngineStats{
		Cycles:           s.cycles.Load(),
		Delivered:        s.delivered.Load(),
		Dropped:          s.dropped.Load(),
		Delayed:          s.delayed.Load(),
		Corrupted:        s.corrupted.Load(),
		Evals:            s.evals.Load(),
		ProposeNanos:     s.proposeNanos.Load(),
		ApplyNanos:       s.applyNanos.Load(),
		ApplyRounds:      s.applyRounds.Load(),
		ApplyJobs:        s.applyJobs.Load(),
		ApplyBatches:     s.applyBatches.Load(),
		PayloadsRecycled: s.payloadsRecycled.Load(),
		ShardedRounds:    s.shardedRounds.Load(),
		ShardMinLoad:     s.shardMin.Load(),
		ShardMaxLoad:     s.shardMax.Load(),
		ShardMeanLoad:    math.Float64frombits(s.shardMeanBits.Load()),
		LiveRebuilds:     s.liveRebuilds.Load(),
		PoolTasks:        s.poolTasks.Load(),
		FreeListHits:     s.flHits.Load(),
		FreeListMisses:   s.flMisses.Load(),
	}
}
