package exp

import (
	"gossipopt/internal/sim"
	"gossipopt/internal/stats"
)

// EngineStatsSummary aggregates per-repetition engine instrumentation
// snapshots (sim.EngineStats) across a sweep cell: one MetricStat per
// instrumentation counter, over the cell's repetitions. It rides on
// CellSummary as an optional extra — the summary-table writers ignore it,
// so enabling instrumentation never changes the table bytes; it surfaces
// through cmd/scenario -statsjson cell lines instead.
type EngineStatsSummary struct {
	// ProposeNanos and ApplyNanos summarize the cumulative per-phase wall
	// times (nanoseconds per repetition).
	ProposeNanos MetricStat `json:"propose_ns"`
	ApplyNanos   MetricStat `json:"apply_ns"`
	// ApplyRounds and ApplyJobs summarize apply-phase volume; ApplyBatches
	// the (handling node, round) pairs those jobs were spread over.
	ApplyRounds  MetricStat `json:"apply_rounds"`
	ApplyJobs    MetricStat `json:"apply_jobs"`
	ApplyBatches MetricStat `json:"apply_batches"`
	// ShardSkew summarizes each repetition's apply-shard load-imbalance
	// ratio (sim.EngineStats.ShardSkew; 1 = perfectly even).
	ShardSkew MetricStat `json:"shard_skew"`
	// LiveRebuilds and PoolTasks summarize live-index rebuild and
	// worker-pool submission counts.
	LiveRebuilds MetricStat `json:"live_rebuilds"`
	PoolTasks    MetricStat `json:"pool_tasks"`
	// PayloadsRecycled summarizes end-of-cycle payload recycles (engine-owned
	// and worker-invariant, unlike the process-global free-list counters).
	PayloadsRecycled MetricStat `json:"payloads_recycled"`
	// Delayed and Corrupted summarize the per-link network model's verdict
	// counts (sim.EngineStats.Delayed/Corrupted); zero when no model runs.
	Delayed   MetricStat `json:"delayed"`
	Corrupted MetricStat `json:"corrupted"`
}

// AggregateEngineStats reduces one cell's per-repetition engine snapshots
// to an EngineStatsSummary.
func AggregateEngineStats(snaps []sim.EngineStats) EngineStatsSummary {
	var pn, an, ar, aj, ab, sk, lr, pt, pr, dl, co stats.Acc
	for _, s := range snaps {
		pn.Add(float64(s.ProposeNanos))
		an.Add(float64(s.ApplyNanos))
		ar.Add(float64(s.ApplyRounds))
		aj.Add(float64(s.ApplyJobs))
		ab.Add(float64(s.ApplyBatches))
		sk.Add(s.ShardSkew())
		lr.Add(float64(s.LiveRebuilds))
		pt.Add(float64(s.PoolTasks))
		pr.Add(float64(s.PayloadsRecycled))
		dl.Add(float64(s.Delayed))
		co.Add(float64(s.Corrupted))
	}
	return EngineStatsSummary{
		ProposeNanos:     statOf(&pn),
		ApplyNanos:       statOf(&an),
		ApplyRounds:      statOf(&ar),
		ApplyJobs:        statOf(&aj),
		ApplyBatches:     statOf(&ab),
		ShardSkew:        statOf(&sk),
		LiveRebuilds:     statOf(&lr),
		PoolTasks:        statOf(&pt),
		PayloadsRecycled: statOf(&pr),
		Delayed:          statOf(&dl),
		Corrupted:        statOf(&co),
	}
}
