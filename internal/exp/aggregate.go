package exp

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"gossipopt/internal/stats"
)

// Per-cell aggregation for scenario sweeps. A sweep expands into cells
// (one spec per grid point); every cell runs Reps repetitions, and this
// file reduces each cell's final-sample records to min/mean/max/stddev
// per metric plus the cycles-to-threshold statistic, rendered as a
// deterministic long-format summary table (CSV or JSONL) and a
// human-readable comparison report (SweepReport).

// MetricStat summarizes one metric across a cell's repetitions.
type MetricStat struct {
	// N is the number of samples aggregated (repetitions; for
	// to_threshold, only the repetitions that reached the threshold).
	N int64 `json:"n"`
	// Min, Mean, Max, Std are the sample statistics (Std is the unbiased
	// sample standard deviation; 0 for fewer than two samples).
	Min  float64 `json:"min"`
	Mean float64 `json:"mean"`
	Max  float64 `json:"max"`
	Std  float64 `json:"std"`
}

// statOf freezes a streaming accumulator into a MetricStat.
func statOf(a *stats.Acc) MetricStat {
	return MetricStat{N: a.N(), Min: a.Min(), Mean: a.Mean(), Max: a.Max(), Std: a.Std()}
}

// CellSummary is the per-cell aggregate of a sweep: every Record metric at
// the final sample, summarized over the cell's repetitions, plus the
// time-to-threshold statistic when the sweep declares a quality threshold.
type CellSummary struct {
	// Sweep and Cell identify the grid point; Reps is the repetition count.
	Sweep string
	Cell  string
	Reps  int
	// Final-sample statistics, one per Record metric.
	Quality   MetricStat
	Time      MetricStat
	Evals     MetricStat
	Live      MetricStat
	Exchanges MetricStat
	Lost      MetricStat
	Adoptions MetricStat
	Delivered MetricStat
	Dropped   MetricStat
	// Threshold, when non-nil, is the quality threshold the sweep measured
	// convergence against; ToThreshold summarizes the first sample time at
	// which each repetition's quality reached it, over the Reached
	// repetitions only (Censored repetitions never reached it).
	Threshold   *float64
	ToThreshold MetricStat
	Reached     int
	Censored    int
	// Engine, when the runner collected instrumentation, summarizes the
	// cell's engine stats snapshots. The summary-table writers ignore it
	// (the fixed metric list above is the table), so its presence never
	// changes the emitted bytes; cmd/scenario -statsjson renders it.
	Engine *EngineStatsSummary
}

// AggregateCell reduces one cell's repetitions: finals holds each
// repetition's final-sample Record, and toThreshold (parallel to finals,
// used only when threshold is non-nil) holds each repetition's first
// sample time with quality <= threshold, NaN when never reached.
func AggregateCell(sweep, cell string, finals []Record, toThreshold []float64, threshold *float64) CellSummary {
	var q, tm, ev, lv, ex, lo, ad, dl, dr, tth stats.Acc
	cs := CellSummary{Sweep: sweep, Cell: cell, Reps: len(finals), Threshold: threshold}
	for _, r := range finals {
		q.Add(r.Quality)
		tm.Add(r.Time)
		ev.Add(float64(r.Evals))
		lv.Add(float64(r.Live))
		ex.Add(float64(r.Exchanges))
		lo.Add(float64(r.Lost))
		ad.Add(float64(r.Adoptions))
		dl.Add(float64(r.Delivered))
		dr.Add(float64(r.Dropped))
	}
	if threshold != nil {
		for _, t := range toThreshold {
			if math.IsNaN(t) {
				cs.Censored++
				continue
			}
			cs.Reached++
			tth.Add(t)
		}
	}
	cs.Quality, cs.Time, cs.Evals, cs.Live = statOf(&q), statOf(&tm), statOf(&ev), statOf(&lv)
	cs.Exchanges, cs.Lost, cs.Adoptions = statOf(&ex), statOf(&lo), statOf(&ad)
	cs.Delivered, cs.Dropped, cs.ToThreshold = statOf(&dl), statOf(&dr), statOf(&tth)
	return cs
}

// summaryColumns is the fixed header of the long-format summary table:
// one row per (cell, metric) pair, metrics in a fixed order, so the table
// is byte-deterministic and trivially greppable/pivotable.
var summaryColumns = []string{
	"sweep", "cell", "reps", "metric", "n", "min", "mean", "max", "std",
}

// summaryMetrics lists each cell's rows in emission order. The
// to_threshold row is appended only when the sweep declares a threshold.
func (c *CellSummary) summaryMetrics() []struct {
	Name string
	Stat MetricStat
} {
	rows := []struct {
		Name string
		Stat MetricStat
	}{
		{"quality", c.Quality},
		{"time", c.Time},
		{"evals", c.Evals},
		{"live", c.Live},
		{"exchanges", c.Exchanges},
		{"lost", c.Lost},
		{"adoptions", c.Adoptions},
		{"delivered", c.Delivered},
		{"dropped", c.Dropped},
	}
	if c.Threshold != nil {
		rows = append(rows, struct {
			Name string
			Stat MetricStat
		}{"to_threshold", c.ToThreshold})
	}
	return rows
}

// WriteCellSummariesCSV renders the summary table as CSV with a fixed
// header; floats use the same shortest-round-trip form as the metric
// sinks, so identical sweeps produce identical files.
func WriteCellSummariesCSV(w io.Writer, cells []CellSummary) error {
	if _, err := io.WriteString(w, strings.Join(summaryColumns, ",")+"\n"); err != nil {
		return err
	}
	for i := range cells {
		c := &cells[i]
		for _, m := range c.summaryMetrics() {
			_, err := fmt.Fprintf(w, "%s,%s,%d,%s,%d,%s,%s,%s,%s\n",
				csvEscape(c.Sweep), csvEscape(c.Cell), c.Reps, m.Name, m.Stat.N,
				fnum(m.Stat.Min), fnum(m.Stat.Mean), fnum(m.Stat.Max), fnum(m.Stat.Std))
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// WriteCellSummariesJSONL renders the summary table as JSON lines, one
// object per (cell, metric) row, keys in the CSV column order.
func WriteCellSummariesJSONL(w io.Writer, cells []CellSummary) error {
	for i := range cells {
		c := &cells[i]
		for _, m := range c.summaryMetrics() {
			_, err := fmt.Fprintf(w,
				`{"sweep":%s,"cell":%s,"reps":%d,"metric":%s,"n":%d,"min":%s,"mean":%s,"max":%s,"std":%s}`+"\n",
				strconv.Quote(c.Sweep), strconv.Quote(c.Cell), c.Reps, strconv.Quote(m.Name), m.Stat.N,
				jsonNum(m.Stat.Min), jsonNum(m.Stat.Mean), jsonNum(m.Stat.Max), jsonNum(m.Stat.Std))
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// TimeToThreshold scans one repetition's emitted records (in sample
// order) and returns the first sample time at which quality reached the
// threshold, or NaN when no sample did (a censored repetition). A
// threshold reached at the very first sample — including a sample at
// cycle/time 0 — reports that sample's time.
func TimeToThreshold(recs []Record, threshold float64) float64 {
	for _, r := range recs {
		if r.Quality <= threshold {
			return r.Time
		}
	}
	return math.NaN()
}

// SweepReport renders cell summaries as a human-readable comparison
// table: one row per cell with the final-sample quality (mean ± std over
// repetitions), mean time and evaluation counts, mean dropped messages,
// and — when the sweep declares a threshold — the mean time-to-threshold
// with the reached/total ratio. The row with the best (lowest) mean
// quality is marked '*'; with a threshold, the row with the best mean
// time-to-threshold among fully-reaching cells is marked '>' ('*>' when
// one cell wins both).
func SweepReport(title string, cells []CellSummary) string {
	var b strings.Builder
	fmt.Fprintf(&b, "== sweep %s ==\n", title)
	hasThreshold := false
	for i := range cells {
		if cells[i].Threshold != nil {
			hasThreshold = true
			break
		}
	}
	width := 12
	for i := range cells {
		if n := len(cells[i].Cell); n > width {
			width = n
		}
	}
	fmt.Fprintf(&b, "   %-*s %5s %24s %10s %10s %10s", width, "cell", "reps",
		"quality (mean±std)", "time", "evals", "dropped")
	if hasThreshold {
		fmt.Fprintf(&b, " %16s", "to-thr (reached)")
	}
	b.WriteString("\n")

	bestQ, bestT := -1, -1
	for i := range cells {
		c := &cells[i]
		if c.Quality.N > 0 && (bestQ < 0 || c.Quality.Mean < cells[bestQ].Quality.Mean) {
			bestQ = i
		}
		if c.Threshold != nil && c.Reached == c.Reps && c.Reps > 0 &&
			(bestT < 0 || c.ToThreshold.Mean < cells[bestT].ToThreshold.Mean) {
			bestT = i
		}
	}
	for i := range cells {
		c := &cells[i]
		mark := ""
		if i == bestQ {
			mark += "*"
		}
		if i == bestT {
			mark += ">"
		}
		fmt.Fprintf(&b, "%-2s %-*s %5d %24s %10.5g %10.5g %10.5g", mark, width, c.Cell, c.Reps,
			fmt.Sprintf("%.5g±%.3g", c.Quality.Mean, c.Quality.Std),
			c.Time.Mean, c.Evals.Mean, c.Dropped.Mean)
		if hasThreshold {
			if c.Reached > 0 {
				fmt.Fprintf(&b, " %10.5g %2d/%2d", c.ToThreshold.Mean, c.Reached, c.Reps)
			} else {
				// ASCII dash: %10s pads by bytes, so a multi-byte dash
				// would misalign the column.
				fmt.Fprintf(&b, " %10s %2d/%2d", "-", 0, c.Reps)
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}
