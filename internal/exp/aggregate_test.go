package exp

import (
	"math"
	"strings"
	"testing"
)

// TestAggregateCellStddev checks the aggregation math on known inputs:
// qualities {2,4,4,4,5,5,7,9} have mean 5 and unbiased sample variance
// 32/7, so std = sqrt(32/7).
func TestAggregateCellStddev(t *testing.T) {
	vals := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	finals := make([]Record, len(vals))
	for i, v := range vals {
		finals[i] = Record{Quality: v, Time: 10, Evals: int64(i), Live: 3}
	}
	cs := AggregateCell("s", "c", finals, nil, nil)
	q := cs.Quality
	if q.N != 8 || q.Min != 2 || q.Max != 9 || q.Mean != 5 {
		t.Fatalf("quality stat wrong: %+v", q)
	}
	if want := math.Sqrt(32.0 / 7.0); math.Abs(q.Std-want) > 1e-12 {
		t.Fatalf("std %v, want %v", q.Std, want)
	}
	if cs.Time.Std != 0 || cs.Time.Mean != 10 {
		t.Fatalf("constant metric should have zero std: %+v", cs.Time)
	}
	if cs.Evals.Min != 0 || cs.Evals.Max != 7 || cs.Evals.Mean != 3.5 {
		t.Fatalf("evals stat wrong: %+v", cs.Evals)
	}
	if cs.Threshold != nil || cs.Reached != 0 || cs.Censored != 0 {
		t.Fatalf("threshold fields set without a threshold: %+v", cs)
	}
}

// TestAggregateCellToThreshold covers the censoring edge cases: never
// reached (NaN), reached at time 0, and the mixed case.
func TestAggregateCellToThreshold(t *testing.T) {
	th := 0.5
	finals := []Record{{Quality: 0.1}, {Quality: 0.9}, {Quality: 0.2}}
	tth := []float64{0, math.NaN(), 30}
	cs := AggregateCell("s", "c", finals, tth, &th)
	if cs.Reached != 2 || cs.Censored != 1 {
		t.Fatalf("reached/censored wrong: %+v", cs)
	}
	if cs.ToThreshold.N != 2 || cs.ToThreshold.Min != 0 || cs.ToThreshold.Max != 30 || cs.ToThreshold.Mean != 15 {
		t.Fatalf("to-threshold stat wrong: %+v", cs.ToThreshold)
	}
	// All censored: the stat stays empty instead of reporting zeros as
	// if they were measurements.
	all := AggregateCell("s", "c", finals, []float64{math.NaN(), math.NaN(), math.NaN()}, &th)
	if all.Reached != 0 || all.Censored != 3 || all.ToThreshold.N != 0 {
		t.Fatalf("all-censored accounting wrong: %+v", all)
	}
}

// TestTimeToThreshold covers the scan edge cases: reached at the first
// sample (time 0 included), reached mid-run, never reached, no rows.
func TestTimeToThreshold(t *testing.T) {
	recs := []Record{
		{Time: 0, Quality: 10},
		{Time: 10, Quality: 2},
		{Time: 20, Quality: 0.5},
		{Time: 30, Quality: 0.1},
	}
	if got := TimeToThreshold(recs, 1); got != 20 {
		t.Fatalf("threshold 1 reached at %v, want 20", got)
	}
	if got := TimeToThreshold(recs, 100); got != 0 {
		t.Fatalf("loose threshold should be reached at the first sample (time 0): %v", got)
	}
	if got := TimeToThreshold(recs, 0.01); !math.IsNaN(got) {
		t.Fatalf("unreachable threshold should be NaN, got %v", got)
	}
	if got := TimeToThreshold(nil, 1); !math.IsNaN(got) {
		t.Fatalf("no rows should be NaN, got %v", got)
	}
}

// TestCellSummaryTables pins the deterministic rendering of the summary
// table in both formats.
func TestCellSummaryTables(t *testing.T) {
	th := 0.5
	cells := []CellSummary{
		AggregateCell("sw", "sw/a=1", []Record{{Quality: 1, Time: 10}, {Quality: 3, Time: 10}}, []float64{5, math.NaN()}, &th),
	}
	var csv strings.Builder
	if err := WriteCellSummariesCSV(&csv, cells); err != nil {
		t.Fatal(err)
	}
	out := csv.String()
	if !strings.HasPrefix(out, "sweep,cell,reps,metric,n,min,mean,max,std\n") {
		t.Fatalf("missing header:\n%s", out)
	}
	if !strings.Contains(out, "sw,sw/a=1,2,quality,2,1,2,3,") {
		t.Fatalf("quality row missing:\n%s", out)
	}
	if !strings.Contains(out, ",to_threshold,1,5,5,5,0\n") {
		t.Fatalf("to_threshold row missing (n must count reaching reps only):\n%s", out)
	}
	if strings.Count(out, "\n") != 1+10 {
		t.Fatalf("expected header + 10 metric rows:\n%s", out)
	}

	var jsonl strings.Builder
	if err := WriteCellSummariesJSONL(&jsonl, cells); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(jsonl.String(), `{"sweep":"sw","cell":"sw/a=1","reps":2,"metric":"quality","n":2,"min":1,"mean":2,"max":3,"std":`) {
		t.Fatalf("jsonl row missing:\n%s", jsonl.String())
	}

	// Without a threshold the to_threshold row is omitted entirely.
	bare := []CellSummary{AggregateCell("sw", "c", []Record{{Quality: 1}}, nil, nil)}
	var b2 strings.Builder
	if err := WriteCellSummariesCSV(&b2, bare); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(b2.String(), "to_threshold") {
		t.Fatalf("to_threshold emitted without a threshold:\n%s", b2.String())
	}
}

// TestSweepReportMarksBest: the lowest-mean-quality row gets '*' and,
// with a threshold, the fastest fully-reaching row gets '>'.
func TestSweepReportMarksBest(t *testing.T) {
	th := 0.5
	a := AggregateCell("sw", "slowbutgood", []Record{{Quality: 0.1, Time: 100}}, []float64{90}, &th)
	b := AggregateCell("sw", "fastbutworse", []Record{{Quality: 0.4, Time: 100}}, []float64{20}, &th)
	c := AggregateCell("sw", "censored", []Record{{Quality: 0.9, Time: 100}}, []float64{math.NaN()}, &th)
	report := SweepReport("sw", []CellSummary{a, b, c})
	lines := strings.Split(report, "\n")
	var star, arrow, dash string
	for _, l := range lines {
		if strings.HasPrefix(l, "*") {
			star = l
		}
		if strings.HasPrefix(l, ">") {
			arrow = l
		}
		if strings.Contains(l, "censored") {
			dash = l
		}
	}
	if !strings.Contains(star, "slowbutgood") {
		t.Fatalf("best quality row not starred:\n%s", report)
	}
	if !strings.Contains(arrow, "fastbutworse") {
		t.Fatalf("best to-threshold row not marked:\n%s", report)
	}
	if !strings.Contains(dash, "         - ") || !strings.Contains(dash, " 0/ 1") {
		t.Fatalf("censored row should show an aligned dash and 0/1:\n%s", report)
	}
}
