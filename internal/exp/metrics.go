package exp

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// Structured per-cycle metric emission. The scenario runner emits one
// Record per sample point into a Sink; the CSV and JSONL
// sinks render rows byte-deterministically (fields in a fixed order,
// floats via strconv's shortest round-trip form), so identical runs
// produce identical files — the property the scenario subsystem's golden
// and worker-invariance tests assert.

// Record is one metric sample of a running network.
type Record struct {
	// Scenario names the spec (or experiment) being run; Rep and Seed
	// identify the repetition within a campaign.
	Scenario string
	Rep      int
	Seed     uint64
	// Cycle is the completed-cycle count (cycle engine) or the sample
	// index (event engine); Time is the simulated time (== Cycle on the
	// cycle engine).
	Cycle int64
	Time  float64
	// Live is the live-node count.
	Live int
	// Evals is the network-wide objective evaluation count.
	Evals int64
	// Quality is f(best) − f(x*); +Inf before any evaluation.
	Quality float64
	// Exchanges/Lost/Adoptions are the coordination-service counters.
	Exchanges int64
	Lost      int64
	Adoptions int64
	// Delivered/Dropped are the engine's message counters (dropped counts
	// dead destinations, partitions and link loss).
	Delivered int64
	Dropped   int64
}

// Sink consumes metric records.
type Sink interface {
	Emit(Record) error
	// Flush forces buffered rows out (sinks are buffered for the many-
	// small-rows emission pattern).
	Flush() error
}

// recordColumns is the fixed CSV header / JSON key order.
var recordColumns = []string{
	"scenario", "rep", "seed", "cycle", "time", "live", "evals",
	"quality", "exchanges", "lost", "adoptions", "delivered", "dropped",
}

// fnum renders a float deterministically: shortest form that round-trips,
// infinities as ±inf (quality is +Inf before the first evaluation).
func fnum(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "inf"
	case math.IsInf(v, -1):
		return "-inf"
	case math.IsNaN(v):
		return "nan"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// jsonNum renders a float as a JSON value; non-finite values (not
// representable in JSON) become null.
func jsonNum(v float64) string {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return "null"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// CSVSink writes records as CSV with a fixed header, emitted before the
// first row.
type CSVSink struct {
	w      *bufio.Writer
	header bool
}

// NewCSVSink returns a Sink rendering records as CSV rows on w.
func NewCSVSink(w io.Writer) *CSVSink { return &CSVSink{w: bufio.NewWriter(w)} }

// Emit implements Sink.
func (s *CSVSink) Emit(r Record) error {
	if !s.header {
		s.header = true
		if _, err := s.w.WriteString(strings.Join(recordColumns, ",") + "\n"); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(s.w, "%s,%d,%d,%d,%s,%d,%d,%s,%d,%d,%d,%d,%d\n",
		csvEscape(r.Scenario), r.Rep, r.Seed, r.Cycle, fnum(r.Time), r.Live, r.Evals,
		fnum(r.Quality), r.Exchanges, r.Lost, r.Adoptions, r.Delivered, r.Dropped)
	return err
}

// Flush implements Sink.
func (s *CSVSink) Flush() error { return s.w.Flush() }

// csvEscape quotes a field when it contains CSV metacharacters.
func csvEscape(f string) string {
	if !strings.ContainsAny(f, ",\"\n") {
		return f
	}
	return `"` + strings.ReplaceAll(f, `"`, `""`) + `"`
}

// JSONLSink writes one JSON object per record per line, keys in the same
// fixed order as the CSV columns.
type JSONLSink struct {
	w *bufio.Writer
}

// NewJSONLSink returns a Sink rendering records as JSON lines on w.
func NewJSONLSink(w io.Writer) *JSONLSink { return &JSONLSink{w: bufio.NewWriter(w)} }

// Emit implements Sink.
func (s *JSONLSink) Emit(r Record) error {
	_, err := fmt.Fprintf(s.w,
		`{"scenario":%s,"rep":%d,"seed":%d,"cycle":%d,"time":%s,"live":%d,"evals":%d,"quality":%s,"exchanges":%d,"lost":%d,"adoptions":%d,"delivered":%d,"dropped":%d}`+"\n",
		strconv.Quote(r.Scenario), r.Rep, r.Seed, r.Cycle, jsonNum(r.Time), r.Live, r.Evals,
		jsonNum(r.Quality), r.Exchanges, r.Lost, r.Adoptions, r.Delivered, r.Dropped)
	return err
}

// Flush implements Sink.
func (s *JSONLSink) Flush() error { return s.w.Flush() }

// DiscardSink drops every record (benchmarks, dry runs).
type DiscardSink struct{}

// Emit implements Sink.
func (DiscardSink) Emit(Record) error { return nil }

// Flush implements Sink.
func (DiscardSink) Flush() error { return nil }
