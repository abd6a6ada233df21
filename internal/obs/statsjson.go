package obs

import (
	"encoding/json"
	"io"
	"sync"

	"gossipopt/internal/exp"
	"gossipopt/internal/overlay"
	"gossipopt/internal/sim"
)

// RepStats is one repetition's end-of-run engine statistics, emitted as
// one JSON line by cmd/scenario -statsjson. Rep lines stream out as
// repetitions finish, in canonical cell-then-repetition order.
type RepStats struct {
	// Scenario is the spec (or sweep cell) name the repetition ran.
	Scenario string `json:"scenario"`
	// Rep and Seed identify the repetition within its campaign/cell.
	Rep  int    `json:"rep"`
	Seed uint64 `json:"seed"`
	// Cycles and Quality are the repetition's end-of-run outcome (cycles
	// completed / samples taken, and the final solution quality).
	Cycles  int64   `json:"cycles"`
	Quality float64 `json:"quality"`
	// Stats is the engine's instrumentation snapshot at the end of the
	// repetition. Event-engine repetitions fill only the delivery counters.
	Stats sim.EngineStats `json:"stats"`
	// Health is the overlay's view health, when the repetition has one.
	Health *overlay.ViewHealth `json:"health,omitempty"`
}

// CellStats is one sweep cell's aggregated engine statistics, emitted as
// one JSON line after the cell's rep lines.
type CellStats struct {
	// Sweep and Cell identify the grid point; Reps is its repetition count.
	Sweep string `json:"sweep"`
	Cell  string `json:"cell"`
	Reps  int    `json:"reps"`
	// Stats summarizes the cell's per-repetition engine snapshots.
	Stats exp.EngineStatsSummary `json:"stats"`
}

// StatsWriter emits JSON lines (one value per Write call) to an
// underlying writer. Writes are serialized by a mutex, so progress
// callbacks and end-of-run summaries can share one writer.
type StatsWriter struct {
	mu  sync.Mutex
	enc *json.Encoder
}

// NewStatsWriter returns a StatsWriter emitting to w.
func NewStatsWriter(w io.Writer) *StatsWriter {
	return &StatsWriter{enc: json.NewEncoder(w)}
}

// Write encodes v as one JSON line.
func (s *StatsWriter) Write(v any) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.enc.Encode(v)
}
