package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strings"

	"gossipopt/internal/exp"
	"gossipopt/internal/sim"
)

// Scenario sweeps: a SweepSpec is a base Spec plus a grid of named
// override axes; the grid expands into cells (one fully-overridden,
// validated Spec per grid point), every cell × repetition job runs on the
// campaign's bounded worker pool, and each cell's final-sample metrics
// are reduced to a per-cell summary (internal/exp.AggregateCell). Like
// everything else in this package, the emitted bytes are identical for
// any worker count: rows are buffered per repetition and flushed in
// cell-then-repetition order.

// maxSweepCells bounds a sweep's grid; a larger product is almost
// certainly a typo (e.g. a values array pasted twice) and would silently
// queue days of work.
const maxSweepCells = 4096

// SweepSpec describes a parameter sweep as data: a base scenario and the
// override axes whose cartesian product forms the grid.
type SweepSpec struct {
	// Name labels the sweep; every cell name is prefixed with it.
	Name        string `json:"name"`
	Description string `json:"description,omitempty"`
	// Base is the spec every cell starts from. Its name is ignored (cells
	// are named after their grid point) and its seed is the campaign's
	// base seed unless Options.BaseSeed overrides it.
	Base Spec `json:"base"`
	// Axes are the sweep dimensions, expanded row-major: the grid
	// iterates the last axis fastest, so cell order — and therefore
	// output order — is fully determined by the spec.
	Axes []Axis `json:"axes"`
	// Reps is the default repetitions per cell (default 1);
	// Options.Reps overrides it.
	Reps int `json:"reps,omitempty"`
	// Threshold, when set, measures convergence: each repetition reports
	// the first sample time at which quality reached it (repetitions that
	// never reach it are censored). It never stops a run — cells stay
	// comparable because every repetition runs the full spec.
	Threshold *float64 `json:"threshold,omitempty"`
}

// Axis is one sweep dimension: a name (used in cell names), an optional
// dotted field path, and the values the grid takes on it.
type Axis struct {
	// Name labels the axis in cell names ("overlay=random").
	Name string `json:"name"`
	// Path, when set, is a dotted JSON field path into the spec
	// ("nodes", "stack.topology") and each value lands at that path.
	// Without a path, each value must be a JSON object that deep-merges
	// into the spec: objects merge recursively, everything else (arrays,
	// scalars) replaces, and null resets a field to its default.
	Path string `json:"path,omitempty"`
	// Values are the axis's grid points.
	Values []AxisValue `json:"values"`
}

// AxisValue is one point on an axis.
type AxisValue struct {
	// Label names the value in cell names; it defaults to the compact
	// JSON of Value (for strings, the unquoted string).
	Label string `json:"label,omitempty"`
	// Value is the raw JSON placed at the axis path or deep-merged.
	Value json.RawMessage `json:"value"`
}

// SweepCell is one expanded grid point.
type SweepCell struct {
	// Index is the cell's position in row-major grid order (last axis
	// fastest); repetition seeds derive from it via exp.SeedFor.
	Index int
	// Name is "<sweep>/<axis>=<label>,..." — the scenario column of the
	// cell's metric rows.
	Name string
	// Labels holds the "axis=label" pairs in axis order.
	Labels []string
	// Spec is the fully-overridden, normalized spec the cell runs.
	Spec Spec
}

// ParseSweep decodes a JSON sweep spec strictly (unknown fields are
// errors, exactly like Parse) and validates it by expanding the grid.
func ParseSweep(data []byte) (SweepSpec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var sw SweepSpec
	if err := dec.Decode(&sw); err != nil {
		return SweepSpec{}, fmt.Errorf("parsing sweep spec: %w", err)
	}
	if _, err := sw.Cells(); err != nil {
		return SweepSpec{}, err
	}
	return sw, nil
}

// Cells expands the sweep into its grid, row-major with the last axis
// fastest, validating every resulting spec. Expansion is deterministic:
// the same SweepSpec always yields the same cells in the same order.
func (sw SweepSpec) Cells() ([]SweepCell, error) {
	if sw.Name == "" {
		return nil, fmt.Errorf("sweep spec needs a name")
	}
	if len(sw.Axes) == 0 {
		return nil, fmt.Errorf("sweep %q: needs at least one axis", sw.Name)
	}
	if sw.Threshold != nil && math.IsNaN(*sw.Threshold) {
		return nil, fmt.Errorf("sweep %q: threshold is NaN", sw.Name)
	}
	seen := map[string]bool{}
	total := 1
	for i, ax := range sw.Axes {
		if ax.Name == "" {
			return nil, fmt.Errorf("sweep %q: axes[%d] needs a name", sw.Name, i)
		}
		if seen[ax.Name] {
			return nil, fmt.Errorf("sweep %q: duplicate axis %q", sw.Name, ax.Name)
		}
		seen[ax.Name] = true
		if len(ax.Values) == 0 {
			return nil, fmt.Errorf("sweep %q: axis %q has no values", sw.Name, ax.Name)
		}
		// Duplicate labels would expand into cells with identical names
		// but different seeds — indistinguishable in every output. Most
		// likely a pasted value; reject like any other typo.
		labels := map[string]bool{}
		for j, v := range ax.Values {
			if len(v.Value) == 0 {
				return nil, fmt.Errorf("sweep %q: axis %q values[%d] has no value", sw.Name, ax.Name, j)
			}
			l := valueLabel(v)
			if labels[l] {
				return nil, fmt.Errorf("sweep %q: axis %q has two values labeled %q (give one an explicit label)", sw.Name, ax.Name, l)
			}
			labels[l] = true
		}
		if total > maxSweepCells/len(ax.Values) {
			return nil, fmt.Errorf("sweep %q: grid exceeds %d cells", sw.Name, maxSweepCells)
		}
		total *= len(ax.Values)
	}

	// The base spec as a generic JSON object, the substrate overrides
	// apply to. Marshaling a Spec cannot fail (no channels/funcs/cycles).
	baseJSON, err := json.Marshal(sw.Base)
	if err != nil {
		return nil, fmt.Errorf("sweep %q: base: %w", sw.Name, err)
	}
	var baseMap map[string]any
	if err := json.Unmarshal(baseJSON, &baseMap); err != nil {
		return nil, fmt.Errorf("sweep %q: base: %w", sw.Name, err)
	}

	cells := make([]SweepCell, 0, total)
	idx := make([]int, len(sw.Axes))
	for ci := 0; ci < total; ci++ {
		m := copyJSON(baseMap).(map[string]any)
		labels := make([]string, len(sw.Axes))
		for ai, ax := range sw.Axes {
			v := ax.Values[idx[ai]]
			labels[ai] = ax.Name + "=" + valueLabel(v)
			if err := applyOverride(m, ax, v); err != nil {
				return nil, fmt.Errorf("sweep %q: axis %q value %q: %w", sw.Name, ax.Name, valueLabel(v), err)
			}
		}
		name := sw.Name + "/" + strings.Join(labels, ",")
		spec, err := decodeCellSpec(m, name)
		if err != nil {
			return nil, fmt.Errorf("sweep %q: cell %s: %w", sw.Name, name, err)
		}
		// Repetition seeds derive from the base seed and the cell index,
		// never from the cell spec — a seed axis would label cells with
		// seeds that are not actually used, so reject it.
		if spec.Seed != sw.Base.Seed {
			return nil, fmt.Errorf("sweep %q: cell %s overrides seed: seeds derive from the base seed and the cell index (set base.seed or -seed instead)", sw.Name, name)
		}
		cells = append(cells, SweepCell{Index: ci, Name: name, Labels: labels, Spec: spec})

		// Odometer step, last axis fastest.
		for ai := len(idx) - 1; ai >= 0; ai-- {
			idx[ai]++
			if idx[ai] < len(sw.Axes[ai].Values) {
				break
			}
			idx[ai] = 0
		}
	}
	return cells, nil
}

// valueLabel renders an axis value's cell-name fragment: the explicit
// label, or the compact JSON of the value (strings unquoted).
func valueLabel(v AxisValue) string {
	if v.Label != "" {
		return v.Label
	}
	var s string
	if err := json.Unmarshal(v.Value, &s); err == nil {
		return s
	}
	var buf bytes.Buffer
	if err := json.Compact(&buf, v.Value); err != nil {
		return string(v.Value)
	}
	return buf.String()
}

// applyOverride places one axis value into the spec's JSON object: at the
// axis's dotted path, or (pathless) deep-merged at the top level.
func applyOverride(m map[string]any, ax Axis, v AxisValue) error {
	var decoded any
	if err := json.Unmarshal(v.Value, &decoded); err != nil {
		return fmt.Errorf("invalid JSON: %w", err)
	}
	if ax.Path != "" {
		return setPath(m, ax.Path, decoded)
	}
	patch, ok := decoded.(map[string]any)
	if !ok {
		return fmt.Errorf("a pathless axis deep-merges, so its values must be JSON objects (got %s)", string(v.Value))
	}
	deepMerge(m, patch)
	return nil
}

// deepMerge merges src into dst: objects merge recursively, everything
// else — arrays, scalars, null — replaces the destination value. A null
// survives into the re-decoded spec as an untouched (default) field, so
// it effectively resets whatever the base had set.
func deepMerge(dst, src map[string]any) {
	for k, v := range src {
		if sv, ok := v.(map[string]any); ok {
			if dv, ok := dst[k].(map[string]any); ok {
				//simcheck:allow determinism per-key recursive merge into a map is order-independent
				deepMerge(dv, sv)
				continue
			}
		}
		dst[k] = v
	}
}

// setPath sets the dotted path in m to v, creating intermediate objects.
// Unknown leaf names are not detected here — the strict re-decode in
// decodeCellSpec turns them into "unknown field" errors.
func setPath(m map[string]any, path string, v any) error {
	parts := strings.Split(path, ".")
	for _, p := range parts {
		if p == "" {
			return fmt.Errorf("path %q has an empty segment", path)
		}
	}
	cur := m
	for i, p := range parts[:len(parts)-1] {
		next, ok := cur[p]
		if !ok || next == nil {
			child := map[string]any{}
			cur[p] = child
			cur = child
			continue
		}
		child, ok := next.(map[string]any)
		if !ok {
			return fmt.Errorf("path %q: %q is not an object", path, strings.Join(parts[:i+1], "."))
		}
		cur = child
	}
	cur[parts[len(parts)-1]] = v
	return nil
}

// copyJSON deep-copies a decoded JSON value so per-cell overrides cannot
// bleed into the shared base object.
func copyJSON(v any) any {
	switch t := v.(type) {
	case map[string]any:
		out := make(map[string]any, len(t))
		for k, e := range t {
			out[k] = copyJSON(e)
		}
		return out
	case []any:
		out := make([]any, len(t))
		for i, e := range t {
			out[i] = copyJSON(e)
		}
		return out
	default:
		return v
	}
}

// decodeCellSpec turns the overridden JSON object back into a strict,
// normalized Spec named after its grid point. The strict decode is what
// catches a typo'd axis path ("stack.topologyy") as an unknown field.
func decodeCellSpec(m map[string]any, name string) (Spec, error) {
	data, err := json.Marshal(m)
	if err != nil {
		return Spec{}, err
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var spec Spec
	if err := dec.Decode(&spec); err != nil {
		return Spec{}, err
	}
	spec.Name = name
	return spec.normalized()
}

// SweepCellResult is one cell's outcome: its per-repetition summaries and
// the aggregated cell summary.
type SweepCellResult struct {
	Cell SweepCell
	Sums []RepSummary
	// Summary aggregates the cell's final-sample metrics over its
	// repetitions (min/mean/max/stddev per metric, plus time-to-threshold
	// when the sweep declares a threshold).
	Summary exp.CellSummary
}

// RunSweep executes the sweep: every cell × repetition job runs on one
// bounded worker pool (Options.RepWorkers; jobs from different cells
// interleave freely, so the pool never drains at a cell boundary), each
// repetition buffers its rows, and the buffers are flushed into sink in
// cell-then-repetition order — streamed, so a completed leading cell's
// rows leave memory while later cells still run. The emitted bytes —
// rows and the returned summaries — are identical for every RepWorkers
// and Workers value. Repetition seeds derive from (base seed, cell
// index, rep) via exp.SeedFor; cell indices follow grid position, so
// appending values to the *first* axis extends a sweep while leaving
// existing cells' output unchanged (appending to a later axis renumbers
// the cells after the insertion point).
func RunSweep(sw SweepSpec, opts Options, sink exp.Sink) ([]SweepCellResult, error) {
	cells, err := sw.Cells()
	if err != nil {
		return nil, err
	}
	reps := opts.Reps
	if reps <= 0 {
		reps = sw.Reps
	}
	if reps <= 0 {
		reps = 1
	}
	base := opts.BaseSeed
	if base == 0 {
		base = sw.Base.Seed
	}
	specs := make([]Spec, len(cells))
	for i := range cells {
		specs[i] = cells[i].Spec
	}

	// Flush and aggregate in canonical cell-then-repetition order,
	// stopping at the first failed repetition (the rows already flushed —
	// and the fully-aggregated cells returned — are exactly what a
	// sequential runner would have produced).
	results := make([]SweepCellResult, 0, len(cells))
	var (
		sums        []RepSummary
		finals      []exp.Record
		toThreshold []float64
		rows        int64
	)
	err = runRepPool(specs, reps, opts, base, func(o repOut) error {
		if o.rep == 0 {
			sums = make([]RepSummary, 0, reps)
			finals = make([]exp.Record, 0, reps)
			toThreshold = toThreshold[:0]
		}
		if o.err != nil {
			return fmt.Errorf("sweep %q cell %s rep %d: %w", sw.Name, cells[o.cell].Name, o.rep, o.err)
		}
		for _, r := range o.recs {
			if err := sink.Emit(r); err != nil {
				return fmt.Errorf("sweep %q cell %s rep %d: %w", sw.Name, cells[o.cell].Name, o.rep, err)
			}
		}
		rows += int64(len(o.recs))
		sums = append(sums, o.sum)
		if n := len(o.recs); n > 0 {
			finals = append(finals, o.recs[n-1])
		}
		if sw.Threshold != nil {
			toThreshold = append(toThreshold, exp.TimeToThreshold(o.recs, *sw.Threshold))
		}
		if o.rep == reps-1 {
			summary := exp.AggregateCell(sw.Name, cells[o.cell].Name, finals, toThreshold, sw.Threshold)
			snaps := make([]sim.EngineStats, len(sums))
			for i, s := range sums {
				snaps[i] = s.Stats
			}
			engine := exp.AggregateEngineStats(snaps)
			summary.Engine = &engine
			results = append(results, SweepCellResult{
				Cell:    cells[o.cell],
				Sums:    sums,
				Summary: summary,
			})
		}
		if opts.Progress != nil {
			opts.Progress(ProgressUpdate{
				TotalReps: len(cells) * reps, DoneReps: o.cell*reps + o.rep + 1,
				TotalCells: len(cells), DoneCells: len(results),
				Rows: rows,
				Cell: cells[o.cell].Name, Rep: o.rep,
				Summary: o.sum,
			})
		}
		return nil
	})
	if err != nil {
		return results, err
	}
	return results, sink.Flush()
}
