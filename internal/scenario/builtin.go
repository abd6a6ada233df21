package scenario

import (
	"encoding/json"
	"sort"
)

// The built-in scenarios: one runnable exemplar per scripted condition the
// subsystem supports, sized to finish in well under a second each so they
// double as CI smoke tests. Each is a plain Spec — `cmd/scenario -show
// <name>` prints the JSON, the natural starting point for custom files.

func builtins() map[string]Spec {
	return map[string]Spec{
		"baseline": {
			Name:         "baseline",
			Description:  "64-node Newscast/PSO network on Sphere, no disturbances — the reference run.",
			Nodes:        64,
			Seed:         1,
			MetricsEvery: 20,
			Stop:         Stop{Cycles: 200},
		},
		"flash-churn": {
			Name:        "flash-churn",
			Description: "A churn burst: 25% of nodes crash at cycle 60, fresh nodes join at 80, crashed ones restart at 120.",
			Nodes:       64,
			Seed:        2,
			Stack:       Stack{Function: "Rastrigin"},
			Timeline: []Event{
				{At: 60, Action: "crash", Fraction: 0.25},
				{At: 80, Action: "join", Count: 8},
				{At: 120, Action: "revive", Count: 8},
			},
			MetricsEvery: 20,
			Stop:         Stop{Cycles: 240},
		},
		"netsplit-heal": {
			Name:        "netsplit-heal",
			Description: "The network splits into two islands at cycle 60 and heals at 160; the islands' optima re-merge.",
			Nodes:       64,
			Seed:        3,
			Stack:       Stack{Function: "Griewank"},
			Timeline: []Event{
				{At: 60, Action: "partition", Groups: 2},
				{At: 160, Action: "heal"},
			},
			MetricsEvery: 20,
			Stop:         Stop{Cycles: 240},
		},
		"lossy-wan": {
			Name:        "lossy-wan",
			Description: "Event-driven WAN with 5% baseline loss and a loss storm (50%) between t=100 and t=200.",
			Engine:      EngineEvent,
			Nodes:       32,
			Seed:        4,
			Stack: Stack{
				Function: "Rastrigin",
				Link:     &Link{MinDelay: 0.5, MaxDelay: 2, LossProb: 0.05},
			},
			Timeline: []Event{
				{At: 100, Action: "set-link", Link: &Link{MinDelay: 0.5, MaxDelay: 2, LossProb: 0.5}},
				{At: 200, Action: "set-link", Link: &Link{MinDelay: 0.5, MaxDelay: 2, LossProb: 0.05}},
			},
			MetricsEvery: 30,
			Stop:         Stop{Time: 300},
		},
		"latency-spike": {
			Name:        "latency-spike",
			Description: "Event-driven run where link latency jumps 10x between t=100 and t=200 (a congested backbone).",
			Engine:      EngineEvent,
			Nodes:       32,
			Seed:        5,
			Stack: Stack{
				Function: "Sphere",
				Link:     &Link{MinDelay: 0.5, MaxDelay: 1.5},
			},
			Timeline: []Event{
				{At: 100, Action: "set-link", Link: &Link{MinDelay: 5, MaxDelay: 15}},
				{At: 200, Action: "set-link", Link: &Link{MinDelay: 0.5, MaxDelay: 1.5}},
			},
			MetricsEvery: 30,
			Stop:         Stop{Time: 300},
		},
		"mixed-solvers": {
			Name:        "mixed-solvers",
			Description: "Module diversification: three solver types round-robin across 60 nodes, coordinated by best-point gossip.",
			Nodes:       60,
			Seed:        6,
			Stack: Stack{
				Function: "Rastrigin",
				Solvers:  []string{"pso", "de", "es"},
			},
			MetricsEvery: 20,
			Stop:         Stop{Cycles: 240},
		},
		"antientropy-netsplit": {
			Name: "antientropy-netsplit",
			Description: "Push-pull anti-entropy behind a netsplit: the maximum saturates its own island while the cut holds, " +
				"then crosses to the other within a few cycles of the heal.",
			Nodes: 64,
			Seed:  7,
			// Static substrate: a Newscast overlay would segregate into the
			// two islands during the cut (cross descriptors age out and
			// nothing re-bridges the views after the heal), whereas a fixed
			// random graph keeps its cross-links, so the maximum can cross
			// once delivery resumes. Initial values are the node IDs, so the
			// global best (63) starts on the odd island: quality reads 0.5
			// for as long as the cut holds.
			Stack: Stack{Topology: "random", ViewSize: 8, Protocol: ProtocolAntiEntropy},
			Timeline: []Event{
				{At: 0, Action: "partition", Groups: 2},
				{At: 20, Action: "heal"},
			},
			MetricsEvery: 2,
			Stop:         Stop{Cycles: 40},
		},
		"antientropy-oneway": {
			Name: "antientropy-oneway",
			Description: "Push-pull anti-entropy under a one-way cut: even nodes can push into the odd island " +
				"but nothing returns, so the odd-held maximum is stuck until the heal.",
			Nodes: 64,
			Seed:  10,
			// Static substrate for the same reason as antientropy-netsplit: a
			// gossiped overlay would segregate during the cut. Initial
			// values are the node IDs, so the global best (63) starts on
			// the odd island — exactly the side the cut silences.
			Stack: Stack{Topology: "random", ViewSize: 8, Protocol: ProtocolAntiEntropy},
			Timeline: []Event{
				{At: 0, Action: "partition", Groups: 2, OneWay: true},
				{At: 30, Action: "heal"},
			},
			MetricsEvery: 10,
			Stop:         Stop{Cycles: 80},
		},
		"antientropy-lossy": {
			Name:         "antientropy-lossy",
			Description:  "Push-pull anti-entropy with 30% message loss: diffusion slows down but still converges (paper §3.3.4).",
			Nodes:        64,
			Seed:         8,
			Stack:        Stack{Protocol: ProtocolAntiEntropy, DropProb: 0.3},
			MetricsEvery: 10,
			Stop:         Stop{Cycles: 80},
		},
		"lossy-links": {
			Name: "lossy-links",
			Description: "Anti-entropy over lossy, laggy links (15% loss, up to 2 cycles delay) with a storm " +
				"(50% loss, 1-4 cycles delay) between cycles 30 and 50; diffusion slows but converges.",
			Nodes: 64,
			Seed:  11,
			Stack: Stack{
				Protocol: ProtocolAntiEntropy,
				Net:      &NetSpec{Loss: 0.15, DelayMax: 2},
			},
			Timeline: []Event{
				{At: 30, Action: "link-model", Model: &NetSpec{Loss: 0.5, DelayMin: 1, DelayMax: 4}},
				{At: 50, Action: "link-model"}, // back to the baseline net
			},
			MetricsEvery: 10,
			Stop:         Stop{Cycles: 100},
		},
		"regional-outage": {
			Name: "regional-outage",
			Description: "Push-pull anti-entropy under correlated failures: four regions flap as Markov chains " +
				"(10% fail, 30% recover per cycle), cutting every leg that touches a down region; diffusion slows but completes.",
			Nodes: 64,
			Seed:  12,
			Stack: Stack{
				Topology: "random", ViewSize: 8,
				Protocol: ProtocolAntiEntropy,
				Net:      &NetSpec{Regions: 4, RegionFail: 0.1, RegionRecover: 0.3},
			},
			MetricsEvery: 1,
			Stop:         Stop{Cycles: 30},
		},
		"byzantine-corrupt": {
			Name: "byzantine-corrupt",
			Description: "Anti-entropy with a quarter of the nodes corrupting every message they send " +
				"(their payloads arrive as unparseable garbage); the honest majority still diffuses the maximum.",
			Nodes: 64,
			Seed:  13,
			Stack: Stack{Protocol: ProtocolAntiEntropy},
			Timeline: []Event{
				{At: 0, Action: "byzantine", Behavior: "corrupt", Fraction: 0.25},
			},
			MetricsEvery: 10,
			Stop:         Stop{Cycles: 80},
		},
		"byzantine-delay": {
			Name: "byzantine-delay",
			Description: "The optimizer on Sphere while a quarter of the nodes lag every message they send by " +
				"1-3 cycles, serving stale best points and views; convergence does not suffer.",
			Nodes: 64,
			Seed:  14,
			Timeline: []Event{
				{At: 0, Action: "byzantine", Behavior: "delay", Fraction: 0.25},
			},
			MetricsEvery: 10,
			Stop:         Stop{Cycles: 100},
		},
		"antientropy-churn": {
			Name: "antientropy-churn",
			Description: "Push-pull anti-entropy while a quarter of the nodes crash mid-diffusion and later restart " +
				"holding the values they had; the restarted nodes catch up within a few cycles.",
			Nodes: 64,
			Seed:  9,
			Stack: Stack{Protocol: ProtocolAntiEntropy},
			Timeline: []Event{
				{At: 2, Action: "crash", Fraction: 0.25},
				{At: 20, Action: "revive", Count: 16},
			},
			MetricsEvery: 1,
			Stop:         Stop{Cycles: 30},
		},
	}
}

// fptr builds the pointer-valued probability knobs of a Spec literal.
func fptr(v float64) *float64 { return &v }

// raw builds the json.RawMessage values of a SweepSpec literal.
func raw(s string) json.RawMessage { return json.RawMessage(s) }

// The built-in sweeps: one exemplar per override mechanism (a dotted-path
// axis and a deep-merge axis), sized so `-sweep <name> -reps 2` finishes
// in seconds and doubles as the CI byte-compare smoke. `cmd/scenario
// -show <name>` prints the JSON, the starting point for custom sweeps.
func builtinSweeps() map[string]SweepSpec {
	return map[string]SweepSpec{
		"overlay-vs-churn": {
			Name:        "overlay-vs-churn",
			Description: "Does the overlay choice matter under churn? Newscast vs a static random graph, calm vs a 25% crash burst, on Sphere.",
			Base: Spec{
				Nodes:        32,
				Seed:         17,
				Stack:        Stack{Particles: 8},
				MetricsEvery: 20,
				Stop:         Stop{Cycles: 80},
			},
			Axes: []Axis{
				{Name: "overlay", Path: "stack.topology", Values: []AxisValue{
					{Value: raw(`"newscast"`)},
					{Value: raw(`"random"`)},
				}},
				{Name: "churn", Values: []AxisValue{
					{Label: "calm", Value: raw(`{}`)},
					{Label: "burst", Value: raw(`{"timeline":[
						{"at":20,"action":"crash","fraction":0.25},
						{"at":50,"action":"revive","count":8}]}`)},
				}},
			},
			Reps:      4,
			Threshold: fptr(1500),
		},
		"protocol-vs-loss": {
			Name:        "protocol-vs-loss",
			Description: "How does message loss slow convergence? Best-point gossip vs push-pull anti-entropy at 0% and 30% drop probability.",
			Base: Spec{
				Nodes:        48,
				Seed:         23,
				MetricsEvery: 2,
				Stop:         Stop{Cycles: 60},
			},
			Axes: []Axis{
				{Name: "protocol", Values: []AxisValue{
					{Label: "opt", Value: raw(`{"stack":{"particles":8}}`)},
					{Label: "antientropy", Value: raw(`{"stack":{"protocol":"antientropy"}}`)},
				}},
				{Name: "loss", Path: "stack.drop_prob", Values: []AxisValue{
					{Value: raw(`0`)},
					{Value: raw(`0.3`)},
				}},
			},
			Reps:      3,
			Threshold: fptr(0.1),
		},
		"overlay-vs-linkloss": {
			Name: "overlay-vs-linkloss",
			Description: "How does per-link loss slow diffusion, and does the overlay matter? Push-pull anti-entropy " +
				"over Newscast vs a static random graph at 0%, 15% and 35% per-leg loss; time-to-90%-coverage grows with loss.",
			Base: Spec{
				Nodes:        48,
				Seed:         31,
				Stack:        Stack{ViewSize: 8, Protocol: ProtocolAntiEntropy},
				MetricsEvery: 2,
				Stop:         Stop{Cycles: 120},
			},
			Axes: []Axis{
				{Name: "overlay", Path: "stack.topology", Values: []AxisValue{
					{Value: raw(`"newscast"`)},
					{Value: raw(`"random"`)},
				}},
				{Name: "loss", Path: "stack.net.loss", Values: []AxisValue{
					{Value: raw(`0`)},
					{Value: raw(`0.15`)},
					{Value: raw(`0.35`)},
				}},
			},
			Reps:      3,
			Threshold: fptr(0.1),
		},
	}
}

// BuiltinSweep returns the named built-in sweep.
func BuiltinSweep(name string) (SweepSpec, bool) {
	s, ok := builtinSweeps()[name]
	return s, ok
}

// BuiltinSweepNames returns the sorted built-in sweep names.
func BuiltinSweepNames() []string {
	m := builtinSweeps()
	out := make([]string, 0, len(m))
	for name := range m {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Builtin returns the named built-in scenario.
func Builtin(name string) (Spec, bool) {
	s, ok := builtins()[name]
	return s, ok
}

// BuiltinNames returns the sorted built-in scenario names.
func BuiltinNames() []string {
	m := builtins()
	out := make([]string, 0, len(m))
	for name := range m {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
