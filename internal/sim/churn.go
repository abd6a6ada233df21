package sim

// ChurnModel mutates the node population at the start of each cycle. The
// paper's scenario is an organization's desktop pool where "nodes may join
// and leave the system at will"; these models reproduce that behaviour in
// controlled forms.
type ChurnModel interface {
	Apply(e *Engine)
}

// NoChurn is the identity churn model.
type NoChurn struct{}

// Apply does nothing.
func (NoChurn) Apply(*Engine) {}

// RateChurn crashes each live node with probability CrashProb per cycle and
// creates JoinPerCycle fresh nodes per cycle (fractional rates accumulate).
// MinLive, when positive, suppresses crashes that would drop the live
// population below it, so the computation never dies out entirely.
type RateChurn struct {
	CrashProb    float64
	JoinPerCycle float64
	MinLive      int

	joinAccum float64
	scratch   []*Node
}

// Apply implements ChurnModel.
func (c *RateChurn) Apply(e *Engine) {
	if c.CrashProb > 0 {
		// Snapshot into the model's scratch: Apply runs every cycle, so a
		// fresh LiveNodes slice here would be a per-cycle O(n) allocation
		// (and the snapshot must be stable while Crash dirties the index).
		c.scratch = e.AppendLiveNodes(c.scratch[:0])
		for _, n := range c.scratch {
			if c.MinLive > 0 && e.LiveCount() <= c.MinLive {
				break
			}
			if e.rng.Bool(c.CrashProb) {
				e.Crash(n.ID)
			}
		}
	}
	c.joinAccum += c.JoinPerCycle
	for c.joinAccum >= 1 {
		e.AddNode()
		c.joinAccum--
	}
}

// CatastropheChurn crashes a fixed fraction of the live population exactly
// once, at the given cycle. It models the paper's robustness claim "even if
// a large portion of the network fails, the computation will end
// successfully".
type CatastropheChurn struct {
	AtCycle  int64
	Fraction float64

	done bool
}

// Apply implements ChurnModel.
func (c *CatastropheChurn) Apply(e *Engine) {
	if c.done || e.Cycle() != c.AtCycle {
		return
	}
	c.done = true
	live := e.LiveNodes()
	kill := int(float64(len(live)) * c.Fraction)
	perm := e.rng.Perm(len(live))
	for i := 0; i < kill && i < len(perm); i++ {
		e.Crash(live[perm[i]].ID)
	}
}
