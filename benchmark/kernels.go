package main

import (
	"sort"

	"gossipopt/internal/funcs"
	"gossipopt/internal/overlay"
	"gossipopt/internal/pso"
	"gossipopt/internal/rng"
	"gossipopt/internal/sim"
)

// Isolated kernel replays: calls too short to time in place (two clock
// reads cost more than the call) are replayed here in a tight loop, on
// inputs taken from the warmed network where the call has state. A kernel
// figure is a hot-cache lower bound on the in-place cost, so a share built
// from it (overlay.merge_share, funcs.self_share) is a lower bound too.

// kernelBatches is how many timed batches a kernel runs; the figure
// reported is the median batch. The self-test lowers it.
var kernelBatches = 7

// kernelSink keeps kernel results live so the compiler cannot drop the
// calls.
var kernelSink float64

// timeKernel runs prepare (untimed, may be nil) then batch (timed, making
// calls calls) kernelBatches times and returns the median ns per call.
func timeKernel(calls int, prepare, batch func()) float64 {
	per := make([]float64, kernelBatches)
	for i := range per {
		if prepare != nil {
			prepare()
		}
		start := now()
		batch()
		per[i] = float64(now()-start) / float64(calls)
	}
	sort.Float64s(per)
	return per[len(per)/2]
}

// mergeKernel replays View.Merge on clones of the sampled views, each
// merged with the batch a real exchange would hand it: a sampled
// neighbour's descriptors plus two fresh descriptors stamped with the
// current cycle.
func mergeKernel(sample []*overlay.Newscast, cycle int64) float64 {
	const maxViews, rounds = 128, 16
	if len(sample) < 2 {
		return 0
	}
	if len(sample) > maxViews {
		sample = sample[:maxViews]
	}
	batches := make([][]overlay.Descriptor, len(sample))
	for i := range sample {
		peer := sample[(i+1)%len(sample)].View().Descriptors()
		// Negative IDs cannot collide with a real node's.
		batches[i] = append(peer,
			overlay.Descriptor{ID: sim.NodeID(-2 - 2*i), Stamp: cycle},
			overlay.Descriptor{ID: sim.NodeID(-3 - 2*i), Stamp: cycle})
	}
	clones := make([]*overlay.View, len(sample)*rounds)
	return timeKernel(len(clones),
		func() {
			for k := range clones {
				v := sample[k%len(sample)].View().Clone()
				// Merging a view with its own contents leaves it unchanged
				// and sizes its scratch, as any view in a warmed network.
				v.Merge(-1, v.Descriptors())
				clones[k] = v
			}
		},
		func() {
			for k, v := range clones {
				v.Merge(-1, batches[k%len(sample)])
			}
		})
}

// evalOneKernel times Swarm.EvalOne on a swarm warmed for 100 rounds.
func evalOneKernel(f funcs.Function, dim, particles int) float64 {
	const calls = 20000
	s := pso.New(f, dim, particles, pso.Config{}, rng.New(1))
	for i := 0; i < 100*particles; i++ {
		s.EvalOne()
	}
	return timeKernel(calls, nil, func() {
		for i := 0; i < calls; i++ {
			kernelSink += s.EvalOne()
		}
	})
}

// evalKernel times the objective on 64 points drawn from its domain.
func evalKernel(f funcs.Function, dim int) float64 {
	const points, calls = 64, 64000
	r := rng.New(2)
	xs := make([][]float64, points)
	for i := range xs {
		xs[i] = make([]float64, dim)
		for j := range xs[i] {
			xs[i][j] = r.UniformIn(f.Lo, f.Hi)
		}
	}
	return timeKernel(calls, nil, func() {
		for i := 0; i < calls; i++ {
			kernelSink += f.Eval(xs[i%points])
		}
	})
}

// rngKernels times one draw and one stream split.
func rngKernels() (uint64NsPerCall, splitNsPerCall float64) {
	const draws, splits = 1 << 20, 1 << 14
	r := rng.New(3)
	uint64NsPerCall = timeKernel(draws, nil, func() {
		var x uint64
		for i := 0; i < draws; i++ {
			x ^= r.Uint64()
		}
		kernelSink += float64(x & 1)
	})
	splitNsPerCall = timeKernel(splits, nil, func() {
		var x uint64
		for i := 0; i < splits; i++ {
			x ^= r.Split().Uint64()
		}
		kernelSink += float64(x & 1)
	})
	return
}

// judgeKernel times one verdict of the net model on its own stream.
func judgeKernel(m sim.NetModel) float64 {
	const calls = 1 << 18
	r := rng.New(4)
	return timeKernel(calls, nil, func() {
		var fates int
		for i := 0; i < calls; i++ {
			fates += int(m.Judge(sim.NodeID(i), sim.NodeID(i+1), r).Fate)
		}
		kernelSink += float64(fates)
	})
}

// kernelMetrics replays the kernels the workload's stack exercises.
func (p *pass) kernelMetrics(c *cycleNet, sample []*overlay.Newscast) {
	m := p.layer
	m["overlay.merge_kernel_ns_per_call"] = mergeKernel(sample, c.eng.Cycle())
	if c.optSlot >= 0 {
		dim := c.fn.Dim(c.dim)
		m["pso.evalone_kernel_ns_per_call"] = evalOneKernel(c.fn, dim, c.particles)
		m["funcs.eval_kernel_ns_per_call"] = evalKernel(c.fn, dim)
	}
	m["rng.uint64_kernel_ns_per_call"], m["rng.split_kernel_ns_per_call"] = rngKernels()
	if c.net != nil {
		m["sim.netmodel_judge_busy_ns"] = m["sim.netmodel_judge_calls"] * judgeKernel(c.net)
	}
}
