package core

import (
	"fmt"
	"sort"
	"strings"

	"gossipopt/internal/funcs"
	"gossipopt/internal/pso"
	"gossipopt/internal/rng"
	"gossipopt/internal/solver"
)

// The name registry lets declarative specs (internal/scenario, JSON files)
// name protocol stacks by string instead of wiring Go values: topologies
// resolve to TopologyKind, solver names to solver.Factory constructors.
// Both lookups are case-insensitive; the *Names functions return the
// sorted vocabulary for error messages and -list output.

// topologyByName mirrors TopologyKind.String.
var topologyByName = map[string]TopologyKind{
	"newscast": TopoNewscast,
	"random":   TopoRandom,
	"ring":     TopoRing,
	"star":     TopoStar,
	"full":     TopoFull,
}

// TopologyByName resolves a topology service name ("newscast", "random",
// "ring", "star", "full").
func TopologyByName(name string) (TopologyKind, error) {
	if k, ok := topologyByName[strings.ToLower(name)]; ok {
		return k, nil
	}
	return 0, fmt.Errorf("unknown topology %q (available: %s)",
		name, strings.Join(TopologyNames(), ", "))
}

// TopologyNames returns the sorted registered topology names.
func TopologyNames() []string {
	out := make([]string, 0, len(topologyByName))
	for name := range topologyByName {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// solverByName builds a Factory given the population size (particles for
// PSO, NP for DE; the ES has no population and ignores it).
var solverByName = map[string]func(particles int) solver.Factory{
	"pso": func(particles int) solver.Factory {
		return func(f funcs.Function, dim int, _ int64, r *rng.RNG) solver.Solver {
			return pso.New(f, dim, particles, pso.Config{}, r)
		}
	},
	"de": func(particles int) solver.Factory {
		return func(f funcs.Function, dim int, _ int64, r *rng.RNG) solver.Solver {
			return solver.NewDE(f, dim, particles, r)
		}
	},
	"es": func(int) solver.Factory {
		return func(f funcs.Function, dim int, _ int64, r *rng.RNG) solver.Solver {
			return solver.NewES(f, dim, r)
		}
	},
}

// SolverByName resolves a solver service name ("pso", "de", "es") to a
// factory; particles sizes the population where the solver has one.
func SolverByName(name string, particles int) (solver.Factory, error) {
	mk, ok := solverByName[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("unknown solver %q (available: %s)",
			name, strings.Join(SolverNames(), ", "))
	}
	return mk(particles), nil
}

// SolversByName resolves a list of solver names to one factory: a single
// name yields its factory, several yield a MixedFactory assigning solver
// types to nodes round-robin by node ID (the paper's "module
// diversification among peers"). "pso" alone yields a nil factory, which
// selects the networks' default swarm of that many particles: the same
// swarm, but NewNetwork builds the initial population's in one slab.
func SolversByName(names []string, particles int) (solver.Factory, error) {
	if len(names) == 0 {
		return nil, fmt.Errorf("no solver names given")
	}
	if len(names) == 1 && strings.EqualFold(names[0], "pso") {
		return nil, nil
	}
	factories := make([]solver.Factory, len(names))
	for i, name := range names {
		mk, err := SolverByName(name, particles)
		if err != nil {
			return nil, err
		}
		factories[i] = mk
	}
	if len(factories) == 1 {
		return factories[0], nil
	}
	return MixedFactory(factories...), nil
}

// SolverNames returns the sorted registered solver names.
func SolverNames() []string {
	out := make([]string, 0, len(solverByName))
	for name := range solverByName {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
