// Multisolver: heterogeneous node populations — the paper's future-work
// scenario of "module diversification among peers". One third of the nodes
// run PSO swarms, one third differential evolution, one third (1+1)
// evolution strategies; all cooperate through the same anti-entropy
// coordination service, and the comparison against homogeneous populations
// is printed side by side.
//
// Run with: go run ./examples/multisolver
package main

import (
	"fmt"
	"io"
	"os"

	"gossipopt"
)

func main() {
	run(os.Stdout, 48, 1<<18)
}

// run compares the four populations on three functions at the given
// network size and global evaluation budget (separated from main for
// testability).
func run(out io.Writer, nodes int, budget int64) {
	mixed := gossipopt.MixedSolvers(
		gossipopt.PSOSolver(16, gossipopt.PSOConfig{}),
		gossipopt.DESolver(16),
		gossipopt.ESSolver(),
	)
	quality := func(label string, factory gossipopt.SolverFactory, f gossipopt.Function) {
		net := gossipopt.New(gossipopt.Config{
			Nodes:         nodes,
			Particles:     16, // used by the default PSO factory only
			GossipEvery:   16,
			Function:      f,
			Seed:          11,
			SolverFactory: factory,
		})
		net.RunEvals(budget)
		fmt.Fprintf(out, "  %-10s quality %.6g\n", label, net.Quality())
	}

	for _, f := range []gossipopt.Function{gossipopt.Rosenbrock, gossipopt.Rastrigin, gossipopt.Griewank} {
		fmt.Fprintf(out, "%s (dim %d):\n", f.Name, f.Dim(0))
		quality("pso", nil, f) // nil = default homogeneous PSO
		quality("de", gossipopt.DESolver(16), f)
		quality("es", gossipopt.ESSolver(), f)
		quality("mixed", mixed, f)
		fmt.Fprintln(out)
	}
	fmt.Fprintln(out, "heterogeneous populations hedge across landscapes: the mixed")
	fmt.Fprintln(out, "network tracks the best homogeneous solver on each function")
	fmt.Fprintln(out, "because gossip lets every solver adopt whatever any solver finds.")
}
