// Quickstart: optimize a 10-dimensional Rastrigin function with 64
// simulated nodes cooperating through gossip — the smallest complete use
// of the public API.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"io"
	"os"

	"gossipopt"
)

func main() {
	run(os.Stdout, 64, 1<<19)
}

// run executes the example at the given network size and global
// evaluation budget (separated from main for testability).
func run(out io.Writer, nodes int, budget int64) {
	// A network of 16-particle swarms. Nodes find gossip partners via
	// Newscast peer sampling and exchange their best point every 16 local
	// evaluations (r = k, the paper's default).
	net := gossipopt.New(gossipopt.Config{
		Nodes:       nodes,
		Particles:   16,
		GossipEvery: 16,
		Function:    gossipopt.Rastrigin,
		Seed:        42,
	})

	// Spend the global budget of function evaluations, reporting
	// convergence as it happens.
	for net.TotalEvals() < budget {
		net.RunEvals(net.TotalEvals() + budget/8)
		fmt.Fprintf(out, "evals=%7d  quality=%.6g\n", net.TotalEvals(), net.Quality())
	}

	best, _ := net.GlobalBest()
	fmt.Fprintf(out, "\nfinal quality %.6g after %d evaluations\n", net.Quality(), net.TotalEvals())
	fmt.Fprintf(out, "best point (first 3 coords): %.4f %.4f %.4f\n", best.X[0], best.X[1], best.X[2])

	m := net.Metrics()
	fmt.Fprintf(out, "coordination: %d exchanges, %d adoptions\n", m.Exchanges, m.Adoptions)
}
