// Livecluster: the same three-service protocol stack running over real TCP
// sockets on localhost — no simulator. Twelve OS-level peers bootstrap off
// the first node, self-organize via Newscast view exchanges, and cooperate
// on Rastrigin through anti-entropy best-point gossip.
//
// Run with: go run ./examples/livecluster
package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"time"

	"gossipopt"
	"gossipopt/internal/p2p"
)

func main() {
	if err := run(os.Stdout, 12, 500*time.Millisecond, 8); err != nil {
		fmt.Println("start:", err)
	}
}

// run starts a cluster of the given size, reports it every tick for the
// given number of ticks, then crashes the bootstrap node and reports the
// survivors after two more ticks (separated from main for testability).
func run(out io.Writer, nodes int, tick time.Duration, ticks int) error {
	cluster := make([]*p2p.Node, 0, nodes)
	defer func() {
		for _, n := range cluster {
			n.Stop()
		}
	}()

	for i := 0; i < nodes; i++ {
		cfg := p2p.NodeConfig{
			Function:         gossipopt.Rastrigin,
			Particles:        16,
			GossipEvery:      16,
			NewscastInterval: tick / 10,
			EvalThrottle:     200 * time.Microsecond, // pretend evaluations are costly
			Seed:             uint64(i + 1),
		}
		if i > 0 {
			cfg.Bootstrap = []string{cluster[0].Addr()}
		}
		n, err := p2p.Start(cfg)
		if err != nil {
			return err
		}
		cluster = append(cluster, n)
		fmt.Fprintf(out, "started node %2d at %s\n", i, n.Addr())
	}

	fmt.Fprintln(out, "\nletting the cluster self-organize and optimize...")
	for t := 0; t < ticks; t++ {
		time.Sleep(tick)
		best := math.Inf(1)
		var evals int64
		minPeers := 1 << 30
		for _, n := range cluster {
			if _, f, ok := n.Best(); ok && f < best {
				best = f
			}
			evals += n.Evals()
			if p := len(n.Peers()); p < minPeers {
				minPeers = p
			}
		}
		fmt.Fprintf(out, "t=%.1fs  cluster best=%.6g  total evals=%d  min view size=%d\n",
			(time.Duration(t+1) * tick).Seconds(), best, evals, minPeers)
	}

	// Kill the bootstrap node: the overlay self-heals and work continues.
	fmt.Fprintln(out, "\ncrashing the bootstrap node...")
	cluster[0].Stop()
	time.Sleep(2 * tick)
	best := math.Inf(1)
	for _, n := range cluster[1:] {
		if _, f, ok := n.Best(); ok && f < best {
			best = f
		}
	}
	fmt.Fprintf(out, "survivors' best after crash: %.6g — computation unaffected\n", best)

	var exch, adopt int64
	for _, n := range cluster[1:] {
		e, a, _ := n.Stats()
		exch += e
		adopt += a
	}
	fmt.Fprintf(out, "coordination totals: %d exchanges, %d adoptions\n", exch, adopt)
	return nil
}
