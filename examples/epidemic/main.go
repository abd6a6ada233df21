// Epidemic: push-pull anti-entropy, the paper's diffusion service, run
// alone so a netsplit bites. Each node of a random graph starts with its
// ID; the maximum starts on the odd island and saturates it, every attempt
// to cross is a dropped message, and after the heal it reaches every node.
//
// Run with: go run ./examples/epidemic
package main

import (
	"fmt"
	"io"
	"os"

	"gossipopt/internal/gossip"
	"gossipopt/internal/overlay"
	"gossipopt/internal/sim"
)

func main() {
	run(os.Stdout, 64, 30, 60)
}

// run executes the example: n nodes (n even, so the maximum n-1 is odd),
// split from the start until before cycle healAt, horizon cycles in all.
func run(out io.Writer, n int, healAt, horizon int64) {
	e := sim.NewEngine(11)
	nodes := e.AddNodes(n)
	overlay.InitStatic(e, 0, overlay.KRegularRandom(8))
	x := &gossip.Exchange[int]{Slot: 0, SelfSlot: 1}
	for _, nd := range nodes {
		ae := &gossip.AntiEntropy[int]{Exchange: x, Better: func(a, b int) bool { return a > b }}
		ae.SetLocal(int(nd.ID))
		nd.Protocols = append(nd.Protocols, ae)
	}
	holders := func() (k int) {
		e.ForEachLive(func(nd *sim.Node) {
			if v, _ := nd.Protocol(1).(*gossip.AntiEntropy[int]).Local(); v == n-1 {
				k++
			}
		})
		return k
	}
	e.SetDeliveryFilter(sim.SplitGroups(2))
	fmt.Fprintln(out, "netsplit: two islands, the maximum cut off from half the network\ncycle  holders  delivered  dropped")
	atHeal := 0
	for cycle := int64(0); cycle < horizon; cycle++ {
		if cycle == healAt {
			e.SetDeliveryFilter(nil)
			atHeal = holders()
			fmt.Fprintf(out, "  -- cycle %d: heal\n", cycle)
		}
		e.RunCycle()
		if cycle%10 == 9 {
			fmt.Fprintf(out, "%5d  %7d  %9d  %7d\n", cycle+1, holders(), e.Delivered(), e.Dropped())
		}
	}
	final := holders()
	fmt.Fprintf(out, "\nfinal: %d/%d hold the maximum (%d at the heal), %d messages dropped at the cut\n",
		final, n, atHeal, e.Dropped())
	fmt.Fprintf(out, "the maximum crossed only after the partition healed: %v\n", final == n && atHeal <= n/2)
}
