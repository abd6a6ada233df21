package scenario

import (
	"math"

	"gossipopt/internal/core"
	"gossipopt/internal/gossip"
	"gossipopt/internal/overlay"
	"gossipopt/internal/sim"
)

// Payload-protocol selection. A spec's stack.protocol names what runs in
// the payload slot on top of the peer-sampling substrate: the optimizer
// stack (the default), or push-pull anti-entropy alone. Both speak the
// engine's propose/apply contract, so scripted partitions, churn and the
// Delivered/Dropped counters apply uniformly.
const (
	// ProtocolOpt is the paper's three-service optimizer node (default).
	ProtocolOpt = "opt"
	// ProtocolAntiEntropy diffuses the best (largest) per-node value via
	// push-pull anti-entropy, the paper's diffusion service run alone;
	// quality is the fraction of live nodes not yet holding the best live
	// value.
	ProtocolAntiEntropy = "antientropy"
)

// protoSlot is the payload protocol's slot; the substrate sampler lives in
// core.SlotTopology (0), exactly like the optimizer stack.
const protoSlot = 1

// cycleNet is what the cycle-engine campaign loop needs from a compiled
// network: the optimizer Network and the anti-entropy network satisfy it.
type cycleNet interface {
	Engine() *sim.Engine
	TotalEvals() int64
	Quality() float64
	// Counters returns the protocol's summed exchange/lost/adoption
	// counters for the metric record.
	Counters() (exchanges, lost, adoptions int64)
}

// optNet adapts core.Network to cycleNet.
type optNet struct{ *core.Network }

// Counters implements cycleNet from the optimizer network's metrics.
func (o optNet) Counters() (int64, int64, int64) {
	m := o.Network.Metrics()
	return m.Exchanges, m.LostExchanges, m.Adoptions
}

// ProtocolNames returns the sorted stack.protocol vocabulary.
func ProtocolNames() []string { return []string{ProtocolAntiEntropy, ProtocolOpt} }

// aeNet runs push-pull anti-entropy on float64 values in the payload slot.
type aeNet struct{ eng *sim.Engine }

// newAENet builds the engine with the spec's topology service in slot 0
// and an AntiEntropy instance in slot 1 on every initial node. Every
// initial node starts with a distinct value (its ID); the epidemic
// diffuses the maximum. Nodes joining later (scripted join events) are
// wired by the node factory: a Newscast view bootstrapped from a random
// live node — the "bootstrap service" of a real deployment — plus an
// empty instance that adopts on its first completed exchange, mirroring
// core.NewNetwork.
func newAENet(s Spec, seed uint64, opts Options) *aeNet {
	x := &gossip.Exchange[float64]{
		Slot: core.SlotTopology, SelfSlot: protoSlot, DropProb: s.Stack.DropProb,
	}
	mk := func() *gossip.AntiEntropy[float64] {
		return &gossip.AntiEntropy[float64]{Exchange: x, Better: func(a, b float64) bool { return a > b }}
	}
	topo, _ := core.TopologyByName(s.Stack.Topology)
	eng := sim.NewEngine(seed)
	eng.SetWorkers(opts.Workers)
	nodes := eng.AddNodes(s.Nodes)
	core.InitTopology(eng, core.SlotTopology, topo, s.Stack.ViewSize)
	for _, n := range nodes {
		for len(n.Protocols) <= protoSlot {
			n.Protocols = append(n.Protocols, nil)
		}
		ae := mk()
		ae.SetLocal(float64(n.ID))
		n.Protocols[protoSlot] = ae
	}
	// The factory serves scripted joins only, so it is installed after the
	// initial population is wired — building throwaway stacks for the
	// initial nodes would also burn an engine-RNG draw per node
	// (RandomLiveNode) and silently bake that into every trace.
	eng.SetNodeFactory(func(n *sim.Node) {
		nc := overlay.NewNewscast(n.ID, s.Stack.ViewSize, core.SlotTopology)
		if b := eng.RandomLiveNode(n.ID); b != nil {
			nc.Bootstrap([]sim.NodeID{b.ID})
		}
		n.Protocols = []sim.Protocol{nc, mk()}
	})
	return &aeNet{eng}
}

// Engine implements cycleNet.
func (p *aeNet) Engine() *sim.Engine { return p.eng }

// TotalEvals implements cycleNet; anti-entropy evaluates nothing.
func (p *aeNet) TotalEvals() int64 { return 0 }

// Quality implements cycleNet: the fraction of live nodes not holding the
// best live value.
func (p *aeNet) Quality() float64 {
	best, holders, live := math.Inf(-1), 0, 0
	p.eng.ForEachLive(func(n *sim.Node) {
		live++
		v, has := n.Protocol(protoSlot).(*gossip.AntiEntropy[float64]).Local()
		if !has {
			return
		}
		switch {
		case v > best:
			best, holders = v, 1
		case v == best:
			holders++
		}
	})
	if live == 0 || math.IsInf(best, -1) {
		return math.Inf(1)
	}
	return 1 - float64(holders)/float64(live)
}

// Counters implements cycleNet from the holders' exchange counters.
func (p *aeNet) Counters() (ex, lost, adopt int64) {
	p.eng.ForEachLive(func(n *sim.Node) {
		ae := n.Protocol(protoSlot).(*gossip.AntiEntropy[float64])
		ex += ae.Exchanges
		lost += ae.LostExchanges
		adopt += ae.Adoptions
	})
	return ex, lost, adopt
}
