package scenario

import (
	"math"
	"sort"

	"gossipopt/internal/core"
	"gossipopt/internal/gossip"
	"gossipopt/internal/overlay"
	"gossipopt/internal/sim"
)

// Payload-protocol selection. A spec's stack.protocol names what runs in
// the payload slot on top of the peer-sampling substrate: the optimizer
// stack (the default), or one of the ported epidemic / topology protocols.
// All of them speak the engine's propose/apply contract, so scripted
// partitions, churn and the Delivered/Dropped counters apply uniformly.
const (
	// ProtocolOpt is the paper's three-service optimizer node (default).
	ProtocolOpt = "opt"
	// ProtocolRumor spreads one rumor seeded at node 0 (Demers et al.
	// rumor mongering); quality is the uninformed fraction of live nodes.
	ProtocolRumor = "rumor"
	// ProtocolAntiEntropy diffuses the best (largest) per-node value via
	// push-pull anti-entropy; quality is the fraction of live nodes not
	// yet holding the best live value.
	ProtocolAntiEntropy = "antientropy"
	// ProtocolTMan builds a ring over the initial population with T-Man;
	// quality is the fraction of live nodes without a live ring neighbor
	// (ring distance 1) in their view.
	ProtocolTMan = "tman"
)

// protoSlot is the payload protocol's slot; the substrate sampler lives in
// core.SlotTopology (0), exactly like the optimizer stack.
const protoSlot = 1

// cycleNet is what the cycle-engine campaign loop needs from a compiled
// network: the optimizer Network and the epidemic-protocol networks all
// satisfy it.
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

// epidemicNet runs one of the ported protocols in the payload slot.
type epidemicNet struct {
	eng      *sim.Engine
	quality  func(e *sim.Engine) float64
	counters func(e *sim.Engine) (int64, int64, int64)
}

// Engine implements cycleNet.
func (p *epidemicNet) Engine() *sim.Engine { return p.eng }

// TotalEvals implements cycleNet; epidemic protocols evaluate nothing.
func (p *epidemicNet) TotalEvals() int64 { return 0 }

// Quality implements cycleNet via the protocol's quality function.
func (p *epidemicNet) Quality() float64 { return p.quality(p.eng) }

// Counters implements cycleNet via the protocol's counter extractor.
func (p *epidemicNet) Counters() (int64, int64, int64) {
	return p.counters(p.eng)
}

// protocolBuilders maps a non-default stack.protocol to its network
// builder. Spec names are pre-validated, so builders cannot fail.
var protocolBuilders = map[string]func(s Spec, seed uint64, opts Options) cycleNet{
	ProtocolRumor:       buildRumorNet,
	ProtocolAntiEntropy: buildAntiEntropyNet,
	ProtocolTMan:        buildTManNet,
}

// ProtocolNames returns the sorted stack.protocol vocabulary.
func ProtocolNames() []string {
	out := []string{ProtocolOpt}
	for name := range protocolBuilders {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// newSubstrate builds the engine with the spec's topology service in slot
// 0 and, when mk is non-nil, a payload instance built by mk in slot 1 on
// every initial node (a nil mk leaves slot 1 to the caller, e.g. T-Man's
// InitTMan). Nodes joining later (scripted join events) are wired by the
// node factory: a Newscast view bootstrapped from a random live node —
// the "bootstrap service" of a real deployment — plus a fresh payload
// instance, mirroring core.NewNetwork.
func newSubstrate(s Spec, seed uint64, opts Options, mk func(n *sim.Node) sim.Protocol) *sim.Engine {
	topo, _ := core.TopologyByName(s.Stack.Topology)
	eng := sim.NewEngine(seed)
	eng.SetWorkers(opts.Workers)
	nodes := eng.AddNodes(s.Nodes)
	core.InitTopology(eng, core.SlotTopology, topo, s.Stack.ViewSize)
	for _, n := range nodes {
		for len(n.Protocols) <= protoSlot {
			n.Protocols = append(n.Protocols, nil)
		}
		if mk != nil {
			n.Protocols[protoSlot] = mk(n)
		}
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
		n.Protocols = []sim.Protocol{nc, nil}
		if mk != nil {
			n.Protocols[protoSlot] = mk(n)
		}
	})
	return eng
}

func buildRumorNet(s Spec, seed uint64, opts Options) cycleNet {
	eng := newSubstrate(s, seed, opts, func(n *sim.Node) sim.Protocol {
		return &gossip.Rumor{
			Slot:     core.SlotTopology,
			SelfSlot: protoSlot,
			Fanout:   s.Stack.Fanout,
			StopProb: *s.Stack.StopProb, // normalized: never nil for rumor
		}
	})
	eng.Node(0).Protocol(protoSlot).(*gossip.Rumor).Seed()
	return &epidemicNet{
		eng: eng,
		quality: func(e *sim.Engine) float64 {
			live := e.LiveCount()
			if live == 0 {
				return math.Inf(1)
			}
			return 1 - float64(gossip.CountInformed(e, protoSlot))/float64(live)
		},
		counters: func(e *sim.Engine) (ex, lost, adopt int64) {
			e.ForEachLive(func(n *sim.Node) {
				if r, ok := n.Protocol(protoSlot).(*gossip.Rumor); ok {
					ex += r.Sent
					lost += r.Lost
					if r.Informed() {
						adopt++
					}
				}
			})
			return ex, lost, adopt
		},
	}
}

func buildAntiEntropyNet(s Spec, seed uint64, opts Options) cycleNet {
	x := &gossip.Exchange[float64]{
		Slot: core.SlotTopology, SelfSlot: protoSlot, DropProb: s.Stack.DropProb,
	}
	eng := newSubstrate(s, seed, opts, func(n *sim.Node) sim.Protocol {
		return &gossip.AntiEntropy[float64]{Exchange: x, Better: func(a, b float64) bool { return a > b }}
	})
	// Every initial node starts with a distinct value (its ID); the
	// epidemic diffuses the maximum. Joiners start empty and adopt on
	// their first completed exchange.
	eng.ForEachLive(func(n *sim.Node) {
		n.Protocol(protoSlot).(*gossip.AntiEntropy[float64]).SetLocal(float64(n.ID))
	})
	return &epidemicNet{
		eng: eng,
		quality: func(e *sim.Engine) float64 {
			best, holders, live := math.Inf(-1), 0, 0
			e.ForEachLive(func(n *sim.Node) {
				live++
				ae, ok := n.Protocol(protoSlot).(*gossip.AntiEntropy[float64])
				if !ok {
					return
				}
				v, has := ae.Local()
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
		},
		counters: func(e *sim.Engine) (ex, lost, adopt int64) {
			e.ForEachLive(func(n *sim.Node) {
				if ae, ok := n.Protocol(protoSlot).(*gossip.AntiEntropy[float64]); ok {
					ex += ae.Exchanges
					lost += ae.LostExchanges
					adopt += ae.Adoptions
				}
			})
			return ex, lost, adopt
		},
	}
}

func buildTManNet(s Spec, seed uint64, opts Options) cycleNet {
	dist := overlay.RingDistance(s.Nodes)
	// nil payload builder: InitTMan wires (and bootstraps) the initial
	// nodes itself, and spec validation rejects join events for tman, so
	// the factory's payload path can never run.
	eng := newSubstrate(s, seed, opts, nil)
	overlay.InitTMan(eng, protoSlot, core.SlotTopology, s.Stack.TManC, dist)
	return &epidemicNet{
		eng: eng,
		quality: func(e *sim.Engine) float64 {
			linked, live := 0, 0
			e.ForEachLive(func(n *sim.Node) {
				live++
				tm, ok := n.Protocol(protoSlot).(*overlay.TMan)
				if !ok {
					return
				}
				for _, nb := range tm.Neighbors() {
					if dist(n.ID, nb) == 1 {
						if p := e.Node(nb); p != nil && p.Alive {
							linked++
							break
						}
					}
				}
			})
			if live == 0 {
				return math.Inf(1)
			}
			return 1 - float64(linked)/float64(live)
		},
		counters: func(e *sim.Engine) (ex, lost, adopt int64) {
			e.ForEachLive(func(n *sim.Node) {
				if tm, ok := n.Protocol(protoSlot).(*overlay.TMan); ok {
					ex += tm.Exchanges
					lost += tm.Lost
				}
			})
			return ex, lost, 0
		},
	}
}
