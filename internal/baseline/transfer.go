package baseline

import (
	"fmt"
	"math/bits"
	"math/rand"

	"tokendrop/internal/graph"
	"tokendrop/internal/local"
)

// This file is the unit-transfer machine behind both 3-round
// best-response comparators: locally optimal load balancing (Balance) and
// the CHSW12-class selfish flips (SelfishFlips). In every 3-round cycle,
//
//	round 0: every node applies the transfer acknowledged in the previous
//	         cycle (if any) and broadcasts its load,
//	round 1: every node tosses a fair coin to be a PROPOSER or ACCEPTOR;
//	         a proposer whose load exceeds an eligible neighbour's by at
//	         least two offers one unit over the port of the largest gap
//	         (ties to the lowest port),
//	round 2: an acceptor that received offers acknowledges exactly one,
//	         taking its unit; the proposer gives the unit up at the start
//	         of the next cycle.
//
// Load balancing lets every port carry a unit. For flips a node's load is
// its indegree and a unit is the head of an edge: the per-port heads mask
// makes only the edges a node heads eligible, and a transfer flips the
// edge towards the acceptor.
//
// Transfers executed in one cycle touch pairwise-disjoint nodes, so each
// strictly decreases Σ load² by at least 2 and the dynamic converges with
// probability 1; the coin toss breaks the symmetric deadlocks a
// deterministic rule would spin on. Nodes cannot locally detect global
// stability (a classic property of best-response dynamics), so the run is
// ended by the simulator's termination oracle once no eligible arc joins
// loads two apart — see local.Options.Stop.

// The messages of the best-response comparators: this file's 3-round
// cycle and the 6-round reassignment of selfishassign.go each exchange a
// load announcement, a transfer offer and a transfer acknowledgement. Load
// announcements are the only Θ(log load)-bit messages (local.Sized);
// offers and acks are constant.
type (
	loadMsg  struct{ load int }
	offerMsg struct{}
	ackMsg   struct{}
)

func (m loadMsg) Bits() int { return 2 + bits.Len(uint(m.load)) }
func (offerMsg) Bits() int  { return 2 }
func (ackMsg) Bits() int    { return 2 }

// unitMachine is the per-node state machine of the unit-transfer dynamic.
type unitMachine struct {
	vertex  int
	rng     *rand.Rand
	heads   []bool // per port: this node heads the edge; nil = every port eligible
	load    int
	nbrLoad []int
	offerTo int // port of our outstanding offer, -1 if none
	moves   int // transfers this node took part in
}

// eligible reports whether port p may carry a unit away from this node.
func (m *unitMachine) eligible(p int) bool { return m.heads == nil || m.heads[p] }

func (m *unitMachine) Init(info local.NodeInfo) {
	m.nbrLoad = make([]int, info.Degree)
	for i := range m.nbrLoad {
		m.nbrLoad[i] = -1
	}
}

func (m *unitMachine) Step(round int, in []local.Payload, out []local.Payload) bool {
	switch (round - 1) % 3 {
	case 0: // apply the pending ack, broadcast the load
		for p, raw := range in {
			if raw == nil {
				continue
			}
			if _, ok := raw.(ackMsg); !ok {
				panic(fmt.Sprintf("baseline: vertex %d expected acks, got %T", m.vertex, raw))
			}
			if p != m.offerTo {
				panic(fmt.Sprintf("baseline: vertex %d acked on a port it never offered", m.vertex))
			}
			if m.heads != nil {
				m.heads[p] = false // the edge now points at the acceptor
			}
			m.load--
			m.moves++
		}
		m.offerTo = -1
		for p := range out {
			out[p] = loadMsg{load: m.load}
		}
	case 1: // read loads; proposers offer one unit downhill
		for p, raw := range in {
			if raw == nil {
				continue
			}
			msg, ok := raw.(loadMsg)
			if !ok {
				panic(fmt.Sprintf("baseline: vertex %d expected loads, got %T", m.vertex, raw))
			}
			m.nbrLoad[p] = msg.load
		}
		if m.rng.Intn(2) == 0 {
			return false // acceptor this cycle
		}
		best, bestGap := -1, 1
		for p, nl := range m.nbrLoad {
			if nl < 0 || !m.eligible(p) {
				continue
			}
			if gap := m.load - nl; gap > bestGap {
				best, bestGap = p, gap
			}
		}
		if best >= 0 {
			m.offerTo = best
			out[best] = offerMsg{}
		}
	case 2: // acceptors take at most one offer
		var offers []int
		for p, raw := range in {
			if raw == nil {
				continue
			}
			if _, ok := raw.(offerMsg); !ok {
				panic(fmt.Sprintf("baseline: vertex %d expected offers, got %T", m.vertex, raw))
			}
			offers = append(offers, p)
		}
		if m.offerTo >= 0 || len(offers) == 0 {
			// Proposers never accept; their own offer resolves next cycle.
			return false
		}
		p := offers[m.rng.Intn(len(offers))]
		if m.heads != nil {
			if m.heads[p] {
				panic(fmt.Sprintf("baseline: vertex %d offered a flip of an edge it heads", m.vertex))
			}
			m.heads[p] = true
		}
		m.load++
		m.moves++
		out[p] = ackMsg{}
	}
	return false
}

var _ local.Machine = (*unitMachine)(nil)

// runTransfers runs the unit-transfer dynamic on g from the given loads
// until no eligible arc joins loads two apart, and returns the machines
// for the caller to read the final state from. heads is nil for load
// balancing; for flips heads[v][p] marks the edges v heads, and the
// machines take ownership of it. Node v draws its coins from seed ^ v·mix.
func runTransfers(g *graph.Graph, load []int, heads [][]bool, seed, mix int64, maxRounds, workers int) ([]*unitMachine, local.Stats, error) {
	machines := make([]*unitMachine, g.N())
	nw := local.NewNetwork(g, func(v int) local.Machine {
		m := &unitMachine{
			vertex:  v,
			rng:     rand.New(rand.NewSource(seed ^ int64(v)*mix)),
			load:    load[v],
			offerTo: -1,
		}
		if heads != nil {
			m.heads = heads[v]
		}
		machines[v] = m
		return m
	})
	// Termination oracle: loads and heads are consistent across machine
	// mirrors at the barrier after every round ≡ 1 (mod 3) — both sides
	// of every transfer have applied, and the cycle's broadcast is in
	// flight.
	stable := func(round int) bool {
		if (round-1)%3 != 0 {
			return false
		}
		for v, m := range machines {
			for p, a := range g.Adj(v) {
				if m.eligible(p) && m.load >= machines[a.To].load+2 {
					return false
				}
			}
		}
		return true
	}
	stats, err := nw.Run(local.Options{MaxRounds: maxRounds, Workers: workers, Stop: stable})
	return machines, stats, err
}
