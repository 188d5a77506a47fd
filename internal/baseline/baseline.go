// Package baseline implements the comparators the paper measures its
// algorithm against:
//
//   - the centralized sequential algorithm of Section 1.1 ("start with an
//     arbitrary orientation and repeatedly pick an arbitrary unhappy edge
//     and flip it"), whose termination is certified by the strictly
//     decreasing potential Σ indegree², and
//   - a distributed best-response ("selfish flip") dynamic in the
//     CHSW12 class: every node starts with an arbitrarily oriented
//     edge set and overloaded servers shed load by flipping unhappy edges,
//     with randomized symmetry breaking. The full text of Czygrinow et
//     al. (DISC 2012) is not available offline; this comparator preserves
//     the design decision the paper credits for the prior work's O(Δ⁵)
//     cost — starting from an arbitrary orientation and repairing the
//     resulting unhappiness — which is what experiment E8 isolates;
//   - locally optimal load balancing (FHS15), the problem Section 2
//     contrasts token dropping against (experiment E15), on the same
//     unit-transfer machine as the selfish flips (transfer.go); and
//   - selfish reassignment, the selfish flips carried over to
//     customer/server assignment, which races the paper's assignment
//     layer in internal/arena.
//
// The orientation baselines produce stable orientations verified by the
// same oracle (graph.Orientation.Stable) as the paper's algorithm.
package baseline

import (
	"fmt"
	"math/rand"

	"tokendrop/internal/graph"
)

// InitRule selects the arbitrary initial orientation.
type InitRule int

const (
	// InitTowardHigherID orients every edge toward its higher-numbered
	// endpoint — the canonical "arbitrary" choice, adversarially bad on
	// stars and trees.
	InitTowardHigherID InitRule = iota
	// InitRandom orients every edge by a fair coin.
	InitRandom
)

// OrientAll returns a complete orientation of g per the rule.
func OrientAll(g *graph.Graph, rule InitRule, rng *rand.Rand) *graph.Orientation {
	o := graph.NewOrientation(g)
	for id, e := range g.Edges() {
		head := e.V // higher endpoint (edges are normalized U < V)
		if rule == InitRandom && rng.Intn(2) == 0 {
			head = e.U
		}
		o.Orient(id, head)
	}
	return o
}

// FlipPolicy selects which unhappy edge the sequential algorithm flips.
type FlipPolicy int

const (
	// FlipFirst flips the lowest-numbered unhappy edge.
	FlipFirst FlipPolicy = iota
	// FlipRandom flips a uniformly random unhappy edge.
	FlipRandom
	// FlipWorst flips an edge of maximum badness.
	FlipWorst
)

// SequentialResult reports a sequential greedy run.
type SequentialResult struct {
	Orientation      *graph.Orientation
	Flips            int
	InitialPotential int
	FinalPotential   int
}

// SequentialGreedy runs the Section 1.1 centralized algorithm from the
// given starting orientation (which it mutates) until no edge is unhappy.
// Every flip strictly decreases the potential, so the run terminates after
// at most (initial potential)/2 flips; the implementation enforces that as
// an invariant.
func SequentialGreedy(o *graph.Orientation, policy FlipPolicy, rng *rand.Rand) SequentialResult {
	res := SequentialResult{Orientation: o, InitialPotential: o.Potential()}
	pot := res.InitialPotential
	for {
		unhappy := o.UnhappyEdges()
		if len(unhappy) == 0 {
			break
		}
		var id int
		switch policy {
		case FlipFirst:
			id = unhappy[0]
		case FlipRandom:
			id = unhappy[rng.Intn(len(unhappy))]
		case FlipWorst:
			id = unhappy[0]
			for _, cand := range unhappy[1:] {
				if o.Badness(cand) > o.Badness(id) {
					id = cand
				}
			}
		default:
			panic("baseline: unknown flip policy")
		}
		o.Flip(id)
		res.Flips++
		if p := o.Potential(); p >= pot {
			panic(fmt.Sprintf("baseline: potential did not decrease (%d -> %d)", pot, p))
		} else {
			pot = p
		}
	}
	res.FinalPotential = pot
	return res
}

// FlipChainLength measures the propagation-chain phenomenon of Section
// 1.1: starting from the given orientation, it performs the FlipFirst
// dynamics and returns the length of the longest causal chain of flips,
// where flip j extends a chain ending at flip i if they share an endpoint
// and j happened after i. It demonstrates why the centralized algorithm
// is inherently sequential on caterpillar graphs.
func FlipChainLength(o *graph.Orientation) int {
	g := o.Graph()
	// chain[v] = longest chain of flips so far that ended at an edge
	// incident to v.
	chain := make([]int, g.N())
	longest := 0
	for {
		unhappy := o.UnhappyEdges()
		if len(unhappy) == 0 {
			return longest
		}
		id := unhappy[0]
		e := g.Edge(id)
		c := 1 + max(chain[e.U], chain[e.V])
		chain[e.U] = max(chain[e.U], c)
		chain[e.V] = max(chain[e.V], c)
		if c > longest {
			longest = c
		}
		o.Flip(id)
	}
}
