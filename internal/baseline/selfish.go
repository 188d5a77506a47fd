package baseline

import (
	"fmt"

	"tokendrop/internal/graph"
)

// SelfishResult reports a selfish-flip run.
type SelfishResult struct {
	Orientation *graph.Orientation
	Rounds      int   // communication rounds until global stability
	Flips       int   // total edge flips (each counted once)
	Messages    int64 // messages delivered
}

// SelfishFlips runs the distributed selfish-flip dynamic, the CHSW12-class
// comparator of experiment E8, from the given starting orientation until
// it is stable (or maxRounds passes without convergence, which returns an
// error). It is the unit-transfer dynamic of transfer.go with a node's
// indegree as its load and the edges it heads as its units. The input
// orientation is not mutated; the stabilized orientation is returned.
func SelfishFlips(o *graph.Orientation, seed int64, maxRounds, workers int) (*SelfishResult, error) {
	g := o.Graph()
	if maxRounds == 0 {
		maxRounds = 1 << 20
	}
	load := make([]int, g.N())
	heads := make([][]bool, g.N())
	for v := range heads {
		load[v] = o.Load(v)
		heads[v] = make([]bool, g.Degree(v))
		for p, a := range g.Adj(v) {
			heads[v][p] = o.Head(a.Edge) == v
		}
	}
	machines, stats, err := runTransfers(g, load, heads, seed, 0x5bd1e995, maxRounds, workers)
	if err != nil {
		return nil, fmt.Errorf("baseline: selfish flips did not converge: %w", err)
	}
	final := graph.NewOrientation(g)
	flips := 0
	for v, m := range machines {
		flips += m.moves
		for p, a := range g.Adj(v) {
			if m.heads[p] {
				final.Orient(a.Edge, v)
			}
		}
	}
	return &SelfishResult{
		Orientation: final,
		Rounds:      stats.Rounds,
		Flips:       flips / 2, // both endpoints count each flip
		Messages:    stats.Messages,
	}, nil
}
