package baseline

import (
	"fmt"

	"tokendrop/internal/graph"
)

// This file implements locally optimal load balancing (Feuilloley,
// Hirvonen, Suomela, DISC 2015), the problem Section 2 of the paper
// contrasts token dropping against: integer loads sit on nodes, a unit of
// load may move across an edge any number of times, and the goal is a
// locally optimal state — no single move lowers Σ load², i.e. adjacent
// loads differ by at most one.
//
// The paper's point is structural: token dropping consumes an edge after
// one use, so a bottleneck edge between a high-load and a low-load region
// is crossed once and the game simply gets stuck; a load balancer must
// push units across it one by one, paying Ω(initial load) rounds. The
// distributed best-response dynamic (the unit-transfer machine of
// transfer.go with every port eligible) makes that cost measurable
// (experiment E15), which is the evidence behind the paper's remark that
// token dropping is the strictly easier problem.

// State is a load vector over the vertices of a graph.
type State struct {
	G    *graph.Graph
	Load []int
}

// NewState wraps a load vector (copied).
func NewState(g *graph.Graph, load []int) (*State, error) {
	if len(load) != g.N() {
		return nil, fmt.Errorf("baseline: %d loads for %d vertices", len(load), g.N())
	}
	for v, l := range load {
		if l < 0 {
			return nil, fmt.Errorf("baseline: negative load at %d", v)
		}
	}
	return &State{G: g, Load: append([]int(nil), load...)}, nil
}

// LocallyOptimal reports whether no single unit move improves Σ load²:
// every edge's endpoint loads differ by at most one.
func (s *State) LocallyOptimal() bool {
	for _, e := range s.G.Edges() {
		d := s.Load[e.U] - s.Load[e.V]
		if d < -1 || d > 1 {
			return false
		}
	}
	return true
}

// Potential returns Σ load².
func (s *State) Potential() int {
	p := 0
	for _, l := range s.Load {
		p += l * l
	}
	return p
}

// Total returns the load sum (conserved by balancing).
func (s *State) Total() int {
	t := 0
	for _, l := range s.Load {
		t += l
	}
	return t
}

// Result reports a balancing run.
type Result struct {
	Final     *State
	Rounds    int
	UnitMoves int // single-unit transfers executed (each counted once)
}

// Balance runs the distributed dynamic from the given state until locally
// optimal (simulator-side termination oracle, as for the selfish-flip
// baseline) and returns the balanced state. The input is not mutated.
func Balance(s *State, seed int64, maxRounds, workers int) (*Result, error) {
	if maxRounds == 0 {
		maxRounds = 1 << 22
	}
	machines, stats, err := runTransfers(s.G, s.Load, nil, seed, 0x632be5ab, maxRounds, workers)
	if err != nil {
		return nil, fmt.Errorf("baseline: load balancing did not converge: %w", err)
	}
	final := make([]int, len(machines))
	moves := 0
	for v, m := range machines {
		final[v] = m.load
		moves += m.moves
	}
	fs, err := NewState(s.G, final)
	if err != nil {
		return nil, err
	}
	if fs.Total() != s.Total() {
		return nil, fmt.Errorf("baseline: load not conserved: %d -> %d", s.Total(), fs.Total())
	}
	return &Result{Final: fs, Rounds: stats.Rounds, UnitMoves: moves / 2}, nil
}

// Dumbbell builds the Section 2 bottleneck scenario: two groups of `side`
// vertices joined by a single bridge edge, with `initial` units of load on
// every vertex of the left group and none on the right. Within each group
// the vertices form a path (so load can spread internally), and all
// traffic between the groups must cross the one bridge.
func Dumbbell(side, initial int) (*State, error) {
	g := graph.New(2 * side)
	for i := 0; i+1 < side; i++ {
		g.AddEdge(i, i+1)
		g.AddEdge(side+i, side+i+1)
	}
	g.AddEdge(side-1, side) // the bridge
	g.SortAdjacency()
	load := make([]int, 2*side)
	for i := 0; i < side; i++ {
		load[i] = initial
	}
	return NewState(g, load)
}
