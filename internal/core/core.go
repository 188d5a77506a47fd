// Package core implements the paper's primary contribution: the token
// dropping game (Section 4) and its distributed solutions.
//
// The input is a graph whose nodes are organized in layers 0..L; some nodes
// hold a token (at most one per node). A token may move from a node on
// layer ℓ to a neighbor on layer ℓ-1 that currently holds no token, and
// each edge may be used at most once during the whole game ("consumed").
// The single-player objective is to get stuck: to reach a configuration in
// which no token can move.
//
// The package provides
//
//   - the instance model with validation and workload generators,
//   - the distributed proposal algorithm of Theorem 4.1 (O(L·Δ²) rounds),
//   - the specialized 3-level algorithm of Theorem 4.7 (O(Δ) rounds),
//   - centralized sequential solvers used as baselines and test oracles,
//   - a verifier for the three solution rules of Section 4
//     (edge-disjoint traversals, unique destinations, maximality), and
//   - traversal/tail reconstruction (Definition 4.3, Figure 3).
package core

import (
	"fmt"
	"math/rand"

	"tokendrop/internal/graph"
)

// Instance is a token dropping game: a graph whose vertices carry levels
// such that every edge joins adjacent levels, plus an initial token
// placement with at most one token per vertex. The directed view of the
// paper (an edge (u, v) pointing from child u to parent v with
// ℓ(v) = ℓ(u)+1) is recovered from the levels.
type Instance struct {
	g     *graph.Graph
	level []int
	token []bool
}

// NewInstance validates and wraps a game instance. It returns an error if
// some edge does not join adjacent levels or a level is negative.
func NewInstance(g *graph.Graph, level []int, token []bool) (*Instance, error) {
	if len(level) != g.N() || len(token) != g.N() {
		return nil, fmt.Errorf("core: level/token slices sized %d/%d for %d vertices",
			len(level), len(token), g.N())
	}
	for v, l := range level {
		if l < 0 {
			return nil, fmt.Errorf("core: vertex %d has negative level %d", v, l)
		}
	}
	for id, e := range g.Edges() {
		d := level[e.U] - level[e.V]
		if d != 1 && d != -1 {
			return nil, fmt.Errorf("core: edge %d = %v joins levels %d and %d (must be adjacent)",
				id, e, level[e.U], level[e.V])
		}
	}
	return &Instance{
		g:     g,
		level: append([]int(nil), level...),
		token: append([]bool(nil), token...),
	}, nil
}

// MustInstance is NewInstance that panics on error; for generators whose
// construction guarantees validity.
func MustInstance(g *graph.Graph, level []int, token []bool) *Instance {
	inst, err := NewInstance(g, level, token)
	if err != nil {
		panic(err)
	}
	return inst
}

// Graph returns the underlying graph.
func (in *Instance) Graph() *graph.Graph { return in.g }

// N returns the number of vertices.
func (in *Instance) N() int { return in.g.N() }

// Level returns the level of vertex v.
func (in *Instance) Level(v int) int { return in.level[v] }

// Levels returns a copy of the level vector.
func (in *Instance) Levels() []int { return append([]int(nil), in.level...) }

// Height returns L, the maximum level (0 for an empty instance). The paper
// numbers layers 0..L and speaks of the game's "height"; a game using
// layers {0, 1, 2} has height 2 here (the paper's Theorem 4.7 calls this
// the "3-level" game, and ThreeLevelMaxLevel reflects that reading).
func (in *Instance) Height() int {
	h := 0
	for _, l := range in.level {
		if l > h {
			h = l
		}
	}
	return h
}

// Token reports whether vertex v initially holds a token.
func (in *Instance) Token(v int) bool { return in.token[v] }

// TokenVector returns a copy of the initial token placement.
func (in *Instance) TokenVector() []bool { return append([]bool(nil), in.token...) }

// NumTokens returns the number of tokens.
func (in *Instance) NumTokens() int {
	k := 0
	for _, t := range in.token {
		if t {
			k++
		}
	}
	return k
}

// IsParentArc reports whether the arc from v through the given adjacency
// entry leads to a parent of v (a neighbor one level above).
func (in *Instance) IsParentArc(v int, a graph.Arc) bool {
	return in.level[a.To] == in.level[v]+1
}

// Parents returns the arcs from v to its parents (neighbors one level up).
func (in *Instance) Parents(v int) []graph.Arc {
	var out []graph.Arc
	for _, a := range in.g.Adj(v) {
		if in.level[a.To] == in.level[v]+1 {
			out = append(out, a)
		}
	}
	return out
}

// Children returns the arcs from v to its children (one level down).
func (in *Instance) Children(v int) []graph.Arc {
	var out []graph.Arc
	for _, a := range in.g.Adj(v) {
		if in.level[a.To] == in.level[v]-1 {
			out = append(out, a)
		}
	}
	return out
}

// MaxDegree returns Δ of the underlying graph.
func (in *Instance) MaxDegree() int { return in.g.MaxDegree() }

// Clone returns a deep copy of the instance.
func (in *Instance) Clone() *Instance {
	return &Instance{
		g:     in.g.Clone(),
		level: append([]int(nil), in.level...),
		token: append([]bool(nil), in.token...),
	}
}

// State is a mutable game position: current token placement and per-edge
// consumption. It is the working structure of sequential solvers, the
// verifier's replay, and the maximality check.
type State struct {
	inst     *Instance
	token    []bool
	consumed []bool
	moves    int
}

// NewState returns the initial position of inst.
func NewState(inst *Instance) *State {
	return &State{
		inst:     inst,
		token:    inst.TokenVector(),
		consumed: make([]bool, inst.g.M()),
	}
}

// Token reports whether v currently holds a token.
func (s *State) Token(v int) bool { return s.token[v] }

// Consumed reports whether edge id has been consumed.
func (s *State) Consumed(id int) bool { return s.consumed[id] }

// Moves returns how many moves have been applied.
func (s *State) Moves() int { return s.moves }

// CanMove reports whether a token can currently move from parent u to
// child v along edge id, i.e. the move is legal in the current position.
func (s *State) CanMove(id, u, v int) error {
	if id < 0 || id >= s.inst.g.M() {
		return fmt.Errorf("core: no edge %d", id)
	}
	e := s.inst.g.Edge(id)
	if (e.U != u || e.V != v) && (e.U != v || e.V != u) {
		return fmt.Errorf("core: edge %d = %v does not join %d and %d", id, e, u, v)
	}
	if s.inst.level[u] != s.inst.level[v]+1 {
		return fmt.Errorf("core: move %d->%d goes from level %d to %d (must drop one level)",
			u, v, s.inst.level[u], s.inst.level[v])
	}
	if s.consumed[id] {
		return fmt.Errorf("core: edge %d already consumed", id)
	}
	if !s.token[u] {
		return fmt.Errorf("core: vertex %d holds no token", u)
	}
	if s.token[v] {
		return fmt.Errorf("core: vertex %d already holds a token", v)
	}
	return nil
}

// Apply performs the move, consuming the edge.
func (s *State) Apply(id, u, v int) error {
	if err := s.CanMove(id, u, v); err != nil {
		return err
	}
	s.token[u] = false
	s.token[v] = true
	s.consumed[id] = true
	s.moves++
	return nil
}

// MovableTokens returns all currently legal moves as (edge, from, to)
// triples in deterministic order.
func (s *State) MovableTokens() []Move {
	var out []Move
	for u := 0; u < s.inst.N(); u++ {
		if !s.token[u] {
			continue
		}
		for _, a := range s.inst.Children(u) {
			if !s.consumed[a.Edge] && !s.token[a.To] {
				out = append(out, Move{Edge: a.Edge, From: u, To: a.To})
			}
		}
	}
	return out
}

// Stuck reports whether no token can move — the game's goal configuration.
func (s *State) Stuck() bool { return len(s.MovableTokens()) == 0 }

// TokenVector returns a copy of the current token placement.
func (s *State) TokenVector() []bool { return append([]bool(nil), s.token...) }

// ConsumedVector returns a copy of the per-edge consumption flags.
func (s *State) ConsumedVector() []bool { return append([]bool(nil), s.consumed...) }

// shuffledCopy returns a seeded random permutation of moves; helper for
// randomized sequential policies.
func shuffledCopy(moves []Move, rng *rand.Rand) []Move {
	out := append([]Move(nil), moves...)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}
