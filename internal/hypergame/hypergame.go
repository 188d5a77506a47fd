// Package hypergame generalizes the token dropping game to hypergraphs
// (Section 7.1): customers of degree above two become hyperedges over the
// server vertices. Each hyperedge e = {v1, …, vi} has a head v1 with
// ℓ(v1) = min{ℓ(v2), …, ℓ(vi)} + 1; a token can be passed by the head to
// one of the hyperedge's children (endpoints one level below the head),
// consuming the whole hyperedge. The rules of edge-disjoint traversals,
// unique destinations, and maximal traversals carry over.
//
// The distributed solver (Theorem 7.1, O(L·S²) rounds) runs on the natural
// LOCAL communication network of the assignment problem: the bipartite
// incidence graph in which every hyperedge is a relay node between its
// endpoint servers.
//
// Both solvers (the generic Theorem 7.1 proposal protocol and the
// specialized Theorem 7.5 three-level protocol) exist on both LOCAL
// runtimes: SolveProposal/SolveThreeLevel step object machines on the
// seed engine, SolveProposalSharded/SolveThreeLevelSharded run the same
// protocols as flat programs on the sharded engine, bit-identically under
// either tie rule (flat_test.go asserts this exactly).
package hypergame

import (
	"fmt"
	"math/rand"
	"sort"
)

// Instance is a hypergraph token dropping game.
type Instance struct {
	level []int
	token []bool
	edges [][]int // hyperedges: endpoint vertex sets
	head  []int   // per hyperedge: the head endpoint
}

// NewInstance validates the level structure: every hyperedge must satisfy
// ℓ(head) = min over other endpoints + 1, heads must be endpoints, and
// endpoints must be distinct.
func NewInstance(level []int, token []bool, edges [][]int, head []int) (*Instance, error) {
	if len(level) != len(token) {
		return nil, fmt.Errorf("hypergame: %d levels for %d token slots", len(level), len(token))
	}
	if len(edges) != len(head) {
		return nil, fmt.Errorf("hypergame: %d edges with %d heads", len(edges), len(head))
	}
	n := len(level)
	for v, l := range level {
		if l < 0 {
			return nil, fmt.Errorf("hypergame: vertex %d has negative level", v)
		}
	}
	for id, e := range edges {
		if len(e) < 2 {
			return nil, fmt.Errorf("hypergame: hyperedge %d has rank %d < 2", id, len(e))
		}
		seen := make(map[int]bool, len(e))
		headSeen := false
		minOther := -1
		for _, v := range e {
			if v < 0 || v >= n {
				return nil, fmt.Errorf("hypergame: hyperedge %d endpoint %d out of range", id, v)
			}
			if seen[v] {
				return nil, fmt.Errorf("hypergame: hyperedge %d repeats endpoint %d", id, v)
			}
			seen[v] = true
			if v == head[id] {
				headSeen = true
				continue
			}
			if minOther < 0 || level[v] < minOther {
				minOther = level[v]
			}
		}
		if !headSeen {
			return nil, fmt.Errorf("hypergame: head %d of hyperedge %d is not an endpoint", head[id], id)
		}
		if level[head[id]] != minOther+1 {
			return nil, fmt.Errorf("hypergame: hyperedge %d head level %d != min other %d + 1",
				id, level[head[id]], minOther)
		}
	}
	return &Instance{
		level: append([]int(nil), level...),
		token: append([]bool(nil), token...),
		edges: cloneEdges(edges),
		head:  append([]int(nil), head...),
	}, nil
}

func cloneEdges(edges [][]int) [][]int {
	out := make([][]int, len(edges))
	for i, e := range edges {
		out[i] = append([]int(nil), e...)
	}
	return out
}

// MustInstance is NewInstance that panics on error.
func MustInstance(level []int, token []bool, edges [][]int, head []int) *Instance {
	inst, err := NewInstance(level, token, edges, head)
	if err != nil {
		panic(err)
	}
	return inst
}

// N returns the number of vertices.
func (in *Instance) N() int { return len(in.level) }

// M returns the number of hyperedges.
func (in *Instance) M() int { return len(in.edges) }

// Level returns the level of vertex v.
func (in *Instance) Level(v int) int { return in.level[v] }

// Height returns the maximum level.
func (in *Instance) Height() int {
	h := 0
	for _, l := range in.level {
		if l > h {
			h = l
		}
	}
	return h
}

// Token reports whether v initially holds a token.
func (in *Instance) Token(v int) bool { return in.token[v] }

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

// Edge returns the endpoints of hyperedge id (shared slice; do not
// modify).
func (in *Instance) Edge(id int) []int { return in.edges[id] }

// Head returns the head endpoint of hyperedge id.
func (in *Instance) Head(id int) int { return in.head[id] }

// Children returns the child endpoints of hyperedge id: the endpoints one
// level below the head.
func (in *Instance) Children(id int) []int {
	h := in.head[id]
	want := in.level[h] - 1
	var out []int
	for _, v := range in.edges[id] {
		if v != h && in.level[v] == want {
			out = append(out, v)
		}
	}
	return out
}

// HeadedBy returns the hyperedge ids whose head is v, in increasing order.
func (in *Instance) HeadedBy(v int) []int {
	var out []int
	for id, h := range in.head {
		if h == v {
			out = append(out, id)
		}
	}
	return out
}

// MaxRank returns C, the largest hyperedge rank.
func (in *Instance) MaxRank() int {
	c := 0
	for _, e := range in.edges {
		if len(e) > c {
			c = len(e)
		}
	}
	return c
}

// MaxVertexDegree returns S, the largest number of hyperedges sharing a
// vertex.
func (in *Instance) MaxVertexDegree() int {
	deg := make([]int, len(in.level))
	for _, e := range in.edges {
		for _, v := range e {
			deg[v]++
		}
	}
	s := 0
	for _, d := range deg {
		if d > s {
			s = d
		}
	}
	return s
}

// Move is one token pass: the head From of hyperedge Edge drops its token
// to child To, consuming the hyperedge.
type Move struct {
	Edge     int
	From, To int
	Round    int
}

// State is a mutable game position.
type State struct {
	inst     *Instance
	token    []bool
	consumed []bool
}

// NewState returns the initial position of inst.
func NewState(inst *Instance) *State {
	return &State{
		inst:     inst,
		token:    append([]bool(nil), inst.token...),
		consumed: make([]bool, inst.M()),
	}
}

// Token reports whether v currently holds a token.
func (s *State) Token(v int) bool { return s.token[v] }

// Consumed reports whether hyperedge id has been consumed.
func (s *State) Consumed(id int) bool { return s.consumed[id] }

// CanMove checks the legality of a move in the current position.
func (s *State) CanMove(id, from, to int) error {
	if id < 0 || id >= s.inst.M() {
		return fmt.Errorf("hypergame: no hyperedge %d", id)
	}
	if s.inst.head[id] != from {
		return fmt.Errorf("hypergame: %d is not the head of hyperedge %d", from, id)
	}
	child := false
	for _, v := range s.inst.Children(id) {
		if v == to {
			child = true
			break
		}
	}
	if !child {
		return fmt.Errorf("hypergame: %d is not a child of hyperedge %d", to, id)
	}
	if s.consumed[id] {
		return fmt.Errorf("hypergame: hyperedge %d already consumed", id)
	}
	if !s.token[from] {
		return fmt.Errorf("hypergame: vertex %d holds no token", from)
	}
	if s.token[to] {
		return fmt.Errorf("hypergame: vertex %d already holds a token", to)
	}
	return nil
}

// Apply performs the move, consuming the hyperedge.
func (s *State) Apply(id, from, to int) error {
	if err := s.CanMove(id, from, to); err != nil {
		return err
	}
	s.token[from] = false
	s.token[to] = true
	s.consumed[id] = true
	return nil
}

// MovableTokens lists all currently legal moves in deterministic order.
func (s *State) MovableTokens() []Move {
	var out []Move
	for id := range s.inst.edges {
		if s.consumed[id] {
			continue
		}
		h := s.inst.head[id]
		if !s.token[h] {
			continue
		}
		for _, c := range s.inst.Children(id) {
			if !s.token[c] {
				out = append(out, Move{Edge: id, From: h, To: c})
			}
		}
	}
	return out
}

// Stuck reports whether no token can move.
func (s *State) Stuck() bool { return len(s.MovableTokens()) == 0 }

// Solution is a move log plus the final position.
type Solution struct {
	Inst     *Instance
	Moves    []Move
	Final    []bool
	Consumed []bool
	Rounds   int
}

// Traversal is the vertex path a token followed.
type Traversal struct{ Path []int }

// Origin returns the first vertex of the traversal.
func (t Traversal) Origin() int { return t.Path[0] }

// Destination returns the last vertex of the traversal.
func (t Traversal) Destination() int { return t.Path[len(t.Path)-1] }

// Traversals reconstructs per-token paths by chronological occupancy
// simulation (cf. core.Solution.Traversals). It panics on illegal logs.
func (s *Solution) Traversals() []Traversal {
	moves := append([]Move(nil), s.Moves...)
	sort.SliceStable(moves, func(i, j int) bool { return moves[i].Round < moves[j].Round })
	tokenAt := make([]int, s.Inst.N())
	for v := range tokenAt {
		tokenAt[v] = -1
	}
	var paths [][]int
	for v := 0; v < s.Inst.N(); v++ {
		if s.Inst.Token(v) {
			tokenAt[v] = len(paths)
			paths = append(paths, []int{v})
		}
	}
	for _, m := range moves {
		tk := tokenAt[m.From]
		if tk < 0 {
			panic(fmt.Sprintf("hypergame: move %+v leaves an empty vertex", m))
		}
		if tokenAt[m.To] >= 0 {
			panic(fmt.Sprintf("hypergame: move %+v lands on an occupied vertex", m))
		}
		tokenAt[m.From] = -1
		tokenAt[m.To] = tk
		paths[tk] = append(paths[tk], m.To)
	}
	out := make([]Traversal, len(paths))
	for i, p := range paths {
		out[i] = Traversal{Path: p}
	}
	return out
}

// Verify replays the solution against the hypergraph game rules: legal
// moves over fresh hyperedges (rule 1), unique destinations (rule 2: the
// replay never lands a token on an occupied vertex), and maximality (rule
// 3). It mirrors core.Verify.
func Verify(s *Solution) error {
	st := NewState(s.Inst)
	moves := append([]Move(nil), s.Moves...)
	sort.SliceStable(moves, func(i, j int) bool { return moves[i].Round < moves[j].Round })
	for i, m := range moves {
		if err := st.Apply(m.Edge, m.From, m.To); err != nil {
			return fmt.Errorf("hypergame: move %d (round %d) illegal: %w", i, m.Round, err)
		}
	}
	if s.Final != nil {
		if len(s.Final) != s.Inst.N() {
			return fmt.Errorf("hypergame: final placement has %d entries for %d vertices", len(s.Final), s.Inst.N())
		}
		for v, want := range s.Final {
			if st.Token(v) != want {
				return fmt.Errorf("hypergame: replay token(%d)=%v, solution says %v", v, st.Token(v), want)
			}
		}
	}
	if s.Consumed != nil {
		if len(s.Consumed) != s.Inst.M() {
			return fmt.Errorf("hypergame: consumption vector has %d entries for %d hyperedges", len(s.Consumed), s.Inst.M())
		}
		for id, want := range s.Consumed {
			if st.Consumed(id) != want {
				return fmt.Errorf("hypergame: replay consumed(%d)=%v, solution says %v", id, st.Consumed(id), want)
			}
		}
	}
	count := 0
	for v := 0; v < s.Inst.N(); v++ {
		if st.Token(v) {
			count++
		}
	}
	if count != s.Inst.NumTokens() {
		return fmt.Errorf("hypergame: token count changed from %d to %d", s.Inst.NumTokens(), count)
	}
	if mv := st.MovableTokens(); len(mv) > 0 {
		return fmt.Errorf("hypergame: not maximal: %d tokens can still move (first: %+v)", len(mv), mv[0])
	}
	return nil
}

// SolveSequential plays the game to completion with a centralized
// scheduler: repeatedly perform the first (or a seeded-random) legal move.
func SolveSequential(inst *Instance, rng *rand.Rand) *Solution {
	st := NewState(inst)
	var log []Move
	for step := 0; ; step++ {
		moves := st.MovableTokens()
		if len(moves) == 0 {
			break
		}
		m := moves[0]
		if rng != nil {
			m = moves[rng.Intn(len(moves))]
		}
		m.Round = step
		if err := st.Apply(m.Edge, m.From, m.To); err != nil {
			panic("hypergame: sequential solver chose an illegal move: " + err.Error())
		}
		log = append(log, m)
	}
	return &Solution{
		Inst:     inst,
		Moves:    log,
		Final:    append([]bool(nil), st.token...),
		Consumed: append([]bool(nil), st.consumed...),
	}
}
