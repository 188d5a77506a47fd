package core

import (
	"fmt"
	"sort"
)

// Verify checks a solution against the definition of the token dropping
// game (Section 4):
//
//  1. the move log replays legally (every move drops a token one level to
//     an unoccupied child over a fresh edge — this subsumes rule (1),
//     edge-disjoint traversals, because the replay consumes edges),
//  2. rule (2): destinations are unique — equivalently, the replay never
//     places two tokens on one vertex, and the final placement matches
//     Solution.Final,
//  3. rule (3): maximality — in the final position no token can move:
//     every child edge of an occupied vertex is consumed or leads to an
//     occupied vertex.
//
// Moves sharing a round are replayed in log order; the distributed
// protocols only produce same-round moves that are mutually compatible
// (vertex-disjoint sources and destinations), so any serialization of a
// round is equivalent — the replay detects violations either way.
//
// The replay is the whole check of rules (1) and (2): State.CanMove
// rejects a move over a missing or consumed edge, one that does not drop
// exactly one level, and one onto an occupied vertex, so the per-token
// view (Solution.Traversals) needs no second pass.
//
// Verify is a pure oracle: it shares no code with the solvers beyond the
// State transition rules, which are themselves tested directly.
func Verify(s *Solution) error {
	st := NewState(s.Inst)
	moves := append([]Move(nil), s.Moves...)
	sort.SliceStable(moves, func(i, j int) bool { return moves[i].Round < moves[j].Round })
	for i, m := range moves {
		if err := st.Apply(m.Edge, m.From, m.To); err != nil {
			return fmt.Errorf("core: move %d (round %d) illegal: %w", i, m.Round, err)
		}
	}

	// Final placement must match what the solver reported.
	if s.Final != nil {
		if len(s.Final) != s.Inst.N() {
			return fmt.Errorf("core: final placement has %d entries for %d vertices", len(s.Final), s.Inst.N())
		}
		for v, want := range s.Final {
			if st.Token(v) != want {
				return fmt.Errorf("core: replay says token(%d)=%v, solution says %v", v, st.Token(v), want)
			}
		}
	}
	if s.Consumed != nil {
		if len(s.Consumed) != s.Inst.Graph().M() {
			return fmt.Errorf("core: consumption vector has %d entries for %d edges",
				len(s.Consumed), s.Inst.Graph().M())
		}
		for id, want := range s.Consumed {
			if st.Consumed(id) != want {
				return fmt.Errorf("core: replay says consumed(%d)=%v, solution says %v", id, st.Consumed(id), want)
			}
		}
	}

	// Token conservation.
	finalCount := 0
	for v := 0; v < s.Inst.N(); v++ {
		if st.Token(v) {
			finalCount++
		}
	}
	if finalCount != s.Inst.NumTokens() {
		return fmt.Errorf("core: token count changed from %d to %d", s.Inst.NumTokens(), finalCount)
	}

	// Rule (3): maximality.
	if mv := st.MovableTokens(); len(mv) > 0 {
		m := mv[0]
		return fmt.Errorf("core: not maximal: token at %d (level %d) can still drop to %d (level %d) over edge %d (%d movable in total)",
			m.From, s.Inst.Level(m.From), m.To, s.Inst.Level(m.To), m.Edge, len(mv))
	}
	return nil
}
