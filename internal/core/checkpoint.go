package core

import "fmt"

// Checkpoint is the snapshot block every sharded solver embeds in its
// options (ShardedSolveOptions here, orient.ShardedOptions and
// assign.ShardedOptions in the phase loops); S is the solver's snapshot
// type.
//
// A game captures after every SnapshotEvery-th round, a phase loop after
// every SnapshotEvery-th phase. Captures happen only at a quiescent
// point — the engine's round barrier, or the boundary between phases —
// so every snapshot is crash-consistent by construction. The solver owns
// the snapshot buffer and rewrites it at the next capture: the *S handed
// to OnSnapshot is valid only during that call, so encode or copy it
// before returning.
//
// Resume comes in two styles. A game does a validated fast-forward: it
// re-executes rounds 1..cursor and fails on the first divergence from the
// snapshot. A phase loop does a validated restore: it checks the
// snapshot against the input and the inter-phase invariants, installs
// it, and continues from the phase after the cursor. Either way the
// continuation bit-matches the uninterrupted run.
type Checkpoint[S any] struct {
	// SnapshotEvery is the capture cadence; 0 disables capture.
	SnapshotEvery int
	// OnSnapshot receives every capture; a non-nil error aborts the solve.
	OnSnapshot func(*S) error
	// ResumeFrom, when non-nil, continues a recorded run from the
	// snapshot's cursor. It must come from a solve of the same input with
	// the same tie rule and seed.
	ResumeFrom *S
}

// Due reports whether the solver should capture at cursor (a round count
// for games, a phase count for phase loops).
func (c Checkpoint[S]) Due(cursor int) bool {
	return c.OnSnapshot != nil && c.SnapshotEvery > 0 && cursor%c.SnapshotEvery == 0
}

// PhaseRecord is one entry of a phase loop's log (orient and assign):
// Theorems 5.1 and 7.3 run the same phase of two communication rounds for
// the load broadcast and the accept, then one token dropping game.
type PhaseRecord struct {
	Phase       int // 1-based
	Proposals   int // unoriented edges or unassigned customers at phase start
	Accepted    int // edges oriented or customers assigned this phase (= tokens in the game)
	GameEdges   int // badness-1 edges or customers included in the game
	GameRounds  int // communication rounds of the token dropping run
	TokensMoved int // tokens that travelled at least one hop
	MaxBadness  int // max badness after the phase, on effective loads (Lemma 5.4: ≤ 1)
}

// CheckPhaseLog validates the phase log a phase-loop snapshot carries
// against its cursors: one record per completed phase, the i-th numbered
// i, and a round counter equal to Σ(2 + GameRounds) over the records.
func CheckPhaseLog(phase, rounds int, log []PhaseRecord) error {
	if len(log) != phase {
		return fmt.Errorf("phase log holds %d records for %d completed phases", len(log), phase)
	}
	// Charge each record against the counter. Every step starts at
	// rest ≥ 2 with GameRounds ≥ 0, so the subtraction stays exact and a
	// crafted log cannot match by overflow.
	rest := rounds
	for i, r := range log {
		if r.Phase != i+1 {
			return fmt.Errorf("phase log record %d is numbered %d", i+1, r.Phase)
		}
		if rest < 2 || r.GameRounds < 0 {
			return fmt.Errorf("round counter %d does not match the phase log", rounds)
		}
		rest -= 2 + r.GameRounds
	}
	if rest != 0 {
		return fmt.Errorf("round counter %d does not match the phase log", rounds)
	}
	return nil
}
