package core

import (
	"fmt"

	"tokendrop/internal/reuse"
)

// This file adds the record/replay view of the sharded game solvers. A
// token dropping run on the flat engine is a pure function of its inputs
// (instance, tie rule, seed) — the lockstep contract the differential
// suites enforce — so a snapshot does not need to serialize protocol
// internals (waiting counters, announced occupancies, in-flight words):
// the packed token placement at a round cursor identifies the run state
// up to deterministic re-execution. Resume is therefore a validated
// fast-forward: the solver re-runs rounds 1..Round and fails loudly if
// the placement at the cursor does not bit-match the snapshot, which
// catches every divergence source a post-mortem cares about (wrong
// instance, wrong seed or tie rule, engine drift). The phase-loop layers
// (internal/orient, internal/assign) restore state
// instead — their snapshots live at phase boundaries where skipping the
// completed phases is sound; see those packages.
//
// Captures run inside the engine's OnRound hook, a quiescent point of the
// round loop (every worker is parked behind the barrier, both message
// buffers are stable), so reading program state there is race-free and
// the capture is crash-consistent by construction.

// Snapshot captures a sharded token dropping game at a round boundary:
// the round cursor, the token placement after that round, and how many
// moves the log held. Produce one with ShardedSolveOptions.OnSnapshot and
// feed it back through ShardedSolveOptions.ResumeFrom; serialize it with
// encode.SnapshotJSON.
type Snapshot struct {
	// Round is the cursor: the number of completed rounds at capture.
	Round int
	// Occupied[v] reports whether vertex v held a token after Round
	// rounds.
	Occupied []bool
	// Moves is the length of the move log at the cursor.
	Moves int
}

// gameState is the snapshot view both flat game programs expose: read
// access to the current placement and the move-log length. Only safe to
// call at a round boundary (the engine's OnRound hook).
type gameState interface {
	occupiedVertex(v int) bool
	movesLogged() int
}

func (pr *flatProposal) occupiedVertex(v int) bool { return pr.vstate[v]&vOcc != 0 }

func (pr *flatProposal) movesLogged() int {
	total := 0
	for _, g := range pr.shardGrants {
		total += len(g)
	}
	return total
}

func (pr *flatThreeLevel) occupiedVertex(v int) bool { return pr.occupied[v] }

func (pr *flatThreeLevel) movesLogged() int {
	total := 0
	for _, ms := range pr.shardMoves {
		total += len(ms)
	}
	return total
}

// snapshotsEnabled reports whether opt asks for capture or resume; the
// disabled path must stay allocation-free, so runFlat only builds the
// hook closures when this is true.
func (opt *ShardedSolveOptions) snapshotsEnabled() bool {
	if opt.ResumeFrom != nil {
		return true
	}
	return opt.OnSnapshot != nil && opt.SnapshotEvery > 0
}

// captureInto fills snap from the program state at the given cursor,
// reusing snap's placement buffer (grow-only, as everywhere in the
// reusable execution layer).
func captureInto(snap *Snapshot, gs gameState, n, round int) {
	snap.Round = round
	snap.Occupied = reuse.Grown(snap.Occupied, n)
	for v := 0; v < n; v++ {
		snap.Occupied[v] = gs.occupiedVertex(v)
	}
	snap.Moves = gs.movesLogged()
}

// verifyCursor checks the replayed placement at the resume cursor against
// the snapshot and reports the first divergence.
func verifyCursor(gs gameState, rs *Snapshot) error {
	for v, want := range rs.Occupied {
		if got := gs.occupiedVertex(v); got != want {
			return fmt.Errorf("core: replay diverged from the snapshot at round %d: vertex %d occupied=%v, snapshot says %v",
				rs.Round, v, got, want)
		}
	}
	if got := gs.movesLogged(); got != rs.Moves {
		return fmt.Errorf("core: replay diverged from the snapshot at round %d: %d moves logged, snapshot says %d",
			rs.Round, got, rs.Moves)
	}
	return nil
}
