package orient

import (
	"fmt"

	"tokendrop/internal/core"
	"tokendrop/internal/reuse"
)

// Snapshot captures a SolveSharded run at a phase boundary — the one
// point of the phase loop where the engine's double buffer is quiescent
// (no subgame is in flight) and the whole mid-solve state is exactly the
// orientation arrays: per-edge heads, per-vertex loads, and (under
// TieRandom) the per-vertex accept streams. Resuming from a snapshot
// skips the completed phases entirely and continues bit-identically to
// the uninterrupted run: every later phase is a deterministic function of
// this state, the phase number, and the solve options. Serialize with
// encode.SnapshotJSON.
type Snapshot struct {
	// Phase is the cursor: the number of completed phases.
	Phase int
	// Oriented counts the edges oriented so far.
	Oriented int
	// Rounds is the accumulated communication-round count at the cursor.
	Rounds int
	// Head holds the head vertex per edge id, -1 while unoriented.
	Head []int32
	// Load holds the indegree per vertex.
	Load []int32
	// Rngs holds the per-vertex TieRandom accept streams at the cursor;
	// nil under TieFirstPort.
	Rngs []uint64
	// PhaseLog holds the records of the completed phases, so a resumed
	// run reports the full log.
	PhaseLog []PhaseRecord
}

// captureSnapshot fills snap (reusing its slices, grow-only) from the
// phase-loop state after the given phase completed.
func captureSnapshot(snap *Snapshot, phase, oriented, rounds int, head, load []int32, rngs []uint64, log []PhaseRecord) {
	snap.Phase = phase
	snap.Oriented = oriented
	snap.Rounds = rounds
	snap.Head = reuse.Grown(snap.Head, len(head))
	copy(snap.Head, head)
	snap.Load = reuse.Grown(snap.Load, len(load))
	copy(snap.Load, load)
	if rngs == nil {
		snap.Rngs = nil
	} else {
		snap.Rngs = reuse.Grown(snap.Rngs, len(rngs))
		copy(snap.Rngs, rngs)
	}
	snap.PhaseLog = append(snap.PhaseLog[:0], log...)
}

// restoreSnapshot validates rs against the solve's graph — every head an
// endpoint of its edge, every load the indegree the heads encode, every
// edge of badness at most 1 (Lemma 5.4, which holds between phases), and
// a phase log that accounts for the cursors — and installs its state
// into r's orientation arrays and rngs. It returns the phase cursor.
func restoreSnapshot(rs *Snapshot, r *ShardedResult, tie core.TieBreak, rngs []uint64) (int, error) {
	head, load, eu, ev := r.Head, r.Load, r.eu, r.ev
	n, m := len(load), len(head)
	if len(rs.Head) != m || len(rs.Load) != n {
		return 0, fmt.Errorf("orient: resume snapshot shaped %d edges / %d vertices, graph has %d / %d",
			len(rs.Head), len(rs.Load), m, n)
	}
	if err := core.CheckPhaseLog(rs.Phase, rs.Rounds, rs.PhaseLog); err != nil {
		return 0, fmt.Errorf("orient: resume snapshot: %w", err)
	}
	if tie == core.TieRandom {
		if len(rs.Rngs) != n {
			return 0, fmt.Errorf("orient: resume snapshot carries %d TieRandom streams for %d vertices", len(rs.Rngs), n)
		}
	} else if rs.Rngs != nil {
		return 0, fmt.Errorf("orient: resume snapshot carries TieRandom streams but the solve uses TieFirstPort")
	}
	oriented := 0
	clear(load)
	for id, h := range rs.Head {
		if h == -1 {
			continue
		}
		if h != eu[id] && h != ev[id] {
			return 0, fmt.Errorf("orient: resume snapshot orients edge %d toward vertex %d, not one of its endpoints %d, %d",
				id, h, eu[id], ev[id])
		}
		load[h]++
		oriented++
	}
	if oriented != rs.Oriented {
		return 0, fmt.Errorf("orient: resume snapshot claims %d oriented edges, heads encode %d", rs.Oriented, oriented)
	}
	for v, l := range load {
		if l != rs.Load[v] {
			return 0, fmt.Errorf("orient: resume snapshot's load of vertex %d is %d, heads encode %d", v, rs.Load[v], l)
		}
	}
	copy(head, rs.Head)
	if b := r.MaxBadness(); b > 1 {
		return 0, fmt.Errorf("orient: resume snapshot has an edge of badness %d (at most 1 between phases)", b)
	}
	if tie == core.TieRandom {
		copy(rngs, rs.Rngs)
	}
	return rs.Phase, nil
}
