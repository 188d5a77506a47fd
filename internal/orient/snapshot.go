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

// Capture fills snap from the orientation after the given phase.
func (p *phases) Capture(snap *Snapshot, phase, rounds int, log []PhaseRecord) {
	captureSnapshot(snap, phase, len(p.res.Head)-len(p.unoriented), rounds, p.res.Head, p.res.Load, p.rngs, log)
}

// Cursor checks rs's shape against the solve's graph and returns its
// cursor; core.PhaseLoop checks the phase log and the TieRandom streams
// (one per vertex) before Restore runs.
func (p *phases) Cursor(rs *Snapshot) (core.PhaseCursor, error) {
	n, m := len(p.res.Load), len(p.res.Head)
	if len(rs.Head) != m || len(rs.Load) != n {
		return core.PhaseCursor{}, fmt.Errorf("resume snapshot shaped %d edges / %d vertices, graph has %d / %d",
			len(rs.Head), len(rs.Load), m, n)
	}
	return core.PhaseCursor{Phase: rs.Phase, Rounds: rs.Rounds, Log: rs.PhaseLog,
		Streams: []core.TieStreams{{Owners: "vertices", Live: p.rngs, Saved: rs.Rngs}}}, nil
}

// Restore validates the rest of rs against the solve's graph — every
// head an endpoint of its edge, the oriented count and every load what
// the heads encode, every edge of badness at most 1 (Lemma 5.4, which
// holds between phases) — and installs it into the orientation, with
// the unoriented edges as the next phase's proposers.
func (p *phases) Restore(rs *Snapshot) error {
	r := p.res
	head, load, eu, ev := r.Head, r.Load, r.eu, r.ev
	oriented := 0
	clear(load)
	for id, h := range rs.Head {
		if h == -1 {
			continue
		}
		if h != eu[id] && h != ev[id] {
			return fmt.Errorf("resume snapshot orients edge %d toward vertex %d, not one of its endpoints %d, %d",
				id, h, eu[id], ev[id])
		}
		load[h]++
		oriented++
	}
	if oriented != rs.Oriented {
		return fmt.Errorf("resume snapshot claims %d oriented edges, heads encode %d", rs.Oriented, oriented)
	}
	for v, l := range load {
		if l != rs.Load[v] {
			return fmt.Errorf("resume snapshot's load of vertex %d is %d, heads encode %d", v, rs.Load[v], l)
		}
	}
	copy(head, rs.Head)
	if b := r.MaxBadness(); b > 1 {
		return fmt.Errorf("resume snapshot has an edge of badness %d (at most 1 between phases)", b)
	}
	p.unoriented = p.unoriented[:0]
	for id, h := range head {
		if h < 0 {
			p.unoriented = append(p.unoriented, int32(id))
		}
	}
	return nil
}
