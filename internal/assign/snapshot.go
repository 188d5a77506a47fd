package assign

import (
	"fmt"

	"tokendrop/internal/core"
	"tokendrop/internal/reuse"
)

// Snapshot captures a SolveSharded run at a phase boundary — the point of
// the phase loop where the engine session is quiescent (no hypergame in
// flight) and the whole mid-solve state is exactly the assignment arrays:
// per-customer servers, per-server loads, the unassigned list, and (under
// TieRandom) the per-vertex tie-break streams. Resuming skips the
// completed phases and continues bit-identically to the uninterrupted
// run. Serialize with encode.SnapshotJSON.
type Snapshot struct {
	// K is the threshold the capturing solve ran with (0 = unbounded).
	// Resuming with a different threshold would silently change the
	// effective loads, so it is validated instead of trusted.
	K int
	// Phase is the cursor: the number of completed phases.
	Phase int
	// Rounds is the accumulated communication-round count at the cursor.
	Rounds int
	// ServerOf holds the assigned server index per customer, -1 while
	// unassigned.
	ServerOf []int32
	// Load holds the true (untruncated) customer count per server index.
	Load []int32
	// Unassigned lists the still-unassigned customers in ascending order.
	Unassigned []int32
	// CustRng and ServRng hold the TieRandom streams at the cursor; nil
	// under TieFirstPort.
	CustRng []uint64
	ServRng []uint64
	// PhaseLog holds the records of the completed phases.
	PhaseLog []PhaseRecord
}

// captureAssignSnapshot fills snap (reusing its slices, grow-only) from
// the phase-loop state after the given phase completed.
func captureAssignSnapshot(snap *Snapshot, k, phase, rounds int, serverOf, load, unassigned []int32,
	custRng, servRng []uint64, log []PhaseRecord) {
	snap.K = k
	snap.Phase = phase
	snap.Rounds = rounds
	snap.ServerOf = reuse.Grown(snap.ServerOf, len(serverOf))
	copy(snap.ServerOf, serverOf)
	snap.Load = reuse.Grown(snap.Load, len(load))
	copy(snap.Load, load)
	snap.Unassigned = reuse.Grown(snap.Unassigned, len(unassigned))
	copy(snap.Unassigned, unassigned)
	if custRng == nil {
		snap.CustRng, snap.ServRng = nil, nil
	} else {
		snap.CustRng = reuse.Grown(snap.CustRng, len(custRng))
		copy(snap.CustRng, custRng)
		snap.ServRng = reuse.Grown(snap.ServRng, len(servRng))
		copy(snap.ServRng, servRng)
	}
	snap.PhaseLog = append(snap.PhaseLog[:0], log...)
}

// Capture fills snap from the scratch's arrays after the given phase.
func (p phases) Capture(snap *Snapshot, phase, rounds int, log []PhaseRecord) {
	captureAssignSnapshot(snap, p.kOpt, phase, rounds, p.serverOf, p.load, p.unassigned, p.custRng, p.servRng, log)
}

// Cursor checks rs's threshold and shape against the solve and returns
// its cursor; core.PhaseLoop checks the phase log and the TieRandom
// streams (per customer and per server) before Restore runs.
func (p phases) Cursor(rs *Snapshot) (core.PhaseCursor, error) {
	nl, ns := p.fb.NumLeft, p.fb.NumServers()
	if rs.K != p.kOpt {
		return core.PhaseCursor{}, fmt.Errorf("resume snapshot was captured at threshold k = %d, solve runs k = %d", rs.K, p.kOpt)
	}
	if len(rs.ServerOf) != nl || len(rs.Load) != ns {
		return core.PhaseCursor{}, fmt.Errorf("resume snapshot shaped %d customers / %d servers, network has %d / %d",
			len(rs.ServerOf), len(rs.Load), nl, ns)
	}
	return core.PhaseCursor{Phase: rs.Phase, Rounds: rs.Rounds, Log: rs.PhaseLog, Streams: []core.TieStreams{
		{Owners: "customers", Live: p.custRng, Saved: rs.CustRng},
		{Owners: "servers", Live: p.servRng, Saved: rs.ServRng},
	}}, nil
}

// Restore validates the rest of rs against the solve's network and
// installs it: every assignment is checked against the adjacency, the
// loads are recounted from it, every customer must have badness at most
// 1 on effective loads (the inter-phase invariant), and the unassigned
// list must be the ascending list of the others, so a corrupt snapshot
// fails here rather than phases later.
func (p phases) Restore(rs *Snapshot) error {
	sc := p.SolveScratch
	fb := sc.fb
	nl, ns := fb.NumLeft, fb.NumServers()
	if len(rs.Unassigned) > nl {
		return fmt.Errorf("resume snapshot lists %d unassigned customers of %d", len(rs.Unassigned), nl)
	}
	assigned := 0
	for c, so := range rs.ServerOf {
		if so < -1 || int(so) >= ns {
			return fmt.Errorf("resume snapshot assigns customer %d to server %d (out of range)", c, so)
		}
		if so >= 0 {
			assigned++
		}
	}
	if assigned+len(rs.Unassigned) != nl {
		return fmt.Errorf("resume snapshot has %d assigned + %d unassigned customers of %d",
			assigned, len(rs.Unassigned), nl)
	}
	prev := int32(-1)
	for _, c := range rs.Unassigned {
		if c <= prev || int(c) >= nl {
			return fmt.Errorf("resume snapshot's unassigned list is not ascending in [0,%d)", nl)
		}
		if rs.ServerOf[c] >= 0 {
			return fmt.Errorf("resume snapshot lists assigned customer %d as unassigned", c)
		}
		prev = c
	}
	if err := recountLoads(fb, rs.ServerOf, rs.Load); err != nil {
		return fmt.Errorf("resume snapshot: %w", err)
	}
	if b := flatMaxBadness(fb, rs.ServerOf, rs.Load, sc.k); b > 1 {
		return fmt.Errorf("resume snapshot has a customer of badness %d (at most 1 between phases)", b)
	}
	copy(sc.serverOf, rs.ServerOf)
	copy(sc.load, rs.Load)
	sc.unassigned = sc.unassigned[:len(rs.Unassigned)]
	copy(sc.unassigned, rs.Unassigned)
	return nil
}
