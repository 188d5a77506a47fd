package assign

import (
	"fmt"

	"tokendrop/internal/core"
	"tokendrop/internal/graph"
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

// restoreAssignSnapshot validates rs against the solve's network and
// threshold and installs its state. The unassigned slice is returned
// re-sliced to the snapshot's list; every assignment is checked against
// the adjacency, the loads are recounted from it, every customer must
// have badness at most 1 on effective loads (the inter-phase invariant),
// and the phase log must account for the cursors, so a corrupt snapshot
// fails here rather than phases later.
func restoreAssignSnapshot(rs *Snapshot, fb *graph.CSRBipartite, k int, tie core.TieBreak,
	serverOf, load, unassigned []int32, custRng, servRng []uint64) ([]int32, error) {
	nl, ns := fb.NumLeft, fb.NumServers()
	if rs.K != k {
		return nil, fmt.Errorf("resume snapshot was captured at threshold k = %d, solve runs k = %d", rs.K, k)
	}
	if len(rs.ServerOf) != nl || len(rs.Load) != ns {
		return nil, fmt.Errorf("resume snapshot shaped %d customers / %d servers, network has %d / %d",
			len(rs.ServerOf), len(rs.Load), nl, ns)
	}
	if err := core.CheckPhaseLog(rs.Phase, rs.Rounds, rs.PhaseLog); err != nil {
		return nil, fmt.Errorf("resume snapshot: %w", err)
	}
	if len(rs.Unassigned) > nl {
		return nil, fmt.Errorf("resume snapshot lists %d unassigned customers of %d", len(rs.Unassigned), nl)
	}
	if tie == core.TieRandom {
		if len(rs.CustRng) != nl || len(rs.ServRng) != ns {
			return nil, fmt.Errorf("resume snapshot carries %d/%d TieRandom streams for %d customers / %d servers",
				len(rs.CustRng), len(rs.ServRng), nl, ns)
		}
	} else if rs.CustRng != nil || rs.ServRng != nil {
		return nil, fmt.Errorf("resume snapshot carries TieRandom streams but the solve uses TieFirstPort")
	}
	assigned := 0
	for c, so := range rs.ServerOf {
		if so < -1 || int(so) >= ns {
			return nil, fmt.Errorf("resume snapshot assigns customer %d to server %d (out of range)", c, so)
		}
		if so >= 0 {
			assigned++
		}
	}
	if assigned+len(rs.Unassigned) != nl {
		return nil, fmt.Errorf("resume snapshot has %d assigned + %d unassigned customers of %d",
			assigned, len(rs.Unassigned), nl)
	}
	prev := int32(-1)
	for _, c := range rs.Unassigned {
		if c <= prev || int(c) >= nl {
			return nil, fmt.Errorf("resume snapshot's unassigned list is not ascending in [0,%d)", nl)
		}
		if rs.ServerOf[c] >= 0 {
			return nil, fmt.Errorf("resume snapshot lists assigned customer %d as unassigned", c)
		}
		prev = c
	}
	if err := recountLoads(fb, rs.ServerOf, rs.Load); err != nil {
		return nil, fmt.Errorf("resume snapshot: %w", err)
	}
	kc, err := loadCap(rs.K)
	if err != nil {
		return nil, err
	}
	if b := flatMaxBadness(fb, rs.ServerOf, rs.Load, kc); b > 1 {
		return nil, fmt.Errorf("resume snapshot has a customer of badness %d (at most 1 between phases)", b)
	}
	copy(serverOf, rs.ServerOf)
	copy(load, rs.Load)
	if tie == core.TieRandom {
		copy(custRng, rs.CustRng)
		copy(servRng, rs.ServRng)
	}
	unassigned = unassigned[:len(rs.Unassigned)]
	copy(unassigned, rs.Unassigned)
	return unassigned, nil
}
