package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"tokendrop/internal/local"
)

// snapshotFamilies enumerates the graph families the resume-equivalence
// property suite samples: four structurally distinct shapes (random
// layered DAG, dense grid, heavy-tailed bipartite, degenerate chain).
var snapshotFamilies = []struct {
	name  string
	build func(i int, rng *rand.Rand) *FlatInstance
}{
	{"layered", func(i int, rng *rand.Rand) *FlatInstance {
		return FlatRandomLayered(LayeredConfig{
			Levels: 3 + i%3, Width: 8 + i%7, ParentDeg: 2 + i%3,
			TokenProb: 0.4 + 0.1*float64(i%4), FreeBottom: true,
		}, rng)
	}},
	{"grid", func(i int, rng *rand.Rand) *FlatInstance {
		return FlatLayeredGrid(3+i%4, 6+i%5, 1+i%2)
	}},
	{"powerlaw", func(i int, rng *rand.Rand) *FlatInstance {
		return FlatPowerLawBipartite(12+i%9, 10+i%5, 2.0+0.2*float64(i%3), 4+i%3, rng)
	}},
	{"chain", func(i int, rng *rand.Rand) *FlatInstance {
		return NewFlatInstance(Chain(4 + i%6))
	}},
}

// runSharded dispatches on the solver kind the suite iterates over.
func runSharded(t *testing.T, three bool, fi *FlatInstance, opt ShardedSolveOptions) *FlatResult {
	t.Helper()
	var res *FlatResult
	var err error
	if three {
		res, err = SolveThreeLevelSharded(fi, opt)
	} else {
		res, err = SolveProposalSharded(fi, opt)
	}
	if err != nil {
		t.Fatalf("solve: %v", err)
	}
	return res
}

// captureEvery solves with a capture after every round and returns the
// result with a copy of each capture (the solver rewrites its buffer).
func captureEvery(t *testing.T, three bool, fi *FlatInstance, opt ShardedSolveOptions) (*FlatResult, []*Snapshot) {
	t.Helper()
	var snaps []*Snapshot
	opt.SnapshotEvery = 1
	opt.OnSnapshot = func(s *Snapshot) error {
		snaps = append(snaps, &Snapshot{Round: s.Round, Moves: s.Moves, Occupied: append([]bool(nil), s.Occupied...)})
		return nil
	}
	return runSharded(t, three, fi, opt), snaps
}

// TestResumeEquivalence is the core resume-equivalence property suite:
// across graph families, tie rules, and shard counts, a run resumed from
// the snapshot at every round cursor produces the bit-identical result
// of the uninterrupted run.
func TestResumeEquivalence(t *testing.T) {
	shardChoices := []int{1, 2, 8}
	for fam := range snapshotFamilies {
		f := snapshotFamilies[fam]
		t.Run(f.name, func(t *testing.T) {
			for i := 0; i < 8; i++ {
				rng := rand.New(rand.NewSource(int64(100*fam + i)))
				fi := f.build(i, rng)
				three := fi.Height() <= 2 && i%2 == 0
				for _, tie := range []TieBreak{TieFirstPort, TieRandom} {
					opt := ShardedSolveOptions{
						Tie: tie, Seed: int64(i), MaxRounds: 1 << 16,
						Shards: shardChoices[i%len(shardChoices)],
					}
					base := runSharded(t, three, fi, opt)
					again, snaps := captureEvery(t, three, fi, opt)
					if !reflect.DeepEqual(base, again) {
						t.Fatalf("%s[%d] tie=%v: snapshot capture perturbed the run", f.name, i, tie)
					}
					if len(snaps) != base.Stats.Rounds {
						t.Fatalf("%s[%d]: %d snapshots over %d rounds", f.name, i, len(snaps), base.Stats.Rounds)
					}

					// Resume under a different shard count: results are
					// shard-count invariant, so the resumed run must still
					// bit-match the uninterrupted one.
					ropt := opt
					ropt.Shards = shardChoices[(i+1)%len(shardChoices)]
					for _, snap := range snaps {
						cursor := snap.Round
						ropt.ResumeFrom = snap
						resumed := runSharded(t, three, fi, ropt)
						if !reflect.DeepEqual(base.Final, resumed.Final) {
							t.Fatalf("%s[%d] tie=%v cursor=%d: resumed final placement diverged", f.name, i, tie, cursor)
						}
						if !reflect.DeepEqual(base.Moves, resumed.Moves) {
							t.Fatalf("%s[%d] tie=%v cursor=%d: resumed move log diverged", f.name, i, tie, cursor)
						}
						if base.Stats.Rounds != resumed.Stats.Rounds {
							t.Fatalf("%s[%d] tie=%v cursor=%d: rounds %d != %d",
								f.name, i, tie, cursor, base.Stats.Rounds, resumed.Stats.Rounds)
						}
					}
				}
			}
		})
	}
}

// TestResumeRejectsDivergence checks the validated fast-forward: a
// tampered snapshot (wrong placement, wrong move count, wrong shape, or
// a cursor past the end of the run) must fail loudly, never silently
// produce a different run.
func TestResumeRejectsDivergence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	fi := FlatRandomLayered(LayeredConfig{Levels: 4, Width: 12, ParentDeg: 3, TokenProb: 0.6, FreeBottom: true}, rng)
	opt := ShardedSolveOptions{Tie: TieFirstPort, MaxRounds: 1 << 16, Shards: 2}
	base, err := SolveProposalSharded(fi, opt)
	if err != nil {
		t.Fatal(err)
	}
	if base.Stats.Rounds < 2 {
		t.Fatalf("workload too small: %d rounds", base.Stats.Rounds)
	}
	_, snaps := captureEvery(t, false, fi, opt)
	snap := snaps[base.Stats.Rounds/2-1]

	cases := []struct {
		name   string
		mutate func(s *Snapshot)
	}{
		{"flipped placement", func(s *Snapshot) { s.Occupied[0] = !s.Occupied[0] }},
		{"wrong move count", func(s *Snapshot) { s.Moves++ }},
		{"wrong shape", func(s *Snapshot) { s.Occupied = s.Occupied[:len(s.Occupied)-1] }},
		{"cursor past the end", func(s *Snapshot) { s.Round = base.Stats.Rounds + 10 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			bad := &Snapshot{
				Round:    snap.Round,
				Occupied: append([]bool(nil), snap.Occupied...),
				Moves:    snap.Moves,
			}
			tc.mutate(bad)
			ropt := opt
			ropt.ResumeFrom = bad
			if _, err := SolveProposalSharded(fi, ropt); err == nil {
				t.Fatal("tampered snapshot resumed without error")
			}
		})
	}
}

// TestSnapshotEverySchedule checks the periodic capture schedule: with
// SnapshotEvery = k, snapshots arrive exactly at rounds k, 2k, ... up to
// the final round, each internally consistent with the cursor.
func TestSnapshotEverySchedule(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	fi := FlatRandomLayered(LayeredConfig{Levels: 5, Width: 10, ParentDeg: 3, TokenProb: 0.7, FreeBottom: true}, rng)
	opt := ShardedSolveOptions{Tie: TieFirstPort, MaxRounds: 1 << 16, Shards: 3}
	base, err := SolveProposalSharded(fi, opt)
	if err != nil {
		t.Fatal(err)
	}
	const every = 2
	var rounds []int
	sopt := opt
	sopt.SnapshotEvery = every
	sopt.OnSnapshot = func(s *Snapshot) error {
		rounds = append(rounds, s.Round)
		if len(s.Occupied) != fi.N() {
			return fmt.Errorf("snapshot at round %d has %d vertices", s.Round, len(s.Occupied))
		}
		return nil
	}
	if _, err := SolveProposalSharded(fi, sopt); err != nil {
		t.Fatal(err)
	}
	want := 0
	for r := every; r <= base.Stats.Rounds; r += every {
		want++
	}
	if len(rounds) != want {
		t.Fatalf("got %d snapshots %v, want %d over %d rounds", len(rounds), rounds, want, base.Stats.Rounds)
	}
	for i, r := range rounds {
		if r != (i+1)*every {
			t.Fatalf("snapshot %d at round %d, want %d", i, r, (i+1)*every)
		}
	}
}

// TestSnapshotHookErrorAborts checks that a failing OnSnapshot stops the
// solve with that error instead of running to completion.
func TestSnapshotHookErrorAborts(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	fi := FlatRandomLayered(LayeredConfig{Levels: 5, Width: 10, ParentDeg: 3, TokenProb: 0.7, FreeBottom: true}, rng)
	sentinel := fmt.Errorf("disk full")
	opt := ShardedSolveOptions{
		Tie: TieFirstPort, MaxRounds: 1 << 16, Shards: 2,
		Checkpoint: Checkpoint[Snapshot]{
			SnapshotEvery: 1,
			OnSnapshot:    func(*Snapshot) error { return sentinel },
		},
	}
	_, err := SolveProposalSharded(fi, opt)
	if err == nil {
		t.Fatal("solve succeeded despite failing snapshot hook")
	}
}

// TestSnapshotDisabledSolveAllocFree pins the hooks' disabled-path cost:
// runFlat with no snapshot options wires no OnRound closure, so a warmed
// session/workspace solve stays allocation-free exactly as before the
// snapshot subsystem existed.
func TestSnapshotDisabledSolveAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	fi := FlatRandomLayered(LayeredConfig{
		Levels: 4, Width: 60, ParentDeg: 3, TokenProb: 0.6, FreeBottom: true,
	}, rng)
	sess := local.NewSession(2)
	defer sess.Close()
	ws := NewSolverWorkspace()
	opt := ShardedSolveOptions{Tie: TieFirstPort, Session: sess}
	run := func() {
		ws.prop.reset(fi, TieFirstPort, 0, sess)
		if _, err := runFlat(fi.csr, &ws.prop, opt); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm: grow every array and per-shard log once
	if allocs := testing.AllocsPerRun(5, run); allocs != 0 {
		t.Errorf("snapshot-disabled solve allocated %.1f objects per run; want 0", allocs)
	}
}

// TestSnapshotCaptureAllocFree pins the capture path's allocation
// discipline: with a warmed buffer, captureInto performs no allocations.
func TestSnapshotCaptureAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	fi := FlatRandomLayered(LayeredConfig{Levels: 4, Width: 16, ParentDeg: 3, TokenProb: 0.6, FreeBottom: true}, rng)
	sess := local.NewSession(1)
	defer sess.Close()
	ws := NewSolverWorkspace()
	ws.prop.reset(fi, TieFirstPort, 0, sess)
	snap := new(Snapshot)
	captureInto(snap, &ws.prop, fi.N(), 1) // warm the buffer
	if allocs := testing.AllocsPerRun(50, func() {
		captureInto(snap, &ws.prop, fi.N(), 2)
	}); allocs != 0 {
		t.Fatalf("warmed capture allocates %.1f times per run", allocs)
	}
}
