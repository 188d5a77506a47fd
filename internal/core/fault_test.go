package core

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"tokendrop/internal/fault"
	"tokendrop/internal/local"
)

// sameFlatResult asserts two solves are bit-identical: placement, move
// log, and run statistics.
func sameFlatResult(t *testing.T, tag string, want, got *FlatResult) {
	t.Helper()
	if got.Stats != want.Stats {
		t.Fatalf("%s: stats %+v != %+v", tag, got.Stats, want.Stats)
	}
	if len(got.Final) != len(want.Final) || len(got.Moves) != len(want.Moves) {
		t.Fatalf("%s: sizes final %d/%d moves %d/%d", tag,
			len(got.Final), len(want.Final), len(got.Moves), len(want.Moves))
	}
	for v := range want.Final {
		if got.Final[v] != want.Final[v] {
			t.Fatalf("%s: final[%d] = %v, want %v", tag, v, got.Final[v], want.Final[v])
		}
	}
	for i := range want.Moves {
		if got.Moves[i] != want.Moves[i] {
			t.Fatalf("%s: move %d = %+v, want %+v", tag, i, got.Moves[i], want.Moves[i])
		}
	}
}

// TestCrashAtEveryRoundResumeBitMatch is the tentpole recovery sweep: a
// worker crash injected at every single round of a small proposal-game
// solve, under both tie rules and shard counts 1/2/8, each time
// auto-resumed from the last quiescent snapshot — and every recovered
// run must bit-match the uninterrupted solve (placement, move log, and
// statistics).
func TestCrashAtEveryRoundResumeBitMatch(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	fi := FlatRandomLayered(LayeredConfig{
		Levels: 3, Width: 12, ParentDeg: 2, TokenProb: 0.7, FreeBottom: true,
	}, rng)
	for _, tie := range []TieBreak{TieFirstPort, TieRandom} {
		for _, shards := range []int{1, 2, 8} {
			base := ShardedSolveOptions{Tie: tie, Seed: 77, Shards: shards}
			want, err := SolveProposalSharded(fi, base)
			if err != nil {
				t.Fatal(err)
			}
			rounds := want.Stats.Rounds
			if rounds < 3 {
				t.Fatalf("instance too easy (%d rounds) to sweep", rounds)
			}
			for r := 1; r <= rounds; r++ {
				tag := fmt.Sprintf("tie=%v shards=%d crash@%d", tie, shards, r)
				reg := fault.NewRegistry(int64(r))
				reg.Arm(local.FaultSiteRound, fault.Schedule{Kind: fault.KindCrash, TriggerAt: int64(r)})
				opt := base
				opt.Fault = reg
				opt.AutoResume = 1
				opt.SnapshotEvery = 1
				got, err := SolveProposalSharded(fi, opt)
				if err != nil {
					t.Fatalf("%s: %v", tag, err)
				}
				if len(reg.Trace()) != 1 {
					t.Fatalf("%s: trace %+v, want exactly one fire", tag, reg.Trace())
				}
				sameFlatResult(t, tag, want, got)
			}
		}
	}
}

// TestThreeLevelCrashResumeBitMatch sweeps injected crashes over the
// Theorem 4.7 solver's rounds with a sparser snapshot cadence, so
// resume also exercises cursors strictly older than the crash round.
func TestThreeLevelCrashResumeBitMatch(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	fi := FlatRandomLayered(LayeredConfig{
		Levels: 2, Width: 20, ParentDeg: 3, TokenProb: 0.8, FreeBottom: true,
	}, rng)
	for _, shards := range []int{1, 2, 8} {
		base := ShardedSolveOptions{Tie: TieFirstPort, Shards: shards}
		want, err := SolveThreeLevelSharded(fi, base)
		if err != nil {
			t.Fatal(err)
		}
		for r := 1; r <= want.Stats.Rounds; r++ {
			tag := fmt.Sprintf("shards=%d crash@%d", shards, r)
			reg := fault.NewRegistry(int64(r))
			reg.Arm(local.FaultSiteRound, fault.Schedule{Kind: fault.KindCrash, TriggerAt: int64(r)})
			opt := base
			opt.Fault = reg
			opt.AutoResume = 1
			opt.SnapshotEvery = 3
			got, err := SolveThreeLevelSharded(fi, opt)
			if err != nil {
				t.Fatalf("%s: %v", tag, err)
			}
			sameFlatResult(t, tag, want, got)
		}
	}
}

// TestInjectedErrorAutoResume pins that a KindError abort (clean return
// at the quiescent barrier, no worker panic) takes the same recovery
// path as a crash.
func TestInjectedErrorAutoResume(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	fi := FlatRandomLayered(LayeredConfig{
		Levels: 3, Width: 10, ParentDeg: 2, TokenProb: 0.6, FreeBottom: true,
	}, rng)
	want, err := SolveProposalSharded(fi, ShardedSolveOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	reg := fault.NewRegistry(1)
	reg.Arm(local.FaultSiteRound, fault.Schedule{Kind: fault.KindError, TriggerAt: 3})
	got, err := SolveProposalSharded(fi, ShardedSolveOptions{
		Shards: 2, Fault: reg, AutoResume: 1, Checkpoint: Checkpoint[Snapshot]{SnapshotEvery: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	sameFlatResult(t, "error@3", want, got)
}

// TestAutoResumeWithoutCadenceRetriesFromScratch pins the degenerate
// recovery mode: no snapshot cadence means nothing is retained, so the
// retry re-runs from round 1 — equivalent by determinism.
func TestAutoResumeWithoutCadenceRetriesFromScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	fi := FlatRandomLayered(LayeredConfig{
		Levels: 3, Width: 10, ParentDeg: 2, TokenProb: 0.6, FreeBottom: true,
	}, rng)
	want, err := SolveProposalSharded(fi, ShardedSolveOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	reg := fault.NewRegistry(1)
	reg.Arm(local.FaultSiteRound, fault.Schedule{Kind: fault.KindCrash, TriggerAt: 4})
	got, err := SolveProposalSharded(fi, ShardedSolveOptions{Shards: 2, Fault: reg, AutoResume: 1})
	if err != nil {
		t.Fatal(err)
	}
	sameFlatResult(t, "no-cadence", want, got)
}

// TestAutoResumeBudgetExhausted pins that a fault firing on every round
// eventually defeats the retry budget and surfaces the injected error.
func TestAutoResumeBudgetExhausted(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	fi := FlatRandomLayered(LayeredConfig{
		Levels: 3, Width: 10, ParentDeg: 2, TokenProb: 0.6, FreeBottom: true,
	}, rng)
	reg := fault.NewRegistry(1)
	reg.Arm(local.FaultSiteRound, fault.Schedule{Kind: fault.KindCrash, Every: 1})
	_, err := SolveProposalSharded(fi, ShardedSolveOptions{
		Shards: 2, Fault: reg, AutoResume: 3, Checkpoint: Checkpoint[Snapshot]{SnapshotEvery: 1},
	})
	if !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected after budget exhaustion", err)
	}
	if fires := len(reg.Trace()); fires != 4 {
		t.Fatalf("site fired %d times, want 4 (initial run + 3 retries)", fires)
	}
}

// TestAutoResumeDoesNotRetryHookErrors pins the retry filter: a user
// snapshot-hook failure is not a crash and must surface immediately.
func TestAutoResumeDoesNotRetryHookErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	fi := FlatRandomLayered(LayeredConfig{
		Levels: 3, Width: 10, ParentDeg: 2, TokenProb: 0.6, FreeBottom: true,
	}, rng)
	hookErr := errors.New("disk full")
	calls := 0
	_, err := SolveProposalSharded(fi, ShardedSolveOptions{
		Shards:     2,
		AutoResume: 5,
		Checkpoint: Checkpoint[Snapshot]{
			SnapshotEvery: 2,
			OnSnapshot:    func(*Snapshot) error { calls++; return hookErr },
		},
	})
	if !errors.Is(err, hookErr) {
		t.Fatalf("err = %v, want the hook error", err)
	}
	if calls != 1 {
		t.Fatalf("hook called %d times, want 1 (no retries)", calls)
	}
}

// TestDisarmedFaultSolveAllocFree extends the zero-cost pin to the
// threaded-through failpoints: a warmed session/workspace solve with a
// fault registry present but every site disarmed still allocates
// nothing.
func TestDisarmedFaultSolveAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	fi := FlatRandomLayered(LayeredConfig{
		Levels: 4, Width: 60, ParentDeg: 3, TokenProb: 0.6, FreeBottom: true,
	}, rng)
	sess := local.NewSession(2)
	defer sess.Close()
	ws := NewSolverWorkspace()
	reg := fault.NewRegistry(1)
	reg.Site(local.FaultSiteRound) // declared, never armed
	opt := ShardedSolveOptions{Tie: TieFirstPort, Session: sess, Fault: reg}
	run := func() {
		ws.prop.reset(fi, TieFirstPort, 0, sess)
		if _, err := runFlat(fi.csr, &ws.prop, opt); err != nil {
			t.Fatal(err)
		}
	}
	run()
	if allocs := testing.AllocsPerRun(5, run); allocs != 0 {
		t.Errorf("disarmed-failpoint solve allocated %.1f objects per run; want 0", allocs)
	}
}
