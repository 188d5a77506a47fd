package core

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"tokendrop/internal/local"
)

// These tests pin the zero-allocation contract of the reusable execution
// layer: a warmed local.Session plus SolverWorkspace replays entire
// solves — program reset, shard bounds, every engine round — without a
// single heap allocation, and solving through a reused session/workspace
// pair is observably identical to solving on a fresh engine.

func allocProposalGame() *FlatInstance {
	rng := rand.New(rand.NewSource(11))
	return FlatRandomLayered(LayeredConfig{
		Levels: 4, Width: 80, ParentDeg: 3, TokenProb: 0.6, FreeBottom: true,
	}, rng)
}

// TestSessionZeroAllocProposal asserts 0 allocs for warmed repeat runs of
// the proposal program (reset + full engine execution; result assembly,
// which hands fresh slices to the caller, is deliberately outside).
func TestSessionZeroAllocProposal(t *testing.T) {
	fi := allocProposalGame()
	sess := local.NewSession(2)
	defer sess.Close()
	ws := NewSolverWorkspace()
	run := func() {
		ws.prop.reset(fi, TieFirstPort, 0, sess)
		if _, err := sess.Run(fi.csr, &ws.prop, local.ShardedOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm: grow every array and per-shard log once
	if allocs := testing.AllocsPerRun(5, run); allocs != 0 {
		t.Errorf("warmed proposal solve allocated %.1f objects per run; want 0", allocs)
	}
}

// TestSessionZeroAllocThreeLevel is the same contract for the three-level
// program.
func TestSessionZeroAllocThreeLevel(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	fi := FlatRandomLayered(LayeredConfig{
		Levels: 2, Width: 100, ParentDeg: 3, TokenProb: 0.6, FreeBottom: true,
	}, rng)
	sess := local.NewSession(2)
	defer sess.Close()
	ws := NewSolverWorkspace()
	run := func() {
		ws.three.reset(fi, TieFirstPort, 0, sess)
		if _, err := sess.Run(fi.csr, &ws.three, local.ShardedOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	run()
	if allocs := testing.AllocsPerRun(5, run); allocs != 0 {
		t.Errorf("warmed three-level solve allocated %.1f objects per run; want 0", allocs)
	}
}

// TestSolveShardedIntoZeroAllocWarmed pins the result-reusing solvers
// end to end: a warmed SolveProposalShardedInto or
// SolveThreeLevelShardedInto on a session, a workspace and a reused
// result — reset, every round, and the result assembly — allocates
// nothing, under both tie rules.
func TestSolveShardedIntoZeroAllocWarmed(t *testing.T) {
	sess := local.NewSession(2)
	defer sess.Close()
	ws := NewSolverWorkspace()
	threeLevel := FlatRandomLayered(LayeredConfig{
		Levels: 2, Width: 100, ParentDeg: 3, TokenProb: 0.6, FreeBottom: true,
	}, rand.New(rand.NewSource(5)))
	for _, c := range []struct {
		name  string
		fi    *FlatInstance
		solve func(*FlatInstance, ShardedSolveOptions, *FlatResult) error
	}{
		{"proposal", allocProposalGame(), SolveProposalShardedInto},
		{"three-level", threeLevel, SolveThreeLevelShardedInto},
	} {
		for _, tie := range []TieBreak{TieFirstPort, TieRandom} {
			opt := ShardedSolveOptions{Tie: tie, Seed: 3, MaxRounds: 1 << 20, Session: sess, Workspace: ws}
			var out FlatResult
			run := func() {
				if err := c.solve(c.fi, opt, &out); err != nil {
					t.Fatal(err)
				}
			}
			run() // warm: grow the program arrays and the result's slices once
			if allocs := testing.AllocsPerRun(5, run); allocs != 0 {
				t.Errorf("%s tie=%v: warmed solve allocated %.1f objects per run; want 0", c.name, tie, allocs)
			}
		}
	}
}

// TestSessionWorkspaceReuseMatchesFresh solves a varied sequence of games
// (growing and shrinking, both solvers, both tie rules) through one
// session/workspace pair and demands exactly the fresh-engine results —
// the session and workspace must leak no state between solves.
func TestSessionWorkspaceReuseMatchesFresh(t *testing.T) {
	sess := local.NewSession(3)
	defer sess.Close()
	ws := NewSolverWorkspace()
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 24; i++ {
		cfg := LayeredConfig{
			Levels:     2 + i%3,
			Width:      10 + 30*(i%4),
			ParentDeg:  1 + i%3,
			TokenProb:  0.5,
			FreeBottom: i%2 == 0,
		}
		fi := FlatRandomLayered(cfg, rng)
		tie := TieFirstPort
		if i%3 == 2 {
			tie = TieRandom
		}
		opt := ShardedSolveOptions{Tie: tie, Seed: int64(i)}
		reused := opt
		reused.Session = sess
		reused.Workspace = ws

		solve := SolveProposalSharded
		if fi.Height() <= ThreeLevelMaxLevel && i%2 == 0 {
			solve = SolveThreeLevelSharded
		}
		got, err := solve(fi, reused)
		if err != nil {
			t.Fatalf("game %d: reused solve: %v", i, err)
		}
		want, err := solve(fi, opt)
		if err != nil {
			t.Fatalf("game %d: fresh solve: %v", i, err)
		}
		if got.Stats != want.Stats {
			t.Fatalf("game %d: stats %+v != fresh %+v", i, got.Stats, want.Stats)
		}
		if !reflect.DeepEqual(got.Moves, want.Moves) {
			t.Fatalf("game %d: move logs diverge (reused %d moves, fresh %d)", i, len(got.Moves), len(want.Moves))
		}
		if !reflect.DeepEqual(got.Final, want.Final) {
			t.Fatalf("game %d: final placements diverge", i)
		}
	}
}

// TestSeedEngineTieRandomMemory pins the seed engine's TieRandom cost to
// its TieFirstPort cost: a TieRandom stream is one word per vertex, so
// the rule may not multiply what a solve allocates (a math/rand source
// per vertex once made it ~6×).
func TestSeedEngineTieRandomMemory(t *testing.T) {
	inst := RandomLayered(LayeredConfig{
		Levels: 6, Width: 2000, ParentDeg: 3, TokenProb: 0.5, FreeBottom: true,
	}, rand.New(rand.NewSource(1)))
	allocated := func(tie TieBreak) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, _, err := SolveProposal(inst, SolveOptions{Tie: tie, Seed: 7}); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	first, random := allocated(TieFirstPort), allocated(TieRandom)
	if float64(random) > 1.5*float64(first) {
		t.Errorf("TieRandom solve allocated %d bytes, over 1.5× TieFirstPort's %d", random, first)
	}
}
