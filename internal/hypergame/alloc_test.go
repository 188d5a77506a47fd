package hypergame

import (
	"math/rand"
	"reflect"
	"testing"

	"tokendrop/internal/core"
	"tokendrop/internal/local"
)

// These tests pin the zero-allocation contract of the reusable execution
// layer for the hypergraph programs: a warmed local.Session plus
// Workspace rebuilds the incidence network, resets the program, and
// replays the entire engine run without a single heap allocation, and a
// reused session/workspace pair is observably identical to a fresh
// engine.

// TestSessionZeroAllocHyperProposal asserts 0 allocs for warmed repeat
// runs of the relay proposal program, including the per-phase incidence
// rebuild (Workspace.NewFlatInstance) the assignment loops perform.
func TestSessionZeroAllocHyperProposal(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	base := NewFlatInstanceFromInstance(RandomLayered(LayeredConfig{
		Levels: 3, Width: 50, Edges: 140, Rank: 3, TokenProb: 0.7,
	}, rng))
	sess := local.NewSession(2)
	defer sess.Close()
	w := NewWorkspace()
	opt := ShardedSolveOptions{}
	run := func() {
		fi, err := w.NewFlatInstance(base.level, base.token, base.eptr, base.ends, base.head)
		if err != nil {
			t.Fatal(err)
		}
		w.prop.reset(fi, opt)
		if _, err := sess.Run(fi.inc, &w.prop, local.ShardedOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm: grow the builder, incidence CSR, and program arrays once
	if allocs := testing.AllocsPerRun(5, run); allocs != 0 {
		t.Errorf("warmed hypergame proposal solve allocated %.1f objects per run; want 0", allocs)
	}
}

// TestSessionZeroAllocHyperThreeLevel is the same contract for the
// specialized three-level program.
func TestSessionZeroAllocHyperThreeLevel(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	base := NewFlatInstanceFromInstance(RandomThreeLevel(ThreeLevelConfig{
		Width: 60, PullEdges: 90, PushEdges: 90, Rank: 3, MidProb: 0.5,
	}, rng))
	sess := local.NewSession(2)
	defer sess.Close()
	w := NewWorkspace()
	opt := ShardedSolveOptions{}
	run := func() {
		fi, err := w.NewFlatInstance(base.level, base.token, base.eptr, base.ends, base.head)
		if err != nil {
			t.Fatal(err)
		}
		w.p3.reset3(fi, opt)
		if _, err := sess.Run(fi.inc, &w.p3, local.ShardedOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	run()
	if allocs := testing.AllocsPerRun(5, run); allocs != 0 {
		t.Errorf("warmed three-level hypergame solve allocated %.1f objects per run; want 0", allocs)
	}
}

// TestHyperSessionWorkspaceReuseMatchesFresh solves a varied sequence of
// hypergraph games (growing and shrinking, both solvers, both tie rules)
// through one session/workspace pair and demands exactly the
// fresh-engine results.
func TestHyperSessionWorkspaceReuseMatchesFresh(t *testing.T) {
	sess := local.NewSession(3)
	defer sess.Close()
	w := NewWorkspace()
	rng := rand.New(rand.NewSource(77))
	for i := 0; i < 18; i++ {
		var base *FlatInstance
		three := i%2 == 0
		if three {
			base = NewFlatInstanceFromInstance(RandomThreeLevel(ThreeLevelConfig{
				Width: 10 + 25*(i%3), PullEdges: 30 + 20*(i%3), PushEdges: 30, Rank: 2 + i%3, MidProb: 0.5,
			}, rng))
		} else {
			base = NewFlatInstanceFromInstance(RandomLayered(LayeredConfig{
				Levels: 2 + i%3, Width: 10 + 20*(i%4), Edges: 40 + 30*(i%3), Rank: 2 + i%2, TokenProb: 0.6,
			}, rng))
		}
		opt := ShardedSolveOptions{Seed: int64(i)}
		if i%3 == 2 {
			opt.Tie = core.TieRandom
		}
		reused := opt
		reused.Session = sess
		reused.Workspace = w
		fi, err := w.NewFlatInstance(base.level, base.token, base.eptr, base.ends, base.head)
		if err != nil {
			t.Fatalf("game %d: workspace instance: %v", i, err)
		}

		solve := SolveProposalSharded
		if three {
			solve = SolveThreeLevelSharded
		}
		got, err := solve(fi, reused)
		if err != nil {
			t.Fatalf("game %d: reused solve: %v", i, err)
		}
		want, err := solve(base, opt)
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
