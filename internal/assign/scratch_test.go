package assign

import (
	"math/rand"
	"reflect"
	"testing"

	"tokendrop/internal/core"
	"tokendrop/internal/graph"
)

// TestSolveScratchMatchesFresh solves a varied sequence of networks
// (growing and shrinking, both tie rules, the general problem and k = 2)
// through one scratch (and so one session and workspace) and demands
// exactly the fresh-solve results, including the new message accounting.
func TestSolveScratchMatchesFresh(t *testing.T) {
	sc := new(SolveScratch)
	defer sc.Close()
	rng := rand.New(rand.NewSource(21))
	sizes := []struct{ nl, nr, c, k int }{
		{40, 10, 3, 0}, {120, 25, 4, 2}, {30, 8, 2, 0}, {200, 30, 3, 0}, {60, 12, 5, 2}, {90, 20, 3, 2},
	}
	for i, sz := range sizes {
		tie := core.TieFirstPort
		if i%2 == 1 {
			tie = core.TieRandom
		}
		g := graph.RandomBipartite(sz.nl, sz.nr, sz.c, rng)
		fb := graph.NewCSRBipartiteFromBipartite(graph.MustBipartite(g, sz.nl))
		fresh, err := SolveSharded(fb, ShardedOptions{K: sz.k, Tie: tie, Seed: int64(i), Shards: 2, CheckInvariants: true})
		if err != nil {
			t.Fatal(err)
		}
		reused, err := SolveSharded(fb, ShardedOptions{
			K: sz.k, Tie: tie, Seed: int64(i), Shards: 3, CheckInvariants: true,
			Scratch: sc,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(fresh.ServerOf, reused.ServerOf) || !reflect.DeepEqual(fresh.Load, reused.Load) {
			t.Fatalf("instance %d: scratch solve diverged from fresh solve", i)
		}
		if fresh.Phases != reused.Phases || fresh.Rounds != reused.Rounds ||
			fresh.Messages != reused.Messages || !reflect.DeepEqual(fresh.PhaseLog, reused.PhaseLog) {
			t.Fatalf("instance %d: accounting diverged: fresh {p=%d r=%d m=%d}, reused {p=%d r=%d m=%d}",
				i, fresh.Phases, fresh.Rounds, fresh.Messages, reused.Phases, reused.Rounds, reused.Messages)
		}
		if fresh.Messages <= int64(fresh.Rounds) {
			t.Fatalf("instance %d: implausible message count %d for %d rounds", i, fresh.Messages, fresh.Rounds)
		}
	}
}

// TestSolveShardedZeroAllocWarmed pins the scoreboard contract the arena
// relies on: a warmed scratch (session, workspace, and arrays) repeat solve of the
// full batch solver performs no heap allocations, under both tie rules,
// for the general problem and for k = 2 (three-level subgames).
func TestSolveShardedZeroAllocWarmed(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := graph.RandomBipartite(150, 30, 3, rng)
	fb := graph.NewCSRBipartiteFromBipartite(graph.MustBipartite(g, 150))
	for _, k := range []int{0, 2} {
		for _, tie := range []core.TieBreak{core.TieFirstPort, core.TieRandom} {
			sc := new(SolveScratch)
			run := func() {
				if _, err := SolveSharded(fb, ShardedOptions{
					K: k, Tie: tie, Seed: 9, Shards: 2, Scratch: sc,
				}); err != nil {
					t.Fatal(err)
				}
			}
			run() // warm: grow the scratch, session, and workspace arrays once
			if allocs := testing.AllocsPerRun(5, run); allocs != 0 {
				t.Errorf("k=%d tie=%v: warmed SolveSharded allocated %.1f objects per run; want 0", k, tie, allocs)
			}
			sc.Close()
		}
	}
}
