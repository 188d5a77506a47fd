package hypergame

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"tokendrop/internal/core"
)

func TestThreeLevelRejectsTallGames(t *testing.T) {
	inst := MustInstance(
		[]int{0, 1, 2, 3},
		[]bool{false, false, false, true},
		[][]int{{0, 1}, {1, 2}, {2, 3}},
		[]int{1, 2, 3},
	)
	if _, _, err := SolveThreeLevel(inst, SolveOptions{}); err == nil {
		t.Fatal("height-3 game accepted")
	}
}

func TestThreeLevelOnTriInstance(t *testing.T) {
	sol, stats, err := SolveThreeLevel(triInstance(), SolveOptions{MaxRounds: 10000})
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(sol); err != nil {
		t.Fatal(err)
	}
	if stats.Rounds == 0 || len(sol.Moves) == 0 {
		t.Fatal("expected movement")
	}
}

// random3Level is RandomThreeLevel with positional parameters.
func random3Level(width, pullEdges, pushEdges, rank int, midProb float64, rng *rand.Rand) *Instance {
	return RandomThreeLevel(ThreeLevelConfig{Width: width, PullEdges: pullEdges, PushEdges: pushEdges, Rank: rank, MidProb: midProb}, rng)
}

func TestThreeLevelRandomInstances(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for i := 0; i < 20; i++ {
		inst := random3Level(3+rng.Intn(6), 2+rng.Intn(10), 2+rng.Intn(10), 2+rng.Intn(3), rng.Float64(), rng)
		for _, tie := range []core.TieBreak{core.TieFirstPort, core.TieRandom} {
			sol, _, err := SolveThreeLevel(inst, SolveOptions{Tie: tie, Seed: int64(i), MaxRounds: 200000})
			if err != nil {
				t.Fatalf("instance %d: %v", i, err)
			}
			if err := Verify(sol); err != nil {
				t.Fatalf("instance %d (tie=%v): %v", i, tie, err)
			}
		}
	}
}

func TestThreeLevelAgreesWithGenericSolver(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	inst := random3Level(6, 8, 8, 3, 0.4, rng)
	a, _, err := SolveThreeLevel(inst, SolveOptions{MaxRounds: 200000})
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := SolveProposal(inst, SolveOptions{MaxRounds: 200000})
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(a); err != nil {
		t.Fatalf("specialized: %v", err)
	}
	if err := Verify(b); err != nil {
		t.Fatalf("generic: %v", err)
	}
}

func TestThreeLevelLinearRounds(t *testing.T) {
	// The specialized solver's rounds grow linearly with the degree on
	// 3-level games (Theorem 4.7 lifted to hyperedges).
	rng := rand.New(rand.NewSource(29))
	for _, width := range []int{4, 8, 12} {
		inst := random3Level(width, width*2, width*2, 3, 0.5, rng)
		s := inst.MaxVertexDegree()
		sol, stats, err := SolveThreeLevel(inst, SolveOptions{MaxRounds: 1 << 20})
		if err != nil {
			t.Fatal(err)
		}
		if err := Verify(sol); err != nil {
			t.Fatal(err)
		}
		if stats.Rounds > 25*s+60 {
			t.Fatalf("S=%d: %d rounds, above the linear bound", s, stats.Rounds)
		}
	}
}

func TestThreeLevelDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	inst := random3Level(6, 10, 10, 3, 0.3, rng)
	run := func(workers int) *Solution {
		sol, _, err := SolveThreeLevel(inst, SolveOptions{MaxRounds: 200000, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return sol
	}
	a, b := run(1), run(10)
	if len(a.Moves) != len(b.Moves) {
		t.Fatal("nondeterministic move count")
	}
	for i := range a.Moves {
		if a.Moves[i] != b.Moves[i] {
			t.Fatal("nondeterministic move log")
		}
	}
}

// Property: specialized solutions verify on random 3-level games.
func TestThreeLevelProperty(t *testing.T) {
	check := func(seed int64, wRaw, puRaw, psRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		inst := random3Level(int(wRaw%6)+3, int(puRaw%10)+1, int(psRaw%10)+1, 2+int(seed&1), rng.Float64(), rng)
		tie := core.TieFirstPort
		if seed%2 == 0 {
			tie = core.TieRandom
		}
		sol, _, err := SolveThreeLevel(inst, SolveOptions{Tie: tie, Seed: seed, MaxRounds: 1 << 20})
		if err != nil {
			return false
		}
		return Verify(sol) == nil
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// pinnedRun is what TestThreeLevelPinned holds a three-level run to.
type pinnedRun struct {
	rounds    int
	messages  int64
	maxActive int
	moves     int
	hash      uint64 // FNV-1a of the move log and the final placement
}

func pinRun(stats DistStats, moves []Move, final []bool) pinnedRun {
	h := fnv.New64a()
	for _, m := range moves {
		fmt.Fprintf(h, "%d %d %d %d;", m.Edge, m.From, m.To, m.Round)
	}
	for _, occ := range final {
		fmt.Fprint(h, occ)
	}
	return pinnedRun{stats.Rounds, stats.Messages, stats.MaxActiveRounds, len(moves), h.Sum64()}
}

// sortedEnds returns inst with each hyperedge's endpoints in ascending
// order, so its incidence ports do not depend on the generator's
// endpoint order.
func sortedEnds(inst *Instance) *Instance {
	edges := cloneEdges(inst.edges)
	for _, e := range edges {
		slices.Sort(e)
	}
	return MustInstance(inst.level, inst.token, edges, inst.head)
}

// TestThreeLevelPinned holds both engines' three-level solvers to runs
// measured once, on seeded three-level and height-2 layered games under
// both tie rules. The differential suites only compare the engines with
// each other, so an edit that changes both alike passes them; this test
// does not.
func TestThreeLevelPinned(t *testing.T) {
	games := []*Instance{
		RandomThreeLevel(ThreeLevelConfig{Width: 12, PullEdges: 20, PushEdges: 20, Rank: 3, MidProb: 0.4}, rand.New(rand.NewSource(1))),
		RandomThreeLevel(ThreeLevelConfig{Width: 20, PullEdges: 40, PushEdges: 30, Rank: 4, MidProb: 0.2}, rand.New(rand.NewSource(2))),
		RandomThreeLevel(ThreeLevelConfig{Width: 8, PullEdges: 10, PushEdges: 25, Rank: 2, MidProb: 0.6}, rand.New(rand.NewSource(3))),
		RandomLayered(LayeredConfig{Levels: 2, Width: 15, Edges: 45, Rank: 3, TokenProb: 0.5}, rand.New(rand.NewSource(4))),
		RandomLayered(LayeredConfig{Levels: 2, Width: 25, Edges: 60, Rank: 4, TokenProb: 0.3}, rand.New(rand.NewSource(5))),
	}
	want := []pinnedRun{ // per game: TieFirstPort, then TieRandom
		{17, 417, 2, 18, 0xc2dfd0318abf0f4c},
		{17, 429, 3, 20, 0xa8bc49e081bdcadd},
		{17, 1055, 2, 35, 0x5078eb0424af5ca8},
		{15, 979, 3, 35, 0xdf0fc50d927c3ad2},
		{17, 250, 2, 14, 0x62dd784414ff3682},
		{13, 250, 1, 13, 0xf8afa855f36a1f46},
		{13, 243, 1, 14, 0x77feed13bdcb496b},
		{13, 255, 2, 16, 0xf0c3213e1959c7a3},
		{11, 353, 1, 11, 0x8cff105f11a0615b},
		{13, 353, 1, 11, 0x26b79cbf85ea8f77},
	}
	for g, inst := range games {
		inst = sortedEnds(inst)
		for k, tie := range []core.TieBreak{core.TieFirstPort, core.TieRandom} {
			seed := int64(10 + g)
			w := want[2*g+k]
			sol, stats, err := SolveThreeLevel(inst, SolveOptions{Tie: tie, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			got := pinRun(stats, sol.Moves, sol.Final)
			if got != w {
				t.Errorf("game %d tie %v, seed engine: got %+v, want %+v", g, tie, got, w)
			}
			for _, shards := range []int{1, 3} {
				res, err := SolveThreeLevelSharded(NewFlatInstanceFromInstance(inst), ShardedSolveOptions{Tie: tie, Seed: seed, Shards: shards})
				if err != nil {
					t.Fatal(err)
				}
				if got := pinRun(res.Stats, res.Moves, res.Final); got != w {
					t.Errorf("game %d tie %v, %d shards: got %+v, want %+v", g, tie, shards, got, w)
				}
			}
		}
	}
}
