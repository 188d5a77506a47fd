package hypergame

import (
	"math/rand"
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

// random3Level builds a random game on levels {0,1,2}: level-2 heads with
// level-1 children (pull edges) and level-1 heads with level-0 children
// (push edges). Tokens at all of level 2 and some of level 1; level-1
// heads have true load 1 in the Theorem 7.5 setting, here generalized.
func random3Level(width, pullEdges, pushEdges, rank int, midProb float64, rng *rand.Rand) *Instance {
	n := 3 * width
	level := make([]int, n)
	id := func(l, i int) int { return l*width + i }
	for l := 0; l < 3; l++ {
		for i := 0; i < width; i++ {
			level[id(l, i)] = l
		}
	}
	var edges [][]int
	var heads []int
	addEdge := func(headLevel int) {
		head := id(headLevel, rng.Intn(width))
		members := map[int]bool{head: true}
		members[id(headLevel-1, rng.Intn(width))] = true
		for len(members) < rank {
			l := headLevel - 1 + rng.Intn(2)
			if l > 2 {
				l = 2
			}
			members[id(l, rng.Intn(width))] = true
		}
		e := make([]int, 0, len(members))
		for v := range members {
			e = append(e, v)
		}
		edges = append(edges, e)
		heads = append(heads, head)
	}
	for i := 0; i < pullEdges; i++ {
		addEdge(2)
	}
	for i := 0; i < pushEdges; i++ {
		addEdge(1)
	}
	token := make([]bool, n)
	for i := 0; i < width; i++ {
		token[id(2, i)] = true
		if rng.Float64() < midProb {
			token[id(1, i)] = true
		}
	}
	inst, err := NewInstance(level, token, edges, heads)
	if err != nil {
		return random3Level(width, pullEdges, pushEdges, rank, midProb, rng)
	}
	return inst
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
