package hypergame

import (
	"math/rand"
	"testing"
	"testing/quick"

	"tokendrop/internal/core"
)

// triInstance builds a small 3-level hypergraph game used across tests:
// vertices 0,1 at level 0; 2,3 at level 1; 4 at level 2; hyperedges
// {4,2,3} headed by 4 and {2,0,1} headed by 2; tokens at 4 and 2.
func triInstance() *Instance {
	return MustInstance(
		[]int{0, 0, 1, 1, 2},
		[]bool{false, false, true, false, true},
		[][]int{{4, 2, 3}, {2, 0, 1}},
		[]int{4, 2},
	)
}

func TestNewInstanceValidation(t *testing.T) {
	if _, err := NewInstance([]int{0, 1}, []bool{false, true}, [][]int{{0, 1}}, []int{1}); err != nil {
		t.Fatalf("valid instance rejected: %v", err)
	}
	cases := []struct {
		name  string
		level []int
		token []bool
		edges [][]int
		head  []int
	}{
		{"head not endpoint", []int{0, 1}, []bool{false, false}, [][]int{{0, 1}}, []int{5}},
		{"bad head level", []int{0, 2}, []bool{false, false}, [][]int{{0, 1}}, []int{1}},
		{"repeat endpoint", []int{0, 1}, []bool{false, false}, [][]int{{0, 0, 1}}, []int{1}},
		{"rank 1", []int{0, 1}, []bool{false, false}, [][]int{{1}}, []int{1}},
		{"negative level", []int{-1, 0}, []bool{false, false}, [][]int{{0, 1}}, []int{1}},
		{"size mismatch", []int{0, 1}, []bool{false}, [][]int{{0, 1}}, []int{1}},
	}
	for _, tc := range cases {
		if _, err := NewInstance(tc.level, tc.token, tc.edges, tc.head); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
}

func TestChildrenAndAccessors(t *testing.T) {
	inst := triInstance()
	if inst.Height() != 2 || inst.NumTokens() != 2 || inst.M() != 2 {
		t.Fatal("basic accessors")
	}
	kids := inst.Children(0) // hyperedge {4,2,3} headed by 4: children at level 1
	if len(kids) != 2 {
		t.Fatalf("children of edge 0: %v", kids)
	}
	if hb := inst.HeadedBy(2); len(hb) != 1 || hb[0] != 1 {
		t.Fatalf("HeadedBy(2) = %v", hb)
	}
	if inst.MaxRank() != 3 {
		t.Fatal("max rank")
	}
	if inst.MaxVertexDegree() != 2 { // vertex 2 is in both hyperedges
		t.Fatal("max vertex degree")
	}
}

func TestStateMoves(t *testing.T) {
	inst := triInstance()
	st := NewState(inst)
	// Token at 2 can drop to 0 or 1 via edge 1; token at 4 cannot move
	// (its only children 2,3: 2 occupied, 3 free → it CAN move to 3).
	if len(st.MovableTokens()) != 3 {
		t.Fatalf("movable: %v", st.MovableTokens())
	}
	if err := st.Apply(1, 2, 0); err != nil {
		t.Fatal(err)
	}
	if err := st.Apply(1, 2, 1); err == nil {
		t.Fatal("reusing a consumed hyperedge allowed")
	}
	if err := st.Apply(0, 4, 2); err != nil {
		t.Fatal(err)
	}
	if !st.Stuck() {
		t.Fatal("should be stuck: edges consumed")
	}
}

func TestStateRejectsNonChildMoves(t *testing.T) {
	inst := triInstance()
	st := NewState(inst)
	if err := st.CanMove(0, 4, 0); err == nil {
		t.Fatal("move to non-endpoint/non-child accepted")
	}
	if err := st.CanMove(0, 2, 3); err == nil {
		t.Fatal("move by non-head accepted")
	}
}

func TestSequentialSolveAndVerify(t *testing.T) {
	sol := SolveSequential(triInstance(), nil)
	if err := Verify(sol); err != nil {
		t.Fatal(err)
	}
	solR := SolveSequential(triInstance(), rand.New(rand.NewSource(1)))
	if err := Verify(solR); err != nil {
		t.Fatal(err)
	}
}

func TestVerifyCatchesNonMaximal(t *testing.T) {
	sol := SolveSequential(triInstance(), nil)
	bad := &Solution{Inst: sol.Inst, Moves: sol.Moves[:1]}
	if err := Verify(bad); err == nil {
		t.Fatal("accepted a truncated solution")
	}
}

// TestVerifyRejectsWrongLengths feeds Verify a valid solution whose
// placement or consumption vector has the wrong length.
func TestVerifyRejectsWrongLengths(t *testing.T) {
	sol := SolveSequential(triInstance(), nil)
	for _, c := range []struct {
		name            string
		final, consumed []bool
	}{
		{"final one short", sol.Final[:len(sol.Final)-1], sol.Consumed},
		{"final one long", append(append([]bool(nil), sol.Final...), false), sol.Consumed},
		{"consumed empty", sol.Final, []bool{}},
	} {
		t.Run(c.name, func(t *testing.T) {
			bad := &Solution{Inst: sol.Inst, Moves: sol.Moves, Final: c.final, Consumed: c.consumed}
			if err := Verify(bad); err == nil {
				t.Error("verified")
			}
		})
	}
}

// randomHyperInstance builds a random layered hypergraph game. Levels has
// width vertices per level; each hyperedge picks a head at some level
// ℓ ≥ 1 and rank-1 other endpoints from levels ≥ ℓ-1 with at least one at
// exactly ℓ-1.
func randomHyperInstance(levels, width, edges, rank int, tokenProb float64, rng *rand.Rand) *Instance {
	n := (levels + 1) * width
	level := make([]int, n)
	id := func(l, i int) int { return l*width + i }
	for l := 0; l <= levels; l++ {
		for i := 0; i < width; i++ {
			level[id(l, i)] = l
		}
	}
	var hedges [][]int
	var heads []int
	for e := 0; e < edges; e++ {
		hl := 1 + rng.Intn(levels)
		head := id(hl, rng.Intn(width))
		members := map[int]bool{head: true}
		// one guaranteed child
		child := id(hl-1, rng.Intn(width))
		members[child] = true
		for len(members) < rank {
			l := hl - 1 + rng.Intn(levels-hl+2)
			if l > levels {
				l = levels
			}
			members[id(l, rng.Intn(width))] = true
		}
		edge := make([]int, 0, len(members))
		for v := range members {
			edge = append(edge, v)
		}
		hedges = append(hedges, edge)
		heads = append(heads, head)
	}
	token := make([]bool, n)
	for v := range token {
		if level[v] > 0 && rng.Float64() < tokenProb {
			token[v] = true
		}
	}
	inst, err := NewInstance(level, token, hedges, heads)
	if err != nil {
		// The head's min-other-level condition can fail when extra
		// endpoints all landed above; retry with a fresh draw.
		return randomHyperInstance(levels, width, edges, rank, tokenProb, rng)
	}
	return inst
}

func TestRandomSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 20; i++ {
		inst := randomHyperInstance(3, 5, 12, 3, 0.5, rng)
		sol := SolveSequential(inst, rng)
		if err := Verify(sol); err != nil {
			t.Fatalf("instance %d: %v", i, err)
		}
	}
}

func TestDistributedOnTriInstance(t *testing.T) {
	sol, stats, err := SolveProposal(triInstance(), SolveOptions{MaxRounds: 10000})
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(sol); err != nil {
		t.Fatal(err)
	}
	if stats.Rounds == 0 {
		t.Fatal("no rounds recorded")
	}
}

func TestDistributedRandomInstances(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 20; i++ {
		inst := randomHyperInstance(1+rng.Intn(3), 3+rng.Intn(5), 4+rng.Intn(16), 2+rng.Intn(3), rng.Float64(), rng)
		for _, tie := range []core.TieBreak{core.TieFirstPort, core.TieRandom} {
			sol, _, err := SolveProposal(inst, SolveOptions{Tie: tie, Seed: int64(i), MaxRounds: 200000})
			if err != nil {
				t.Fatalf("instance %d: %v", i, err)
			}
			if err := Verify(sol); err != nil {
				t.Fatalf("instance %d (tie=%v): %v", i, tie, err)
			}
		}
	}
}

func TestDistributedRankTwoMatchesFlatGame(t *testing.T) {
	// Rank-2 hyperedges are ordinary edges; the hypergraph solver must
	// still produce verifying, maximal solutions on them.
	rng := rand.New(rand.NewSource(11))
	inst := randomHyperInstance(3, 6, 18, 2, 0.6, rng)
	sol, _, err := SolveProposal(inst, SolveOptions{MaxRounds: 200000})
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(sol); err != nil {
		t.Fatal(err)
	}
}

func TestTheorem71RoundBound(t *testing.T) {
	// Theorem 7.1: O(L·S²) rounds. Generous constant, sweep of S.
	rng := rand.New(rand.NewSource(13))
	for _, width := range []int{4, 6, 8} {
		inst := randomHyperInstance(3, width, width*3, 3, 0.7, rng)
		s := inst.MaxVertexDegree()
		l := inst.Height()
		sol, stats, err := SolveProposal(inst, SolveOptions{MaxRounds: 1 << 20})
		if err != nil {
			t.Fatal(err)
		}
		if err := Verify(sol); err != nil {
			t.Fatal(err)
		}
		bound := 20*(l+1)*s*s + 60
		if stats.Rounds > bound {
			t.Fatalf("S=%d L=%d: %d rounds > bound %d", s, l, stats.Rounds, bound)
		}
	}
}

func TestDistributedDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	inst := randomHyperInstance(3, 6, 20, 3, 0.5, rng)
	run := func(workers int) *Solution {
		sol, _, err := SolveProposal(inst, SolveOptions{MaxRounds: 200000, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return sol
	}
	a, b := run(1), run(12)
	if len(a.Moves) != len(b.Moves) {
		t.Fatal("nondeterministic move count")
	}
	for i := range a.Moves {
		if a.Moves[i] != b.Moves[i] {
			t.Fatal("nondeterministic move log")
		}
	}
}

// Property: distributed solutions verify across random instances.
func TestDistributedProperty(t *testing.T) {
	check := func(seed int64, lRaw, wRaw, eRaw, rRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		levels := int(lRaw%3) + 1
		width := int(wRaw%5) + 3
		edges := int(eRaw%20) + 2
		rank := int(rRaw%3) + 2
		inst := randomHyperInstance(levels, width, edges, rank, rng.Float64(), rng)
		tie := core.TieFirstPort
		if seed%2 == 0 {
			tie = core.TieRandom
		}
		sol, _, err := SolveProposal(inst, SolveOptions{Tie: tie, Seed: seed, MaxRounds: 1 << 20})
		if err != nil {
			return false
		}
		return Verify(sol) == nil
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
