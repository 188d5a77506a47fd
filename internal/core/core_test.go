package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"tokendrop/internal/graph"
)

func TestNewInstanceValidation(t *testing.T) {
	g := graph.Path(3)
	if _, err := NewInstance(g, []int{0, 1, 2}, []bool{false, true, true}); err != nil {
		t.Fatalf("valid instance rejected: %v", err)
	}
	if _, err := NewInstance(g, []int{0, 2, 3}, make([]bool, 3)); err == nil {
		t.Fatal("non-adjacent levels accepted")
	}
	if _, err := NewInstance(g, []int{0, -1, 0}, make([]bool, 3)); err == nil {
		t.Fatal("negative level accepted")
	}
	if _, err := NewInstance(g, []int{0, 1}, make([]bool, 3)); err == nil {
		t.Fatal("short level slice accepted")
	}
	if _, err := NewInstance(g, []int{0, 1, 0}, make([]bool, 2)); err == nil {
		t.Fatal("short token slice accepted")
	}
}

func TestInstanceAccessors(t *testing.T) {
	inst := Chain(4)
	if inst.Height() != 4 {
		t.Fatalf("height = %d", inst.Height())
	}
	if inst.NumTokens() != 4 {
		t.Fatalf("tokens = %d", inst.NumTokens())
	}
	if inst.Level(2) != 2 || inst.Token(0) {
		t.Fatal("accessor values wrong")
	}
	if len(inst.Parents(0)) != 1 || len(inst.Children(0)) != 0 {
		t.Fatal("parent/children of bottom vertex")
	}
	if len(inst.Parents(4)) != 0 || len(inst.Children(4)) != 1 {
		t.Fatal("parent/children of top vertex")
	}
	if inst.MaxDegree() != 2 {
		t.Fatal("max degree of chain")
	}
}

func TestStateTransitions(t *testing.T) {
	inst := Chain(2) // 0 -1- 2, tokens at 1 and 2
	st := NewState(inst)
	e01, _ := inst.Graph().EdgeID(0, 1)
	e12, _ := inst.Graph().EdgeID(1, 2)

	if err := st.CanMove(e12, 2, 1); err == nil {
		t.Fatal("moving onto an occupied vertex allowed")
	}
	if err := st.Apply(e01, 1, 0); err != nil {
		t.Fatal(err)
	}
	if st.Token(1) || !st.Token(0) || !st.Consumed(e01) {
		t.Fatal("state after move")
	}
	if err := st.Apply(e01, 1, 0); err == nil {
		t.Fatal("reusing a consumed edge allowed")
	}
	if err := st.Apply(e12, 2, 1); err != nil {
		t.Fatal(err)
	}
	if !st.Stuck() {
		t.Fatal("fully cascaded chain should be stuck")
	}
	if st.Moves() != 2 {
		t.Fatalf("moves = %d", st.Moves())
	}
}

func TestStateRejectsUpwardAndDiagonalMoves(t *testing.T) {
	inst := Chain(2)
	st := NewState(inst)
	e12, _ := inst.Graph().EdgeID(1, 2)
	if err := st.CanMove(e12, 1, 2); err == nil {
		t.Fatal("upward move allowed")
	}
	e01, _ := inst.Graph().EdgeID(0, 1)
	if err := st.CanMove(e01, 2, 0); err == nil {
		t.Fatal("move with mismatched endpoints allowed")
	}
}

func TestSequentialPoliciesSolveAndVerify(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	insts := []*Instance{
		Chain(6),
		Figure2(),
		RandomLayered(LayeredConfig{Levels: 4, Width: 6, ParentDeg: 2, TokenProb: 0.5, FreeBottom: true}, rng),
		Bottleneck(8, 2, rng),
	}
	for i, inst := range insts {
		for _, pol := range []SequentialPolicy{PolicyFirst, PolicyRandom, PolicyHighestFirst, PolicyLowestFirst} {
			sol := SolveSequential(inst, pol, rand.New(rand.NewSource(int64(i))))
			if err := Verify(sol); err != nil {
				t.Fatalf("instance %d policy %d: %v", i, pol, err)
			}
		}
	}
}

func TestGreedyParallelSolvesAndVerifies(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 5; i++ {
		inst := RandomLayered(LayeredConfig{Levels: 5, Width: 8, ParentDeg: 3, TokenProb: 0.6, FreeBottom: true}, rng)
		sol := SolveGreedyParallel(inst, rand.New(rand.NewSource(int64(i))))
		if err := Verify(sol); err != nil {
			t.Fatal(err)
		}
		solDet := SolveGreedyParallel(inst, nil)
		if err := Verify(solDet); err != nil {
			t.Fatal(err)
		}
	}
}

func TestChainCascadeMoveCount(t *testing.T) {
	// In the chain, every token moves exactly one step down: L moves.
	const L = 9
	sol := SolveSequential(Chain(L), PolicyFirst, nil)
	if len(sol.Moves) != L {
		t.Fatalf("chain produced %d moves, want %d", len(sol.Moves), L)
	}
	if err := Verify(sol); err != nil {
		t.Fatal(err)
	}
}

func TestVerifyCatchesBadSolutions(t *testing.T) {
	inst := Chain(2)
	good := SolveSequential(inst, PolicyFirst, nil)

	t.Run("truncated (not maximal)", func(t *testing.T) {
		bad := &Solution{Inst: inst, Moves: good.Moves[:1]}
		if err := Verify(bad); err == nil {
			t.Fatal("accepted a non-maximal solution")
		}
	})
	t.Run("duplicated edge", func(t *testing.T) {
		moves := append(append([]Move(nil), good.Moves...), good.Moves[0])
		bad := &Solution{Inst: inst, Moves: moves}
		if err := Verify(bad); err == nil {
			t.Fatal("accepted an edge reuse")
		}
	})
	for _, id := range []int{-1, inst.Graph().M(), 999} {
		t.Run(fmt.Sprintf("edge id %d", id), func(t *testing.T) {
			bad := &Solution{Inst: inst, Moves: []Move{{Edge: id, From: 0, To: 1}}}
			if err := Verify(bad); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("no edge %d", id)) {
				t.Fatalf("Verify = %v, want a no-edge error", err)
			}
		})
	}
	t.Run("wrong final vector", func(t *testing.T) {
		final := append([]bool(nil), good.Final...)
		final[0] = !final[0]
		bad := &Solution{Inst: inst, Moves: good.Moves, Final: final}
		if err := Verify(bad); err == nil {
			t.Fatal("accepted a wrong final placement")
		}
	})
	t.Run("wrong consumed vector", func(t *testing.T) {
		consumed := append([]bool(nil), good.Consumed...)
		consumed[0] = !consumed[0]
		bad := &Solution{Inst: inst, Moves: good.Moves, Final: good.Final, Consumed: consumed}
		if err := Verify(bad); err == nil {
			t.Fatal("accepted a wrong consumption vector")
		}
	})
	t.Run("good is good", func(t *testing.T) {
		if err := Verify(good); err != nil {
			t.Fatal(err)
		}
	})
}

func TestTraversalsOnChain(t *testing.T) {
	sol := SolveSequential(Chain(4), PolicyHighestFirst, nil)
	if err := Verify(sol); err != nil {
		t.Fatal(err)
	}
	trav := sol.Traversals()
	if len(trav) != 4 {
		t.Fatalf("%d traversals", len(trav))
	}
	for _, tr := range trav {
		if len(tr.Path) != 2 {
			t.Fatalf("chain traversal %v should have one hop", tr.Path)
		}
		if tr.Origin() != tr.Destination()+1 {
			t.Fatalf("chain traversal %v should drop one level", tr.Path)
		}
	}
}

func TestTraversalsReoccupiedVertex(t *testing.T) {
	// Token A moves 2->1->0; token B moves 3->2 into the vacated slot.
	// Requires a wide enough chain: use a path graph with levels 0..3,
	// tokens at 2 and 3.
	g := graph.Path(4)
	inst := MustInstance(g, []int{0, 1, 2, 3}, []bool{false, false, true, true})
	sol := SolveSequential(inst, PolicyLowestFirst, nil)
	if err := Verify(sol); err != nil {
		t.Fatal(err)
	}
	trav := sol.Traversals()
	if len(trav) != 2 {
		t.Fatal("two tokens, two traversals")
	}
	byOrigin := map[int]Traversal{}
	for _, tr := range trav {
		byOrigin[tr.Origin()] = tr
	}
	if d := byOrigin[2].Destination(); d != 0 {
		t.Fatalf("token from 2 ended at %d, want 0", d)
	}
	if d := byOrigin[3].Destination(); d != 2 {
		t.Fatalf("token from 3 ended at %d, want 2 (the vacated slot)", d)
	}
}

func TestTailsDefinition(t *testing.T) {
	// Same instance: the token from 3 stops at 2 because 2's edges below
	// were consumed by the first token. 2 passed its last (only) token to
	// 1, and 1 passed its last token to 0: the tail of the second
	// traversal is (2, 1, 0).
	g := graph.Path(4)
	inst := MustInstance(g, []int{0, 1, 2, 3}, []bool{false, false, true, true})
	sol := SolveSequential(inst, PolicyLowestFirst, nil)
	trav := sol.Traversals()
	byOrigin := map[int]Traversal{}
	for _, tr := range trav {
		byOrigin[tr.Origin()] = tr
	}
	tail := sol.Tail(byOrigin[3])
	want := []int{2, 1, 0}
	if len(tail) != len(want) {
		t.Fatalf("tail = %v, want %v", tail, want)
	}
	for i := range want {
		if tail[i] != want[i] {
			t.Fatalf("tail = %v, want %v", tail, want)
		}
	}
	ext := sol.ExtendedTraversal(byOrigin[3])
	wantExt := []int{3, 2, 1, 0}
	for i := range wantExt {
		if ext[i] != wantExt[i] {
			t.Fatalf("extended traversal = %v, want %v", ext, wantExt)
		}
	}
	// The first token's tail is just its destination (0 never passed).
	if tl := sol.Tail(byOrigin[2]); len(tl) != 1 || tl[0] != 0 {
		t.Fatalf("tail of settled token = %v", tl)
	}
}

func TestFigure2HasMultipleSolutions(t *testing.T) {
	inst := Figure2()
	a := SolveSequential(inst, PolicyFirst, nil)
	b := SolveSequential(inst, PolicyLowestFirst, nil)
	if err := Verify(a); err != nil {
		t.Fatal(err)
	}
	if err := Verify(b); err != nil {
		t.Fatal(err)
	}
	// The instance is interesting enough that policies disagree somewhere
	// (different final sets or different move logs).
	same := len(a.Moves) == len(b.Moves)
	if same {
		for i := range a.Moves {
			if a.Moves[i] != b.Moves[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Log("note: policies happened to coincide on Figure 2; instance still verified")
	}
}

// Property: every sequential policy on random instances produces a
// verifying solution, and the number of moves never exceeds the number of
// edges (each move consumes one).
func TestSequentialProperty(t *testing.T) {
	check := func(seed int64, lRaw, wRaw, dRaw uint8, density float32) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := LayeredConfig{
			Levels:     int(lRaw%5) + 1,
			Width:      int(wRaw%6) + 2,
			ParentDeg:  1,
			TokenProb:  float64(density),
			FreeBottom: seed%2 == 0,
		}
		if cfg.TokenProb < 0 || cfg.TokenProb > 1 {
			cfg.TokenProb = 0.5
		}
		cfg.ParentDeg = int(dRaw)%cfg.Width + 1
		inst := RandomLayered(cfg, rng)
		sol := SolveSequential(inst, PolicyRandom, rng)
		if len(sol.Moves) > inst.Graph().M() {
			return false
		}
		return Verify(sol) == nil
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
