package baseline

import (
	"math/rand"
	"testing"
	"testing/quick"

	"tokendrop/internal/graph"
)

func TestStateBasics(t *testing.T) {
	g := graph.Path(3)
	s, err := NewState(g, []int{4, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if s.LocallyOptimal() {
		t.Fatal("4-0 gap should not be optimal")
	}
	if s.Potential() != 16 || s.Total() != 4 {
		t.Fatal("potential/total wrong")
	}
	opt, _ := NewState(g, []int{2, 1, 1})
	if !opt.LocallyOptimal() {
		t.Fatal("2-1-1 is locally optimal")
	}
}

func TestNewStateRejectsBadInput(t *testing.T) {
	g := graph.Path(2)
	if _, err := NewState(g, []int{1}); err == nil {
		t.Fatal("short vector accepted")
	}
	if _, err := NewState(g, []int{-1, 0}); err == nil {
		t.Fatal("negative load accepted")
	}
}

func TestBalanceSmall(t *testing.T) {
	g := graph.Path(4)
	s, _ := NewState(g, []int{8, 0, 0, 0})
	res, err := Balance(s, 1, 1<<20, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Final.LocallyOptimal() {
		t.Fatal("not locally optimal")
	}
	if res.Final.Total() != 8 {
		t.Fatal("load lost")
	}
	if res.Final.Potential() > s.Potential() {
		t.Fatal("potential increased")
	}
}

func TestBalanceAlreadyOptimal(t *testing.T) {
	g := graph.Cycle(5)
	s, _ := NewState(g, []int{1, 1, 1, 1, 1})
	res, err := Balance(s, 2, 1000, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.UnitMoves != 0 || res.Rounds != 1 {
		t.Fatalf("already-optimal input did %d moves over %d rounds", res.UnitMoves, res.Rounds)
	}
}

func TestDumbbellShape(t *testing.T) {
	s, err := Dumbbell(4, 6)
	if err != nil {
		t.Fatal(err)
	}
	if s.G.N() != 8 || s.G.M() != 7 {
		t.Fatalf("dumbbell shape n=%d m=%d", s.G.N(), s.G.M())
	}
	if s.Total() != 24 {
		t.Fatal("initial load")
	}
	if !s.G.IsConnected() {
		t.Fatal("bridge missing")
	}
}

func TestBottleneckCostGrowsWithLoad(t *testing.T) {
	// The Section 2 phenomenon: rounds grow (roughly linearly) with the
	// initial per-vertex load, because every surplus unit crosses the
	// single bridge individually.
	rounds := func(initial int) int {
		s, err := Dumbbell(3, initial)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Balance(s, 7, 1<<22, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Final.LocallyOptimal() {
			t.Fatal("not optimal")
		}
		return res.Rounds
	}
	small := rounds(4)
	large := rounds(32)
	if large < 3*small/2 {
		t.Fatalf("bottleneck cost did not grow: load 4 -> %d rounds, load 32 -> %d rounds", small, large)
	}
}

func TestBalanceConservesAndConverges(t *testing.T) {
	check := func(seed int64, nRaw, loadRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw%10) + 3
		g := graph.RandomGNM(n, min(2*n, n*(n-1)/2), rng)
		load := make([]int, n)
		for i := range load {
			load[i] = int(loadRaw) % 9 * (i % 3)
		}
		s, err := NewState(g, load)
		if err != nil {
			return false
		}
		res, err := Balance(s, seed, 1<<22, 0)
		if err != nil {
			return false
		}
		return res.Final.LocallyOptimal() && res.Final.Total() == s.Total() &&
			res.Final.Potential() <= s.Potential()
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
