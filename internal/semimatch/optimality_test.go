package semimatch

import (
	"math/rand"
	"testing"
	"testing/quick"

	"tokendrop/internal/assign"
	"tokendrop/internal/core"
	"tokendrop/internal/graph"
)

func TestIsOptimalOnFlowOutput(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 10; i++ {
		nl, nr := 6+rng.Intn(16), 3+rng.Intn(6)
		c := 1 + rng.Intn(min(nr, 4))
		g := graph.RandomBipartite(nl, nr, c, rng)
		b := bip(t, g, nl)
		a, _, err := Optimal(b)
		if err != nil {
			t.Fatal(err)
		}
		ok, err := IsOptimal(a)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("instance %d: flow optimum admits a cost-reducing path", i)
		}
	}
}

func TestIsOptimalRejectsSuboptimal(t *testing.T) {
	// Two customers, two servers, complete graph: piling both on one
	// server is suboptimal.
	g := graph.CompleteBipartite(2, 2)
	b := bip(t, g, 2)
	a := graph.NewAssignment(b)
	a.Assign(0, 2)
	a.Assign(1, 2)
	ok, err := IsOptimal(a)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("load 2-0 should admit a cost-reducing path")
	}
}

func TestIsOptimalRequiresComplete(t *testing.T) {
	g := graph.CompleteBipartite(2, 2)
	b := bip(t, g, 2)
	a := graph.NewAssignment(b)
	if _, err := IsOptimal(a); err == nil {
		t.Fatal("incomplete assignment accepted")
	}
}

func TestImproveReachesFlowCost(t *testing.T) {
	// Local search from a greedy start must land on the same cost as the
	// flow solver — the triangulation test.
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 10; i++ {
		nl, nr := 6+rng.Intn(16), 3+rng.Intn(6)
		c := 1 + rng.Intn(min(nr, 4))
		g := graph.RandomBipartite(nl, nr, c, rng)
		b := bip(t, g, nl)

		greedy := graph.NewAssignment(b)
		for cu := 0; cu < nl; cu++ {
			greedy.Assign(cu, g.Adj(cu)[0].To)
		}
		Improve(greedy)
		ok, err := IsOptimal(greedy)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatal("Improve left a cost-reducing path")
		}

		_, flowCost, err := Optimal(b)
		if err != nil {
			t.Fatal(err)
		}
		if greedy.SemimatchingCost() != flowCost {
			t.Fatalf("instance %d: local search %d != flow %d",
				i, greedy.SemimatchingCost(), flowCost)
		}
	}
}

func TestStableIsNotAlwaysOptimal(t *testing.T) {
	// The paper's factor-2 gap is real: build the standard bad instance —
	// a path of servers where stability tolerates one extra unit per
	// step. Find any instance where a stable assignment is suboptimal.
	rng := rand.New(rand.NewSource(11))
	foundGap := false
	for i := 0; i < 40 && !foundGap; i++ {
		nl, nr := 6+rng.Intn(20), 3+rng.Intn(6)
		c := 1 + rng.Intn(min(nr, 3))
		g := graph.RandomBipartite(nl, nr, c, rng)
		b := bip(t, g, nl)
		res, err := assign.Solve(b, assign.Options{Seed: int64(i), Tie: core.TieRandom})
		if err != nil {
			t.Fatal(err)
		}
		ok, err := IsOptimal(res.Assignment)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			foundGap = true
		}
	}
	if !foundGap {
		t.Log("all sampled stable assignments happened to be optimal (possible, just unlikely)")
	}
}

func TestLoadProfileAndMaxLoad(t *testing.T) {
	g := graph.New(5) // customers 0,1; servers 2,3,4
	g.AddEdge(0, 2)
	g.AddEdge(1, 2)
	b := bip(t, g, 2)
	a := graph.NewAssignment(b)
	a.Assign(0, 2)
	a.Assign(1, 2)
	p := LoadProfile(a)
	want := []int{2, 0, 0}
	for i := range want {
		if p[i] != want[i] {
			t.Fatalf("profile %v, want %v", p, want)
		}
	}
	if MaxLoad(a) != 2 {
		t.Fatal("max load")
	}
}

func TestOptimalMinimizesProfileAndMakespan(t *testing.T) {
	// HLLT06: the optimum's descending load profile is lexicographically
	// minimal, hence its max load never exceeds a stable assignment's.
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 8; i++ {
		nl, nr := 8+rng.Intn(16), 3+rng.Intn(5)
		c := 1 + rng.Intn(min(nr, 3))
		g := graph.RandomBipartite(nl, nr, c, rng)
		b := bip(t, g, nl)
		opt, _, err := Optimal(b)
		if err != nil {
			t.Fatal(err)
		}
		res, err := assign.Solve(b, assign.Options{Seed: int64(i)})
		if err != nil {
			t.Fatal(err)
		}
		if !ProfileLessEq(LoadProfile(opt), LoadProfile(res.Assignment)) {
			t.Fatalf("instance %d: optimal profile %v not ≤ stable profile %v",
				i, LoadProfile(opt), LoadProfile(res.Assignment))
		}
		if MaxLoad(opt) > MaxLoad(res.Assignment) {
			t.Fatalf("instance %d: optimal makespan exceeds stable's", i)
		}
	}
}

// Property: Improve is idempotent at the optimum and never raises cost.
func TestImproveProperty(t *testing.T) {
	check := func(seed int64, nlRaw, nrRaw, cRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		nl := int(nlRaw%12) + 2
		nr := int(nrRaw%5) + 2
		c := int(cRaw)%min(nr, 3) + 1
		g := graph.RandomBipartite(nl, nr, c, rng)
		b, err := graph.NewBipartite(g, nl)
		if err != nil {
			return false
		}
		a := graph.NewAssignment(b)
		for cu := 0; cu < nl; cu++ {
			adj := g.Adj(cu)
			a.Assign(cu, adj[rng.Intn(len(adj))].To)
		}
		before := a.SemimatchingCost()
		Improve(a)
		after := a.SemimatchingCost()
		if after > before {
			return false
		}
		if n := Improve(a); n != 0 {
			return false // idempotence
		}
		ok, err := IsOptimal(a)
		return err == nil && ok && a.CheckLoads() == nil
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
