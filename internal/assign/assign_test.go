package assign

import (
	"math/rand"
	"testing"
	"testing/quick"

	"tokendrop/internal/graph"
	"tokendrop/internal/matching"
)

func bip(t *testing.T, g *graph.Graph, nl int) *graph.Bipartite {
	t.Helper()
	b, err := graph.NewBipartite(g, nl)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// solve runs Solve with invariant checks on and demands a stable (at
// opt.K > 0, k-bounded stable) assignment with consistent loads.
func solve(t *testing.T, b *graph.Bipartite, opt Options) *Result {
	t.Helper()
	opt.CheckInvariants = true
	res, err := Solve(b, opt)
	if err != nil {
		t.Fatalf("assign.Solve: %v", err)
	}
	if opt.K == 0 && !res.Assignment.Stable() || opt.K > 0 && !res.Assignment.KStable(opt.K) {
		t.Fatalf("assignment is not stable (k=%d)", opt.K)
	}
	if err := res.Assignment.CheckLoads(); err != nil {
		t.Fatal(err)
	}
	return res
}

func TestSolveTinyNetworks(t *testing.T) {
	// One customer, one server.
	g := graph.New(2)
	g.AddEdge(0, 1)
	solve(t, bip(t, g, 1), Options{})

	// Two customers sharing one of two servers.
	g2 := graph.New(4)
	g2.AddEdge(0, 2)
	g2.AddEdge(0, 3)
	g2.AddEdge(1, 2)
	g2.AddEdge(1, 3)
	res := solve(t, bip(t, g2, 2), Options{})
	// Balanced: one customer per server.
	if res.Assignment.Load(2) != 1 || res.Assignment.Load(3) != 1 {
		t.Fatalf("loads %d/%d, want 1/1", res.Assignment.Load(2), res.Assignment.Load(3))
	}
	res = solve(t, bip(t, g2, 2), Options{K: 2})
	if res.Assignment.Load(2)+res.Assignment.Load(3) != 2 {
		t.Fatal("k=2: load conservation")
	}
}

func TestSolveCompleteBipartite(t *testing.T) {
	b := bip(t, graph.CompleteBipartite(9, 3), 9)
	res := solve(t, b, Options{})
	// Perfectly balanceable: every server should carry exactly 3.
	for s := 9; s < 12; s++ {
		if res.Assignment.Load(s) != 3 {
			t.Fatalf("server %d load %d, want 3", s, res.Assignment.Load(s))
		}
	}
}

func TestDegreeOneCustomers(t *testing.T) {
	// Star of customers around one server plus a free server nobody can
	// reach: degree-1 customers are always happy wherever they must go.
	g := graph.New(5)
	g.AddEdge(0, 3)
	g.AddEdge(1, 3)
	g.AddEdge(2, 3)
	// server 4 isolated
	res := solve(t, bip(t, g, 3), Options{})
	if res.Assignment.Load(3) != 3 {
		t.Fatal("forced server should carry all customers")
	}
}

func TestCustomerWithoutServerRejected(t *testing.T) {
	g := graph.New(2) // customer 0 isolated, server 1 isolated
	b := bip(t, g, 1)
	if _, err := Solve(b, Options{}); err == nil {
		t.Fatal("isolated customer accepted")
	}
}

func TestSolveRandomNetworks(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 12; i++ {
		nl, nr := 5+rng.Intn(20), 3+rng.Intn(10)
		c := 1 + rng.Intn(min(nr, 5))
		g := graph.RandomBipartite(nl, nr, c, rng)
		for _, random := range []bool{false, true} {
			solve(t, bip(t, g, nl), Options{RandomTies: random, Seed: int64(i)})
		}
	}
}

func TestLemma72PhaseBound(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 6; i++ {
		nl, nr := 12+rng.Intn(12), 4+rng.Intn(6)
		c := 2 + rng.Intn(3)
		if c > nr {
			c = nr
		}
		g := graph.RandomBipartite(nl, nr, c, rng)
		b := bip(t, g, nl)
		res := solve(t, b, Options{Seed: int64(i)})
		bound := b.MaxCustomerDegree()*b.MaxServerDegree() + 1
		if res.Phases > bound {
			t.Fatalf("phases %d above Lemma 7.2 bound %d", res.Phases, bound)
		}
	}
}

// TestBadnessInvariant: every phase ends at badness ≤ 1 — on effective
// loads for a k-bounded solve — and makes progress.
func TestBadnessInvariant(t *testing.T) {
	for _, tc := range []struct {
		k                  int
		rngSeed, solveSeed int64
	}{{0, 11, 5}, {2, 7, 1}} {
		rng := rand.New(rand.NewSource(tc.rngSeed))
		g := graph.RandomBipartite(30, 8, 3, rng)
		res := solve(t, bip(t, g, 30), Options{K: tc.k, Seed: tc.solveSeed})
		for _, rec := range res.PhaseLog {
			if rec.MaxBadness > 1 {
				t.Fatalf("k=%d: phase %d ended with badness %d", tc.k, rec.Phase, rec.MaxBadness)
			}
			if rec.Proposals > 0 && rec.Accepted == 0 {
				t.Fatalf("k=%d: phase %d made no progress", tc.k, rec.Phase)
			}
		}
	}
}

func TestDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	g := graph.RandomBipartite(20, 6, 3, rng)
	b := bip(t, g, 20)
	for _, k := range []int{0, 2} {
		a := solve(t, b, Options{K: k, Seed: 99})
		bb := solve(t, b, Options{K: k, Seed: 99})
		for c := 0; c < 20; c++ {
			if a.Assignment.ServerOf[c] != bb.Assignment.ServerOf[c] {
				t.Fatalf("k=%d: same seed, different assignment", k)
			}
		}
		if a.Rounds != bb.Rounds {
			t.Fatalf("k=%d: same seed, different rounds", k)
		}
	}
}

func TestStableOrientationAsDegree2Assignment(t *testing.T) {
	// The stable orientation problem is the special case with degree-2
	// customers: model each edge of a graph as a customer connected to
	// its two endpoint "servers".
	base := graph.Cycle(7)
	nl := base.M()
	g := graph.New(nl + base.N())
	for id, e := range base.Edges() {
		g.AddEdge(id, nl+e.U)
		g.AddEdge(id, nl+e.V)
	}
	res := solve(t, bip(t, g, nl), Options{})
	// On a cycle, the stable loads are 0, 1, or 2 with every customer
	// happy; total load = number of edges.
	total := 0
	for s := nl; s < g.N(); s++ {
		total += res.Assignment.Load(s)
	}
	if total != base.M() {
		t.Fatal("load total mismatch")
	}
}

// Property: Solve yields stable assignments within the phase budget, and
// at k = 2 k-stable assignments whose Theorem 7.4 reduction is a maximal
// matching.
func TestSolveProperty(t *testing.T) {
	check := func(seed int64, nlRaw, nrRaw, cRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		nl := int(nlRaw%20) + 2
		nr := int(nrRaw%8) + 2
		c := int(cRaw)%min(nr, 4) + 1
		g := graph.RandomBipartite(nl, nr, c, rng)
		b, err := graph.NewBipartite(g, nl)
		if err != nil {
			return false
		}
		res, err := Solve(b, Options{Seed: seed, RandomTies: seed%2 == 0, CheckInvariants: true})
		if err != nil || !res.Assignment.Stable() {
			return false
		}
		res, err = Solve(b, Options{K: 2, Seed: seed, CheckInvariants: true})
		if err != nil || !res.Assignment.KStable(2) {
			return false
		}
		return matching.VerifyMaximal(b, ReduceToMatching(res.Assignment)) == nil
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
