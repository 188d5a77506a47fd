// Package bounded holds the regression suite of the k-bounded stable
// assignment relaxation (Section 7.3). It has no code of its own: the
// relaxation is internal/assign's phase loop run with a load threshold
// (Options.K, ShardedOptions.K ≥ 2), and every test here drives it
// through that package. Options without a K run at k = 2, the
// relaxation's default threshold.
package bounded

import (
	"math/rand"
	"testing"
	"testing/quick"

	"tokendrop/internal/assign"
	"tokendrop/internal/core"
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

// solve runs the k-bounded seed-engine solve (k = 2 unless opt.K says
// otherwise) with invariant checks on and demands a k-stable assignment
// with consistent loads.
func solve(t *testing.T, b *graph.Bipartite, opt assign.Options) *assign.Result {
	t.Helper()
	if opt.K == 0 {
		opt.K = 2
	}
	opt.CheckInvariants = true
	res, err := assign.Solve(b, opt)
	if err != nil {
		t.Fatalf("assign.Solve: %v", err)
	}
	if !res.Assignment.KStable(opt.K) {
		t.Fatalf("assignment is not %d-bounded stable", opt.K)
	}
	if err := res.Assignment.CheckLoads(); err != nil {
		t.Fatal(err)
	}
	return res
}

func TestSolveRejectsBadK(t *testing.T) {
	g := graph.New(2)
	g.AddEdge(0, 1)
	if _, err := assign.Solve(bip(t, g, 1), assign.Options{K: 1}); err == nil {
		t.Fatal("k=1 accepted")
	}
}

func TestSolveTiny(t *testing.T) {
	g := graph.New(4)
	g.AddEdge(0, 2)
	g.AddEdge(0, 3)
	g.AddEdge(1, 2)
	g.AddEdge(1, 3)
	res := solve(t, bip(t, g, 2), assign.Options{})
	if res.Assignment.Load(2)+res.Assignment.Load(3) != 2 {
		t.Fatal("load conservation")
	}
}

func TestNoLoadZeroNeighborWithOverload(t *testing.T) {
	// The defining condition of the 2-bounded problem: no customer sits
	// on a load ≥ 2 server while some adjacent server has load 0.
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 8; i++ {
		g := graph.RandomBipartite(20, 8, 3, rng)
		res := solve(t, bip(t, g, 20), assign.Options{Seed: int64(i)})
		a := res.Assignment
		for c := 0; c < 20; c++ {
			if a.Load(a.ServerOf[c]) < 2 {
				continue
			}
			for _, arc := range g.Adj(c) {
				if a.Load(arc.To) == 0 {
					t.Fatalf("customer %d on load-%d server with a load-0 neighbor",
						c, a.Load(a.ServerOf[c]))
				}
			}
		}
	}
}

func TestKBoundedIsWeakerThanStable(t *testing.T) {
	// Any fully stable assignment is k-stable for every k ≥ 2 — sanity of
	// the relaxation direction via the checkers.
	g := graph.CompleteBipartite(6, 3)
	b := bip(t, g, 6)
	res := solve(t, b, assign.Options{K: 2})
	_ = res
	// Construct a configuration that is 2-stable but not stable:
	// loads 3, 1 with an edge from a customer on the 3-server to the
	// 1-server: badness 2 (unstable) but k-badness min(2,3)-1 = 1.
	g2 := graph.New(6) // customers 0-3, servers 4,5
	g2.AddEdge(0, 4)
	g2.AddEdge(1, 4)
	g2.AddEdge(2, 4)
	g2.AddEdge(2, 5)
	g2.AddEdge(3, 5)
	b2 := bip(t, g2, 4)
	a := graph.NewAssignment(b2)
	a.Assign(0, 4)
	a.Assign(1, 4)
	a.Assign(2, 4)
	a.Assign(3, 5)
	if a.Stable() {
		t.Fatal("should be unstable (badness 2)")
	}
	if !a.KStable(2) {
		t.Fatal("should be 2-bounded stable (loads 3 vs 1, threshold hides the gap)")
	}
}

func TestTheorem74Reduction(t *testing.T) {
	// Solve 2-bounded, post-process per Theorem 7.4, verify maximality.
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 15; i++ {
		nl, nr := 4+rng.Intn(20), 3+rng.Intn(10)
		c := 1 + rng.Intn(min(nr, 4))
		g := graph.RandomBipartite(nl, nr, c, rng)
		b := bip(t, g, nl)
		tie := core.TieFirstPort
		if i%2 == 0 {
			tie = core.TieRandom
		}
		res := solve(t, b, assign.Options{Seed: int64(i), Tie: tie})
		matchOf := assign.ReduceToMatching(res.Assignment)
		if err := matching.VerifyMaximal(b, matchOf); err != nil {
			t.Fatalf("instance %d: %v", i, err)
		}
	}
}

func TestPhaseKBadnessInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := graph.RandomBipartite(30, 8, 3, rng)
	res := solve(t, bip(t, g, 30), assign.Options{Seed: 1})
	for _, rec := range res.PhaseLog {
		if rec.MaxBadness > 1 { // badness on effective loads: the k-badness
			t.Fatalf("phase %d ended with k-badness %d", rec.Phase, rec.MaxBadness)
		}
	}
}

func TestHigherK(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := graph.RandomBipartite(24, 6, 3, rng)
	for _, k := range []int{2, 3, 4} {
		res := solve(t, bip(t, g, 24), assign.Options{K: k, Seed: int64(k)})
		if res.K != k {
			t.Fatal("k not recorded")
		}
	}
}

func TestBoundedFasterThanGeneralShape(t *testing.T) {
	// The relaxation must not be slower than the general solver's bound:
	// phases × O(S) games vs phases × O(S³) games. Just validate the
	// round counts stay within the Theorem 7.5 envelope.
	rng := rand.New(rand.NewSource(13))
	for _, nr := range []int{4, 8, 12} {
		nl := nr * 3
		g := graph.RandomBipartite(nl, nr, 3, rng)
		b := bip(t, g, nl)
		res := solve(t, b, assign.Options{Seed: int64(nr)})
		cs := b.MaxCustomerDegree() * b.MaxServerDegree()
		s := b.MaxServerDegree()
		bound := 30*cs*s + 200 // c·(C·S phases)·(O(S) game) with generous constants
		if res.Rounds > bound {
			t.Fatalf("S=%d: %d rounds above the O(C·S²) envelope %d", s, res.Rounds, bound)
		}
	}
}

func TestDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	g := graph.RandomBipartite(18, 6, 3, rng)
	b := bip(t, g, 18)
	a1 := solve(t, b, assign.Options{Seed: 4})
	a2 := solve(t, b, assign.Options{Seed: 4})
	for c := 0; c < 18; c++ {
		if a1.Assignment.ServerOf[c] != a2.Assignment.ServerOf[c] {
			t.Fatal("same seed, different assignment")
		}
	}
}

// Property: Solve yields k-stable assignments and valid reductions.
func TestSolveProperty(t *testing.T) {
	check := func(seed int64, nlRaw, nrRaw, cRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		nl := int(nlRaw%16) + 2
		nr := int(nrRaw%6) + 2
		c := int(cRaw)%min(nr, 4) + 1
		g := graph.RandomBipartite(nl, nr, c, rng)
		b, err := graph.NewBipartite(g, nl)
		if err != nil {
			return false
		}
		res, err := assign.Solve(b, assign.Options{K: 2, Seed: seed, CheckInvariants: true})
		if err != nil {
			return false
		}
		if !res.Assignment.KStable(2) {
			return false
		}
		return matching.VerifyMaximal(b, assign.ReduceToMatching(res.Assignment)) == nil
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestReduceToMatchingDegenerate covers the Theorem 7.4 post-processing on
// degenerate inputs: an empty network, a network with no customers, and
// servers that end a run with zero assigned customers (zero capacity used)
// must all produce valid (possibly empty) matchings without panicking.
func TestReduceToMatchingDegenerate(t *testing.T) {
	t.Run("empty graph", func(t *testing.T) {
		b := bip(t, graph.New(0), 0)
		matchOf := assign.ReduceToMatching(graph.NewAssignment(b))
		if len(matchOf) != 0 {
			t.Fatalf("expected an empty matching, got %v", matchOf)
		}
		if err := matching.VerifyMaximal(b, matchOf); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("servers only", func(t *testing.T) {
		b := bip(t, graph.New(3), 0) // three isolated servers, no customers
		matchOf := assign.ReduceToMatching(graph.NewAssignment(b))
		for v, m := range matchOf {
			if m != -1 {
				t.Fatalf("vertex %d matched to %d in a customer-free network", v, m)
			}
		}
		if err := matching.VerifyMaximal(b, matchOf); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("unassigned customers are skipped", func(t *testing.T) {
		g := graph.New(4)
		g.AddEdge(0, 2)
		g.AddEdge(1, 2)
		g.AddEdge(1, 3)
		b := bip(t, g, 2)
		a := graph.NewAssignment(b)
		a.Assign(1, 2) // customer 0 left unassigned; server 3 keeps load 0
		matchOf := assign.ReduceToMatching(a)
		if matchOf[0] != -1 || matchOf[3] != -1 {
			t.Fatalf("unassigned customer or empty server matched: %v", matchOf)
		}
		if matchOf[1] != 2 || matchOf[2] != 1 {
			t.Fatalf("expected 1-2 matched, got %v", matchOf)
		}
	})
	t.Run("zero-capacity servers", func(t *testing.T) {
		// Both customers pile on server 2; server 3 ends with load 0. The
		// reduction keeps the smallest customer and leaves 3 unmatched.
		g := graph.New(4)
		g.AddEdge(0, 2)
		g.AddEdge(1, 2)
		g.AddEdge(0, 3)
		g.AddEdge(1, 3)
		b := bip(t, g, 2)
		a := graph.NewAssignment(b)
		a.Assign(0, 2)
		a.Assign(1, 2)
		matchOf := assign.ReduceToMatching(a)
		if matchOf[2] != 0 || matchOf[0] != 2 {
			t.Fatalf("server 2 should keep customer 0: %v", matchOf)
		}
		if matchOf[1] != -1 || matchOf[3] != -1 {
			t.Fatalf("customer 1 and server 3 should stay unmatched: %v", matchOf)
		}
	})
	t.Run("flat reduction agrees on degenerate shapes", func(t *testing.T) {
		b := bip(t, graph.New(2), 0) // no customers
		fb := graph.NewCSRBipartiteFromBipartite(b)
		res, err := assign.SolveSharded(fb, assign.ShardedOptions{K: 2})
		if err != nil {
			t.Fatal(err)
		}
		matchOf := assign.ReduceToMatchingSharded(res)
		for v, m := range matchOf {
			if m != -1 {
				t.Fatalf("vertex %d matched to %d", v, m)
			}
		}
	})
}
