package bounded

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"tokendrop/internal/assign"
	"tokendrop/internal/core"
	"tokendrop/internal/graph"
	"tokendrop/internal/matching"
)

// The differential suite pins assign's sharded phase loop to its seed
// engine at thresholds k ≥ 2, on the network families the k-bounded
// experiments run on — including the k = 2 three-level fast path and the
// k > 2 generic fallback. Under either tie rule the runs must agree bit
// for bit (TieRandom draws the same core.TieSeed streams on both
// engines), and every run is also checked against the oracles.

func diffBoundedBipartite(i int) (*graph.Bipartite, string) {
	rng := rand.New(rand.NewSource(int64(9000 + i)))
	switch i % 4 {
	case 0:
		nl, nr, c := 12+(i/4)%6*6, 4+(i/4)%4*2, 2+i%3
		return graph.MustBipartite(graph.RandomBipartite(nl, nr, c, rng), nl),
			fmt.Sprintf("random nl=%d nr=%d c=%d", nl, nr, c)
	case 1:
		a, b := 4+(i/4)%5, 3+(i/4)%3
		return graph.MustBipartite(graph.CompleteBipartite(a, b), a),
			fmt.Sprintf("complete %dx%d", a, b)
	case 2:
		nl, nr := 20+(i/4)%5*10, 5+(i/4)%5
		csr := graph.CSRPowerLawBipartite(nl, nr, 2.0, 1+nr/2, rng)
		return graph.MustBipartite(csr.ToGraph(), nl),
			fmt.Sprintf("powerlaw nl=%d nr=%d", nl, nr)
	default:
		nl := 6 + (i/4)%8
		g := graph.New(2*nl + 1)
		for c := 0; c < nl; c++ {
			g.AddEdge(c, nl)
			g.AddEdge(c, nl+1+c%nl)
		}
		return graph.MustBipartite(g, nl), fmt.Sprintf("hub nl=%d", nl)
	}
}

// checkBoundedEngines solves b on both engines at threshold k under tie
// and demands bit-identical runs: phases, rounds, the phase log
// (reporting the first differing record) and every customer's server.
// Both runs check their phase invariants, every sharded subgame is
// verified, and both results must be k-stable.
func checkBoundedEngines(t *testing.T, tag string, b *graph.Bipartite, k int, tie core.TieBreak, seed int64, shards int) *assign.ShardedResult {
	t.Helper()
	seedRes, err := assign.Solve(b, assign.Options{K: k, Tie: tie, Seed: seed, CheckInvariants: true})
	if err != nil {
		t.Fatalf("%s: seed engine: %v", tag, err)
	}
	flatRes, err := assign.SolveSharded(graph.NewCSRBipartiteFromBipartite(b), assign.ShardedOptions{
		K: k, Tie: tie, Seed: seed, Shards: shards,
		CheckInvariants: true, VerifyGames: true,
	})
	if err != nil {
		t.Fatalf("%s: sharded engine: %v", tag, err)
	}

	if flatRes.Phases != seedRes.Phases || flatRes.Rounds != seedRes.Rounds {
		t.Fatalf("%s: run diverges: phases %d/%d rounds %d/%d",
			tag, flatRes.Phases, seedRes.Phases, flatRes.Rounds, seedRes.Rounds)
	}
	for i := 0; i < min(len(flatRes.PhaseLog), len(seedRes.PhaseLog)); i++ {
		if flatRes.PhaseLog[i] != seedRes.PhaseLog[i] {
			t.Fatalf("%s: phase record %d diverges: %+v (sharded) != %+v (seed)",
				tag, i, flatRes.PhaseLog[i], seedRes.PhaseLog[i])
		}
	}
	if len(flatRes.PhaseLog) != len(seedRes.PhaseLog) {
		t.Fatalf("%s: %d phase records (sharded) != %d (seed)", tag, len(flatRes.PhaseLog), len(seedRes.PhaseLog))
	}
	for c := 0; c < b.NumLeft; c++ {
		if b.NumLeft+int(flatRes.ServerOf[c]) != seedRes.Assignment.ServerOf[c] {
			t.Fatalf("%s: customer %d assignments diverge", tag, c)
		}
	}
	if !flatRes.KStable() {
		t.Fatalf("%s: sharded result not k-stable", tag)
	}
	if !seedRes.Assignment.KStable(k) {
		t.Fatalf("%s: seed result not k-stable", tag)
	}
	return flatRes
}

func TestDifferentialBoundedEngines(t *testing.T) {
	const cases = 60
	for i := 0; i < cases; i++ {
		b, name := diffBoundedBipartite(i)
		k := 2 + i%3 // k = 2 exercises the three-level path, k > 2 the generic one
		checkBoundedEngines(t, fmt.Sprintf("case %d (%s, k=%d)", i, name, k), b, k, core.TieFirstPort, int64(600+i), 1+i%5)
	}
}

// TestDifferentialBoundedTieRandom holds TieRandom runs to the same
// bit-identity as the TieFirstPort half, and keeps the oracles: the
// materialized assignment is k-stable and load-consistent.
func TestDifferentialBoundedTieRandom(t *testing.T) {
	for i := 0; i < 30; i++ {
		b, name := diffBoundedBipartite(i)
		k := 2 + i%2
		tag := fmt.Sprintf("case %d (%s, k=%d)", i, name, k)
		a := checkBoundedEngines(t, tag, b, k, core.TieRandom, int64(1700+i), 1+i%4).Assignment()
		if !a.KStable(k) {
			t.Fatalf("%s: materialized assignment not k-stable", tag)
		}
		if err := a.CheckLoads(); err != nil {
			t.Fatalf("%s: %v", tag, err)
		}
	}
}

// pinnedServerBipartite is a random network of nr servers and nr to 2nr
// customers of degree 2 or 3, beside one more server whose four
// customers have no other server. That server plays no game (its
// customers' badness is always 0), yet after three phases it sits at
// effective load 3 under k = 3 while the random part's games can stay
// on levels 0–2.
func pinnedServerBipartite(seed int64) *graph.Bipartite {
	rng := rand.New(rand.NewSource(seed))
	nr := 4 + rng.Intn(5)
	nl := nr + rng.Intn(nr+1)
	g := graph.New(nl + 4 + nr + 1)
	for c := 0; c < nl; c++ {
		for _, s := range rng.Perm(nr)[:2+rng.Intn(2)] {
			g.AddEdge(c, nl+4+s)
		}
	}
	for c := nl; c < nl+4; c++ {
		g.AddEdge(c, nl+4+nr)
	}
	return graph.MustBipartite(g, nl+4)
}

// TestBoundedSolverChoiceReadsAllServers holds the sharded loop's choice
// between the generic and the three-level solver to Solve's, whose games
// span every server: a game whose own servers stay on levels 0–2 still
// runs generic while a server outside it sits at effective load 3.
// Seeds 0 and 13 are two such runs, where the solvers' round counts
// differ.
func TestBoundedSolverChoiceReadsAllServers(t *testing.T) {
	for seed := int64(0); seed < 16; seed++ {
		checkBoundedEngines(t, fmt.Sprintf("pinned server, seed %d", seed), pinnedServerBipartite(seed),
			3, core.TieFirstPort, seed, 1+int(seed)%4)
	}
}

// TestBoundedCentralStepInvariance pins the central passes of the
// k-bounded phase loop on effective loads (the proposal kernel, the
// sequential accepts, the level table, and the badness pass that writes
// the game marks): the whole run must be bit-identical at shard counts
// 1, 2, and 8 under both tie rules, for both the three-level (k = 2)
// and generic (k > 2) subgame paths.
func TestBoundedCentralStepInvariance(t *testing.T) {
	for i := 0; i < 10; i++ {
		b, name := diffBoundedBipartite(3 * i)
		k := 2 + i%2
		fb := graph.NewCSRBipartiteFromBipartite(b)
		for _, tie := range []core.TieBreak{core.TieFirstPort, core.TieRandom} {
			base, err := assign.SolveSharded(fb, assign.ShardedOptions{
				K: k, Tie: tie, Seed: int64(800 + i), Shards: 1, CheckInvariants: true,
			})
			if err != nil {
				t.Fatalf("case %d (%s, k=%d) tie=%v shards=1: %v", i, name, k, tie, err)
			}
			for _, shards := range []int{2, 8} {
				res, err := assign.SolveSharded(fb, assign.ShardedOptions{
					K: k, Tie: tie, Seed: int64(800 + i), Shards: shards, CheckInvariants: true,
				})
				if err != nil {
					t.Fatalf("case %d (%s, k=%d) tie=%v shards=%d: %v", i, name, k, tie, shards, err)
				}
				if res.Rounds != base.Rounds || res.Phases != base.Phases ||
					!slices.Equal(res.PhaseLog, base.PhaseLog) ||
					!slices.Equal(res.ServerOf, base.ServerOf) || !slices.Equal(res.Load, base.Load) {
					t.Fatalf("case %d (%s, k=%d) tie=%v: shards=%d diverges from shards=1", i, name, k, tie, shards)
				}
			}
		}
	}
}

// TestShardedMatchingReduction checks the Theorem 7.4 pipeline on the flat
// runtime: a 2-bounded sharded run reduces to a maximal matching, and the
// flat reduction agrees with the object one.
func TestShardedMatchingReduction(t *testing.T) {
	for i := 0; i < 20; i++ {
		b, name := diffBoundedBipartite(i)
		fb := graph.NewCSRBipartiteFromBipartite(b)
		flatRes, err := assign.SolveSharded(fb, assign.ShardedOptions{K: 2, Tie: core.TieFirstPort, Seed: int64(i)})
		if err != nil {
			t.Fatalf("case %d (%s): %v", i, name, err)
		}
		matchOf := assign.ReduceToMatchingSharded(flatRes)
		if err := matching.VerifyMaximal(b, matchOf); err != nil {
			t.Fatalf("case %d (%s): flat reduction not maximal: %v", i, name, err)
		}
		if want := assign.ReduceToMatching(flatRes.Assignment()); !slices.Equal(matchOf, want) {
			t.Fatalf("case %d (%s): flat and object reductions diverge", i, name)
		}
	}
}

func TestBoundedShardedErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	b := graph.MustBipartite(graph.RandomBipartite(10, 3, 2, rng), 10)
	fb := graph.NewCSRBipartiteFromBipartite(b)
	if _, err := assign.SolveSharded(fb, assign.ShardedOptions{K: 1}); err == nil {
		t.Fatal("no error for k = 1")
	}
	g := graph.New(3)
	g.AddEdge(1, 2)
	lone := graph.NewCSRBipartiteFromBipartite(graph.MustBipartite(g, 2))
	if _, err := assign.SolveSharded(lone, assign.ShardedOptions{K: 2}); err == nil {
		t.Fatal("no error for an isolated customer")
	}
}
