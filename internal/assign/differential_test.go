package assign

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"tokendrop/internal/core"
	"tokendrop/internal/graph"
)

// The differential suite pins the sharded assignment port to the seed
// engine: both run the same protocol over the same per-phase incidence
// port numbering and, under TieRandom, draw the same per-customer and
// per-server core.TieSeed streams in the same order, so under either tie
// rule the phase logs, round counts, and final assignments must agree bit
// for bit on every instance. Every run is also checked against the
// solution-level oracles (hypergame.Verify on every subgame, the phase
// invariants, stability, and load-recount at the end).
//
// Every table also runs k-bounded cases (K ≥ 2): k = 2 plays each phase
// game on the three-level solver, k > 2 on the generic one.

// diffBipartite derives a seeded customer/server network from a case
// index, cycling through the families the assignment experiments run on.
func diffBipartite(i int) (*graph.Bipartite, string) {
	rng := rand.New(rand.NewSource(int64(7000 + i)))
	switch i % 7 {
	case 0:
		nl, nr, c := 12+(i/7)%6*6, 4+(i/7)%4*2, 2+i%3
		return graph.MustBipartite(graph.RandomBipartite(nl, nr, c, rng), nl),
			fmt.Sprintf("random nl=%d nr=%d c=%d", nl, nr, c)
	case 1:
		nr := 3 + (i/7)%4
		c := 2 + i%2
		nl := nr * c * 2
		s := nl * c / nr
		return graph.MustBipartite(graph.RandomBipartiteRegular(nl, nr, c, s, rng), nl),
			fmt.Sprintf("regular nl=%d nr=%d c=%d s=%d", nl, nr, c, s)
	case 2:
		a, b := 4+(i/7)%5, 3+(i/7)%3
		return graph.MustBipartite(graph.CompleteBipartite(a, b), a),
			fmt.Sprintf("complete %dx%d", a, b)
	case 3:
		// Skewed demand: power-law customer degrees, CSR-native adjacency
		// order (not neighbor-sorted).
		nl, nr := 20+(i/7)%5*10, 5+(i/7)%5
		csr := graph.CSRPowerLawBipartite(nl, nr, 2.0, 1+nr/2, rng)
		return graph.MustBipartite(csr.ToGraph(), nl),
			fmt.Sprintf("powerlaw nl=%d nr=%d", nl, nr)
	case 4:
		// Star contention: every customer sees one shared hub plus one
		// private server — maximal proposal collisions on the hub.
		nl := 6 + (i/7)%8
		g := graph.New(nl + nl + 1)
		for c := 0; c < nl; c++ {
			g.AddEdge(c, nl)        // shared hub
			g.AddEdge(c, nl+1+c%nl) // private-ish server
		}
		return graph.MustBipartite(g, nl), fmt.Sprintf("hub nl=%d", nl)
	case 5:
		// Chain: customer c sees servers c and c+1 — the propagation
		// workload where reassignment cascades travel.
		nl := 8 + (i/7)%10
		g := graph.New(nl + nl + 1)
		for c := 0; c < nl; c++ {
			g.AddEdge(c, nl+c)
			g.AddEdge(c, nl+c+1)
		}
		return graph.MustBipartite(g, nl), fmt.Sprintf("chain nl=%d", nl)
	default:
		// Degree-1 customers mixed in: they never join a game but load the
		// servers the game plays over.
		nl, nr := 15+(i/7)%6*5, 4+(i/7)%4
		g := graph.New(nl + nr)
		for c := 0; c < nl; c++ {
			if c%3 == 0 {
				g.AddEdge(c, nl+c%nr)
				continue
			}
			a := c % nr
			b := (c*7 + 1) % nr
			if a == b {
				b = (b + 1) % nr
			}
			g.AddEdge(c, nl+a)
			g.AddEdge(c, nl+b)
		}
		return graph.MustBipartite(g, nl), fmt.Sprintf("mixed nl=%d nr=%d", nl, nr)
	}
}

// checkAssignEngines solves b on both engines at threshold k under tie
// and demands bit-identical runs: phases, rounds, the phase log
// (reporting the first differing record), every customer's server and
// every server's load. Both runs check their phase invariants, every
// sharded subgame is verified, and both results must be stable.
func checkAssignEngines(t *testing.T, tag string, b *graph.Bipartite, k int, tie core.TieBreak, seed int64, shards int) *ShardedResult {
	t.Helper()
	seedRes, err := Solve(b, Options{K: k, Tie: tie, Seed: seed, CheckInvariants: true})
	if err != nil {
		t.Fatalf("%s: seed engine: %v", tag, err)
	}
	flatRes, err := SolveSharded(graph.NewCSRBipartiteFromBipartite(b), ShardedOptions{
		K: k, Tie: tie, Seed: seed, Shards: shards,
		CheckInvariants: true, VerifyGames: true,
	})
	if err != nil {
		t.Fatalf("%s: sharded engine: %v", tag, err)
	}

	if flatRes.Phases != seedRes.Phases {
		t.Fatalf("%s: phases %d (sharded) != %d (seed)", tag, flatRes.Phases, seedRes.Phases)
	}
	if flatRes.Rounds != seedRes.Rounds {
		t.Fatalf("%s: rounds %d (sharded) != %d (seed)", tag, flatRes.Rounds, seedRes.Rounds)
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
			t.Fatalf("%s: customer %d assigned to %d (sharded) != %d (seed)",
				tag, c, b.NumLeft+int(flatRes.ServerOf[c]), seedRes.Assignment.ServerOf[c])
		}
	}
	for s := 0; s < b.NumServers(); s++ {
		if int(flatRes.Load[s]) != seedRes.Assignment.Load(b.NumLeft+s) {
			t.Fatalf("%s: load of server %d diverges", tag, s)
		}
	}
	if !flatRes.KStable() {
		t.Fatalf("%s: sharded result not stable", tag)
	}
	if k > 0 && !seedRes.Assignment.KStable(k) {
		t.Fatalf("%s: seed result not k-stable", tag)
	}
	return flatRes
}

func TestDifferentialAssignEngines(t *testing.T) {
	const general, bounded = 105, 60
	for i := 0; i < general+bounded; i++ {
		j, k, seed := i, 0, int64(400+i)
		if i >= general {
			j = i - general
			k, seed = 2+j%3, int64(600+j)
		}
		b, name := diffBipartite(j)
		checkAssignEngines(t, fmt.Sprintf("case %d (%s, k=%d)", i, name, k), b, k, core.TieFirstPort, seed, 1+j%5)
	}
}

// TestDifferentialAssignTieRandom holds TieRandom runs to the same
// bit-identity as the TieFirstPort half, and keeps the oracles: besides
// the per-phase checks of checkAssignEngines, the materialized
// assignment is complete, stable, and load-consistent.
func TestDifferentialAssignTieRandom(t *testing.T) {
	const general, bounded = 40, 30
	for i := 0; i < general+bounded; i++ {
		j, k, seed := i, 0, int64(1300+i)
		if i >= general {
			j = i - general
			k, seed = 2+j%2, int64(1700+j)
		}
		b, name := diffBipartite(j)
		tag := fmt.Sprintf("case %d (%s, k=%d)", i, name, k)
		a := checkAssignEngines(t, tag, b, k, core.TieRandom, seed, 1+j%4).Assignment()
		if k == 0 && !a.Stable() || k > 0 && !a.KStable(k) {
			t.Fatalf("%s: materialized assignment not stable", tag)
		}
		if err := a.CheckLoads(); err != nil {
			t.Fatalf("%s: %v", tag, err)
		}
	}
}

// TestAssignShardCountInvariance pins schedule independence: the same
// network solved with 1..8 shards produces the same run.
func TestAssignShardCountInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	b := graph.MustBipartite(graph.RandomBipartite(40, 10, 3, rng), 40)
	fb := graph.NewCSRBipartiteFromBipartite(b)
	base, err := SolveSharded(fb, ShardedOptions{Tie: core.TieFirstPort, Seed: 31, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	for shards := 2; shards <= 8; shards++ {
		res, err := SolveSharded(fb, ShardedOptions{Tie: core.TieFirstPort, Seed: 31, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		if res.Rounds != base.Rounds || !slices.Equal(res.ServerOf, base.ServerOf) ||
			!slices.Equal(res.PhaseLog, base.PhaseLog) {
			t.Fatalf("shards=%d diverges from shards=1", shards)
		}
	}
}

// TestAssignCentralStepInvariance pins the parallel central passes: the
// proposal kernel and the badness pass, which also writes the
// game-assembly marks, run on Session.ParallelFor, so the whole run must
// be bit-identical at shard counts 1, 2, and 8 under both tie rules, for
// the general problem and for both k-bounded subgame paths. TieRandom is
// the sharper check: the per-customer draw streams of the proposal
// kernel and the per-server ones of the accept pass must not depend on
// the split.
func TestAssignCentralStepInvariance(t *testing.T) {
	const general, bounded = 12, 10
	for i := 0; i < general+bounded; i++ {
		j, k, seed := i, 0, int64(700+i)
		if i >= general {
			j = i - general
			k, seed = 2+j%2, int64(800+j)
		}
		b, name := diffBipartite(3 * j)
		fb := graph.NewCSRBipartiteFromBipartite(b)
		for _, tie := range []core.TieBreak{core.TieFirstPort, core.TieRandom} {
			tag := fmt.Sprintf("case %d (%s, k=%d) tie=%v", i, name, k, tie)
			base, err := SolveSharded(fb, ShardedOptions{
				K: k, Tie: tie, Seed: seed, Shards: 1, CheckInvariants: true,
			})
			if err != nil {
				t.Fatalf("%s shards=1: %v", tag, err)
			}
			for _, shards := range []int{2, 8} {
				res, err := SolveSharded(fb, ShardedOptions{
					K: k, Tie: tie, Seed: seed, Shards: shards, CheckInvariants: true,
				})
				if err != nil {
					t.Fatalf("%s shards=%d: %v", tag, shards, err)
				}
				if res.Rounds != base.Rounds || res.Phases != base.Phases ||
					!slices.Equal(res.PhaseLog, base.PhaseLog) ||
					!slices.Equal(res.ServerOf, base.ServerOf) || !slices.Equal(res.Load, base.Load) {
					t.Fatalf("%s: shards=%d diverges from shards=1", tag, shards)
				}
			}
		}
	}
}

// TestSolveShardedCSRNative runs the sharded port on a network built
// directly in CSR form, cross-checked against the seed engine on the
// materialized graph (which preserves the port order, so the runs must
// agree exactly).
func TestSolveShardedCSRNative(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	csr := graph.CSRPowerLawBipartite(300, 40, 2.2, 12, rng)
	fb, err := graph.NewCSRBipartite(csr, 300)
	if err != nil {
		t.Fatal(err)
	}
	res, err := SolveSharded(fb, ShardedOptions{Tie: core.TieFirstPort, Seed: 5, CheckInvariants: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stable() {
		t.Fatal("not stable")
	}
	b := fb.ToBipartite()
	seedRes, err := Solve(b, Options{Seed: 5})
	if err != nil {
		t.Fatalf("seed engine: %v", err)
	}
	if seedRes.Rounds != res.Rounds || seedRes.Phases != res.Phases {
		t.Fatalf("runs diverge: rounds %d/%d phases %d/%d",
			res.Rounds, seedRes.Rounds, res.Phases, seedRes.Phases)
	}
	for c := 0; c < fb.NumLeft; c++ {
		if fb.NumLeft+int(res.ServerOf[c]) != seedRes.Assignment.ServerOf[c] {
			t.Fatalf("customer %d assignments diverge", c)
		}
	}
}

// TestSolveShardedErrors mirrors Solve's input validation, pins the
// phase-budget guard, and checks
// both engines reject thresholds below 2 other than 0.
func TestSolveShardedErrors(t *testing.T) {
	g := graph.New(3) // customer 0 isolated, customer 1 sees server 2
	g.AddEdge(1, 2)
	fb := graph.NewCSRBipartiteFromBipartite(graph.MustBipartite(g, 2))
	for _, k := range []int{0, 2} {
		if _, err := SolveSharded(fb, ShardedOptions{K: k}); err == nil {
			t.Fatalf("k=%d: no error for an isolated customer", k)
		}
	}
	rng := rand.New(rand.NewSource(9))
	b := graph.MustBipartite(graph.RandomBipartite(20, 4, 3, rng), 20)
	fb = graph.NewCSRBipartiteFromBipartite(b)
	// The phase budget: resume from a valid snapshot that has spent all
	// 4·C·S + 8 phases without assigning anyone, so the next phase
	// crosses the Lemma 7.2 guard.
	budget := 4*fb.MaxCustomerDegree()*fb.MaxServerDegree() + 8
	for _, k := range []int{0, 2} {
		rs := &Snapshot{
			K: k, Phase: budget, Rounds: 2 * budget,
			ServerOf: make([]int32, fb.NumLeft), Load: make([]int32, fb.NumServers()),
		}
		for c := range rs.ServerOf {
			rs.ServerOf[c] = -1
			rs.Unassigned = append(rs.Unassigned, int32(c))
		}
		for p := 1; p <= budget; p++ {
			rs.PhaseLog = append(rs.PhaseLog, PhaseRecord{Phase: p})
		}
		_, err := SolveSharded(fb, ShardedOptions{K: k, Checkpoint: core.Checkpoint[Snapshot]{ResumeFrom: rs}})
		if err == nil || !strings.Contains(err.Error(), "exceeds the Lemma 7.2 budget") {
			t.Fatalf("k=%d: resume at the phase budget: %v", k, err)
		}
	}
	for _, k := range []int{1, -1} {
		if _, err := SolveSharded(fb, ShardedOptions{K: k}); err == nil {
			t.Fatalf("sharded engine accepted k = %d", k)
		}
		if _, err := Solve(b, Options{K: k}); err == nil {
			t.Fatalf("seed engine accepted k = %d", k)
		}
	}
}
