package orient

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"tokendrop/internal/core"
	"tokendrop/internal/graph"
)

// The differential suite pins the sharded orientation port to the seed
// engine: both run the same protocol over the same per-phase port
// numbering and, under TieRandom, draw the same per-vertex core.TieSeed
// streams in the same order, so under either tie rule the phase logs,
// round counts, and final orientations must agree bit for bit on every
// instance. Every run is also checked against the solution-level oracles
// (core.Verify on every subgame, the phase invariants, stability and
// load-recount at the end).

// diffGraph derives a seeded test graph from a case index, cycling through
// the families the orientation experiments run on.
func diffGraph(i int) (*graph.Graph, string) {
	rng := rand.New(rand.NewSource(int64(3000 + i)))
	switch i % 7 {
	case 0:
		d := 2 + i%4
		n := 4*d + (i/7)%5*2
		return graph.RandomRegular(n, d, rng), fmt.Sprintf("regular n=%d d=%d", n, d)
	case 1:
		n := 8 + (i/7)%6*4
		m := 2 * n
		return graph.RandomGNM(n, m, rng), fmt.Sprintf("gnm n=%d m=%d", n, m)
	case 2:
		s := 5 + (i/7)%5
		return graph.Caterpillar(s, 1+i%3), fmt.Sprintf("caterpillar %d", s)
	case 3:
		r := 3 + (i/7)%3
		return graph.Grid2D(r, r+1), fmt.Sprintf("grid %dx%d", r, r+1)
	case 4:
		return graph.Star(4 + (i/7)%8), "star"
	case 5:
		g, _ := graph.PerfectDAry(2+i%2, 3)
		return g, "tree"
	default:
		return graph.Cycle(5 + (i/7)%7), "cycle"
	}
}

// checkOrientEngines solves g on both engines under tie and demands
// bit-identical runs: phases, rounds, the worst-case bound, the phase log
// (reporting the first differing record), and every edge's head and
// vertex's load. Both runs check their phase invariants, every sharded
// subgame is verified, and the sharded result must be stable.
func checkOrientEngines(t *testing.T, tag string, g *graph.Graph, tie core.TieBreak, seed int64, shards int) *ShardedResult {
	t.Helper()
	seedRes, err := Solve(g, Options{Tie: tie, Seed: seed, CheckInvariants: true})
	if err != nil {
		t.Fatalf("%s: seed engine: %v", tag, err)
	}
	flatRes, err := SolveSharded(graph.NewCSRFromGraph(g), ShardedOptions{
		Tie: tie, Seed: seed, Shards: shards,
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
	if flatRes.WorstCaseRounds != seedRes.WorstCaseRounds {
		t.Fatalf("%s: worst-case bounds diverge", tag)
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
	for id := 0; id < g.M(); id++ {
		if int(flatRes.Head[id]) != seedRes.Orientation.Head(id) {
			t.Fatalf("%s: edge %d head %d (sharded) != %d (seed)",
				tag, id, flatRes.Head[id], seedRes.Orientation.Head(id))
		}
	}
	for v := 0; v < g.N(); v++ {
		if int(flatRes.Load[v]) != seedRes.Orientation.Load(v) {
			t.Fatalf("%s: load of %d diverges", tag, v)
		}
	}
	if !flatRes.Stable() {
		t.Fatalf("%s: sharded result not stable", tag)
	}
	return flatRes
}

func TestDifferentialOrientEngines(t *testing.T) {
	const cases = 105
	for i := 0; i < cases; i++ {
		g, name := diffGraph(i)
		checkOrientEngines(t, fmt.Sprintf("case %d (%s)", i, name), g, core.TieFirstPort, int64(100+i), 1+i%5)
	}
}

// TestDifferentialOrientTieRandom holds TieRandom runs to the same
// bit-identity as the TieFirstPort half, and keeps the oracles: besides
// the per-phase checks of checkOrientEngines, the materialized
// orientation is stable with consistent loads.
func TestDifferentialOrientTieRandom(t *testing.T) {
	for i := 0; i < 40; i++ {
		g, name := diffGraph(i)
		tag := fmt.Sprintf("case %d (%s)", i, name)
		o := checkOrientEngines(t, tag, g, core.TieRandom, int64(900+i), 1+i%4).Orientation()
		if !o.Stable() {
			t.Fatalf("%s: materialized orientation not stable", tag)
		}
		if err := o.CheckLoads(); err != nil {
			t.Fatalf("%s: %v", tag, err)
		}
	}
}

// TestOrientShardCountInvariance pins schedule independence: the same
// graph solved with 1..8 shards produces the same run.
func TestOrientShardCountInvariance(t *testing.T) {
	g := graph.RandomGNM(40, 120, rand.New(rand.NewSource(11)))
	csr := graph.NewCSRFromGraph(g)
	base, err := SolveSharded(csr, ShardedOptions{Tie: core.TieFirstPort, Seed: 11, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	for shards := 2; shards <= 8; shards++ {
		res, err := SolveSharded(csr, ShardedOptions{Tie: core.TieFirstPort, Seed: 11, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		if res.Rounds != base.Rounds || !slices.Equal(res.Head, base.Head) ||
			!slices.Equal(res.PhaseLog, base.PhaseLog) {
			t.Fatalf("shards=%d diverges from shards=1", shards)
		}
	}
}

// TestOrientCentralStepInvariance pins the parallel central passes: the
// badness pass, which also writes the game-assembly marks, runs as a
// Session.ParallelFor kernel over lex positions, and every subgame runs
// on the same session, so the whole run — phase logs (proposal/accept
// counts included), rounds, final heads and loads — must be
// bit-identical at shard counts 1, 2, and 8 under both tie rules.
// TieRandom is the sharper check: the per-vertex draw streams of the
// accept pass and of the subgames must not depend on the split.
func TestOrientCentralStepInvariance(t *testing.T) {
	for i := 0; i < 12; i++ {
		g, name := diffGraph(3 * i)
		csr := graph.NewCSRFromGraph(g)
		for _, tie := range []core.TieBreak{core.TieFirstPort, core.TieRandom} {
			base, err := SolveSharded(csr, ShardedOptions{
				Tie: tie, Seed: int64(500 + i), Shards: 1, CheckInvariants: true,
			})
			if err != nil {
				t.Fatalf("case %d (%s) tie=%v shards=1: %v", i, name, tie, err)
			}
			for _, shards := range []int{2, 8} {
				res, err := SolveSharded(csr, ShardedOptions{
					Tie: tie, Seed: int64(500 + i), Shards: shards, CheckInvariants: true,
				})
				if err != nil {
					t.Fatalf("case %d (%s) tie=%v shards=%d: %v", i, name, tie, shards, err)
				}
				if res.Rounds != base.Rounds || res.Phases != base.Phases ||
					!slices.Equal(res.PhaseLog, base.PhaseLog) ||
					!slices.Equal(res.Head, base.Head) || !slices.Equal(res.Load, base.Load) {
					t.Fatalf("case %d (%s) tie=%v: shards=%d diverges from shards=1", i, name, tie, shards)
				}
			}
		}
	}
}

// TestSolveShardedCSRNative runs the sharded port on graphs built directly
// in CSR form (whose adjacency is not neighbor-sorted), under both tie
// rules — the port order of the input CSR must not matter, because the
// phase games build their own in lexicographic edge order. The last
// input inserts its edges in shuffled order with shuffled endpoints, so
// no row is neighbor-sorted by construction.
func TestSolveShardedCSRNative(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, tc := range []struct {
		name string
		csr  *graph.CSR
	}{
		{"regular", graph.CSRRandomRegular(200, 4, rng)},
		{"powerlaw", graph.CSRPowerLaw(300, 2.2, 10, rng)},
		{"powerlaw bipartite", graph.CSRPowerLawBipartite(200, 40, 2.0, 8, rng)},
		{"gnm shuffled", shuffledCSR(graph.RandomGNM(150, 450, rng), rng)},
	} {
		for _, tie := range []core.TieBreak{core.TieFirstPort, core.TieRandom} {
			tag := fmt.Sprintf("%s tie=%v", tc.name, tie)
			res, err := SolveSharded(tc.csr, ShardedOptions{
				Tie: tie, Seed: 5, CheckInvariants: true,
			})
			if err != nil {
				t.Fatalf("%s: %v", tag, err)
			}
			if !res.Stable() {
				t.Fatalf("%s: not stable", tag)
			}
			// Cross-check against the seed engine on the materialized
			// graph: Solve ignores the input's port order, so the runs
			// must agree.
			g := tc.csr.ToGraph()
			seedRes, err := Solve(g, Options{Tie: tie, Seed: 5})
			if err != nil {
				t.Fatalf("%s: seed engine: %v", tag, err)
			}
			if seedRes.Rounds != res.Rounds || seedRes.Phases != res.Phases {
				t.Fatalf("%s: runs diverge: rounds %d/%d phases %d/%d",
					tag, res.Rounds, seedRes.Rounds, res.Phases, seedRes.Phases)
			}
			for id := 0; id < g.M(); id++ {
				if int(res.Head[id]) != seedRes.Orientation.Head(id) {
					t.Fatalf("%s: edge %d heads diverge", tag, id)
				}
			}
		}
	}
}

// shuffledCSR builds g in CSR form with its edges inserted in a random
// order and each edge's endpoints in a random order.
func shuffledCSR(g *graph.Graph, rng *rand.Rand) *graph.CSR {
	edges := slices.Clone(g.Edges())
	rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	b := graph.NewCSRBuilder(g.N(), len(edges))
	for _, e := range edges {
		if rng.Intn(2) == 0 {
			e.U, e.V = e.V, e.U
		}
		b.AddEdge(e.U, e.V)
	}
	return b.Build()
}
