package bench

import (
	"math/rand"
	"testing"

	"tokendrop/internal/arena"
	"tokendrop/internal/assign"
	"tokendrop/internal/core"
	"tokendrop/internal/graph"
	"tokendrop/internal/local"
	"tokendrop/internal/orient"
)

// The deterministic gates. Each test below pins counts that repeat
// exactly for a fixed seed and instance — wire cost, the arena's Pareto
// points, allocation counts — as an exact table. A deliberate change to
// one of them edits its table and says why in CHANGES.md; timing is the
// benchmark's job (tdbench), not these tests'.

// quickEngineInstances builds the quick-profile engine instances at
// seed 42 from one rand stream: the E22 layered game (L=5, width 60,
// parent degree 4), then a random 4-regular graph on 2,000 vertices,
// then a 4,000 × 1,000 bipartite network with customer degree 3 (the
// quick E23 and E24 shapes).
func quickEngineInstances() (*core.FlatInstance, *graph.CSR, *graph.CSRBipartite) {
	rng := rand.New(rand.NewSource(42))
	game := core.FlatRandomLayered(core.LayeredConfig{
		Levels: 5, Width: 60, ParentDeg: 4, TokenProb: 0.6, FreeBottom: true,
	}, rng)
	g := graph.NewCSRFromGraph(graph.RandomRegular(2_000, 4, rng))
	fb := graph.NewCSRBipartiteFromBipartite(
		graph.MustBipartite(graph.RandomBipartite(4_000, 1_000, 3, rng), 4_000))
	return game, g, fb
}

// TestE29WireCostGolden pins the multi-process transport's per-round
// wire cost on the quick E22 game: star routing ships two frames per
// process, and the bytes are the frame headers plus two per
// boundary-crossing buffer word. Both are pure functions of the graph
// and the arc-balanced shard map, so a shift in the shard bounds or in
// the frame format moves them; internal/mp's TestWireAccountingMatchesPlan
// ties these static figures to the bytes ProcTransport actually writes.
func TestE29WireCostGolden(t *testing.T) {
	game, _, _ := quickEngineInstances()
	for _, want := range []struct {
		procs, frames int
		bytes         int64
	}{
		{2, 4, 1_012},
		{4, 8, 3_044},
	} {
		frames, bytes, err := local.MPWireCost(game.CSR(), want.procs, 1)
		if err != nil {
			t.Fatalf("procs=%d: %v", want.procs, err)
		}
		if frames != want.frames || bytes != want.bytes {
			t.Errorf("procs=%d: %d frames / %d bytes per round, want %d / %d",
				want.procs, frames, bytes, want.frames, want.bytes)
		}
	}
}

// TestE28ArenaGolden pins the strategy arena's deterministic Pareto
// points on the quick profile at seed 42: token dropping's final max
// load and rounds on every workload family, and the incremental
// Resolver's max load, deltas and repair moves on the churn trace. Every
// result is also oracle-checked. The values are the same at shards 1, 2
// and 8.
func TestE28ArenaGolden(t *testing.T) {
	workloads, err := e28Workloads(Profile{Quick: true, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	td := &arena.TokenDropping{Shards: 2}
	defer td.Close()
	want := map[string]struct{ maxLoad, rounds int }{
		"uniform":     {6, 68},
		"zipf":        {10, 258},
		"hotspot":     {6, 64},
		"adversarial": {3, 22},
		"churn":       {5, 62},
	}
	for _, w := range workloads {
		res, err := arena.Run(td, w, 42)
		if err != nil {
			t.Fatalf("%s: %v", w.Family, err)
		}
		if err := arena.CheckResult(w, res); err != nil {
			t.Fatalf("%s: %v", w.Family, err)
		}
		wt, ok := want[w.Family]
		if !ok {
			t.Fatalf("no golden row for workload family %q", w.Family)
		}
		if res.MaxLoad != wt.maxLoad || res.Rounds != wt.rounds {
			t.Errorf("token dropping on %s: max load %d, %d rounds; want %d, %d",
				w.Family, res.MaxLoad, res.Rounds, wt.maxLoad, wt.rounds)
		}
		if w.Trace == nil {
			continue
		}
		res, err = arena.Run(&arena.ResolverStrategy{Shards: 2}, w, 42)
		if err != nil {
			t.Fatalf("resolver on %s: %v", w.Family, err)
		}
		if err := arena.CheckResult(w, res); err != nil {
			t.Fatalf("resolver on %s: %v", w.Family, err)
		}
		if res.MaxLoad != 5 || res.Rounds != 397 || res.Steps != 87 {
			t.Errorf("resolver on %s: max load %d, %d deltas, %d repair moves; want 5, 397, 87",
				w.Family, res.MaxLoad, res.Rounds, res.Steps)
		}
	}
}

// TestOneShotAllocCeilings caps the allocations of one-shot sharded
// solves (no caller-held session or workspace) on the quick engine
// instances. The warmed paths are pinned at zero elsewhere; these catch
// new per-round churn in the set-up and phase machinery around them.
// Each ceiling is the count measured when the table was written plus
// half an allocation per round: the counts repeat exactly except for a
// scheduling-dependent two or so at shards 1.
func TestOneShotAllocCeilings(t *testing.T) {
	game, g, fb := quickEngineInstances()
	for _, c := range []struct {
		layer  string
		shards int
		allocs float64 // measured when the table was written
		rounds int
		solve  func(shards int) (rounds int, err error)
	}{
		{"game", 1, 37, 19, gameRounds(game)},
		{"game", 2, 46, 19, gameRounds(game)},
		{"orient", 1, 102, 31, orientRounds(g)},
		{"orient", 2, 118, 31, orientRounds(g)},
		{"assign", 1, 225, 87, assignRounds(fb)},
		{"assign", 2, 237, 87, assignRounds(fb)},
	} {
		var rounds int
		var err error
		allocs := testing.AllocsPerRun(5, func() { rounds, err = c.solve(c.shards) })
		if err != nil {
			t.Fatalf("%s shards=%d: %v", c.layer, c.shards, err)
		}
		if rounds != c.rounds {
			t.Errorf("%s shards=%d: %d rounds, want %d", c.layer, c.shards, rounds, c.rounds)
		}
		if ceiling := c.allocs + float64(c.rounds)/2; allocs > ceiling {
			t.Errorf("%s shards=%d: %.0f allocations per solve, ceiling %.1f (%.0f measured + %d rounds/2)",
				c.layer, c.shards, allocs, ceiling, c.allocs, c.rounds)
		}
	}
}

func gameRounds(fi *core.FlatInstance) func(int) (int, error) {
	return func(shards int) (int, error) {
		res, err := core.SolveProposalSharded(fi, core.ShardedSolveOptions{
			Tie: core.TieFirstPort, Shards: shards, MaxRounds: 1 << 20,
		})
		if err != nil {
			return 0, err
		}
		return res.Stats.Rounds, nil
	}
}

func orientRounds(g *graph.CSR) func(int) (int, error) {
	return func(shards int) (int, error) {
		res, err := orient.SolveSharded(g, orient.ShardedOptions{Seed: 42, Shards: shards})
		if err != nil {
			return 0, err
		}
		return res.Rounds, nil
	}
}

func assignRounds(fb *graph.CSRBipartite) func(int) (int, error) {
	return func(shards int) (int, error) {
		res, err := assign.SolveSharded(fb, assign.ShardedOptions{Seed: 42, Shards: shards})
		if err != nil {
			return 0, err
		}
		return res.Rounds, nil
	}
}
