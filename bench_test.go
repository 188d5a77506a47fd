package tokendrop_test

// One benchmark per timed experiment table of internal/bench (E1–E26
// and E28; E29's wire cost is a count, pinned by TestE29WireCostGolden):
// each regenerates its table on the quick profile, so `go test -bench=.`
// re-derives every figure/theorem check of the paper.
// Custom metrics report the quantity the corresponding claim is about
// (rounds, phases, ratios) alongside ns/op.
//
// The full-size tables are produced by cmd/td-experiments; CHANGES.md
// records the measured engine-speedup numbers.

import (
	"math/rand"
	"testing"

	"tokendrop"
	"tokendrop/internal/bench"
)

const benchSeed = 1234

func quick() bench.Profile { return bench.Profile{Quick: true, Seed: benchSeed} }

func BenchmarkE1StableOrientationSmall(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.E1StableOrientationExamples(quick())
	}
}

func BenchmarkE2TokenDroppingFigure2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.E2TokenDroppingFigure2(quick())
	}
}

func BenchmarkE3TraversalTails(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.E3TraversalTails(quick())
	}
}

func BenchmarkE4aProposalDeltaSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.E4ProposalDeltaSweep(quick())
	}
}

func BenchmarkE4bProposalLevelSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.E4ProposalLevelSweep(quick())
	}
}

func BenchmarkE5Height2Matching(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.E5Height2Matching(quick())
	}
}

func BenchmarkE6ThreeLevelSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.E6ThreeLevelSweep(quick())
	}
}

func BenchmarkE7OrientDeltaSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.E7OrientDeltaSweep(quick())
	}
}

func BenchmarkE8OrientVsBaseline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.E8OrientVsBaseline(quick())
	}
}

func BenchmarkE9LowerBoundConstructions(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.E9LowerBound(quick())
	}
}

func BenchmarkE10AssignSweeps(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.E10AssignSweeps(quick())
	}
}

func BenchmarkE11BoundedToMatching(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.E11BoundedToMatching(quick())
	}
}

func BenchmarkE12BoundedSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.E12BoundedSweep(quick())
	}
}

func BenchmarkE13SemimatchApprox(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.E13SemimatchApprox(quick())
	}
}

func BenchmarkE14SequentialGreedy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.E14SequentialGreedy(quick())
	}
}

func BenchmarkE15LoadBalancingContrast(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.E15LoadBalancingContrast(quick())
	}
}

func BenchmarkE16HeightGapAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.E16HeightGapAblation(quick())
	}
}

func BenchmarkE17ThresholdSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.E17ThresholdSweep(quick())
	}
}

func BenchmarkE18TieBreakAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.E18TieBreakAblation(quick())
	}
}

func BenchmarkE19ScheduleAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.E19ScheduleAblation(quick())
	}
}

func BenchmarkE20RuntimeScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.E20RuntimeScaling(quick())
	}
}

func BenchmarkE21MessageSizes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.E21MessageSizes(quick())
	}
}

func BenchmarkE22ShardedEngine(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.E22ShardedEngine(quick())
	}
}

func BenchmarkE23OrientSharded(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.E23OrientSharded(quick())
	}
}

func BenchmarkE24AssignSharded(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.E24AssignSharded(quick())
	}
}

func BenchmarkE25ShardScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.E25ShardScaling(quick())
	}
}

func BenchmarkE26CentralStepScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.E26CentralStepScaling(quick())
	}
}

func BenchmarkE28ArenaPareto(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.E28ArenaPareto(quick())
	}
}

func BenchmarkFixedScheduleOrientation(b *testing.B) {
	g := tokendrop.CycleGraph(10)
	for i := 0; i < b.N; i++ {
		if _, err := tokendrop.StableOrientationFixedSchedule(g, tokendrop.FixedOptions{Seed: benchSeed}); err != nil {
			b.Fatal(err)
		}
	}
}

// Micro-benchmarks of the building blocks, with the round counts the
// theory speaks about reported as custom metrics.

func BenchmarkProposalChainL64(b *testing.B) {
	inst := tokendrop.ChainGame(64)
	rounds := 0
	for i := 0; i < b.N; i++ {
		_, stats, err := tokendrop.SolveGame(inst, tokendrop.GameOptions{MaxRounds: 1 << 20})
		if err != nil {
			b.Fatal(err)
		}
		rounds = stats.Rounds
	}
	b.ReportMetric(float64(rounds), "rounds")
}

func BenchmarkProposalRandomLayered(b *testing.B) {
	rng := rand.New(rand.NewSource(benchSeed))
	cfg := tokendrop.LayeredConfig{Levels: 6, Width: 24, ParentDeg: 6, TokenProb: 0.7, FreeBottom: true}
	inst := tokendrop.RandomLayeredGame(cfg, rng)
	rounds := 0
	for i := 0; i < b.N; i++ {
		_, stats, err := tokendrop.SolveGame(inst, tokendrop.GameOptions{MaxRounds: 1 << 20})
		if err != nil {
			b.Fatal(err)
		}
		rounds = stats.Rounds
	}
	b.ReportMetric(float64(rounds), "rounds")
}

func BenchmarkStableOrientationRegular(b *testing.B) {
	g := tokendrop.RandomRegular(48, 6, rand.New(rand.NewSource(benchSeed)))
	rounds, phases := 0, 0
	for i := 0; i < b.N; i++ {
		res, err := tokendrop.StableOrientation(g, tokendrop.OrientOptions{Seed: benchSeed})
		if err != nil {
			b.Fatal(err)
		}
		rounds, phases = res.Rounds, res.Phases
	}
	b.ReportMetric(float64(rounds), "rounds")
	b.ReportMetric(float64(phases), "phases")
}

func BenchmarkStableAssignment(b *testing.B) {
	rng := rand.New(rand.NewSource(benchSeed))
	g := tokendrop.RandomBipartite(60, 20, 4, rng)
	bip, err := tokendrop.NewBipartite(g, 60)
	if err != nil {
		b.Fatal(err)
	}
	rounds := 0
	for i := 0; i < b.N; i++ {
		res, err := tokendrop.StableAssignment(bip, tokendrop.AssignOptions{Seed: benchSeed})
		if err != nil {
			b.Fatal(err)
		}
		rounds = res.Rounds
	}
	b.ReportMetric(float64(rounds), "rounds")
}

func BenchmarkKBoundedAssignment(b *testing.B) {
	rng := rand.New(rand.NewSource(benchSeed))
	g := tokendrop.RandomBipartite(60, 20, 4, rng)
	bip, err := tokendrop.NewBipartite(g, 60)
	if err != nil {
		b.Fatal(err)
	}
	rounds := 0
	for i := 0; i < b.N; i++ {
		res, err := tokendrop.KBoundedAssignment(bip, tokendrop.BoundedOptions{Seed: benchSeed})
		if err != nil {
			b.Fatal(err)
		}
		rounds = res.Rounds
	}
	b.ReportMetric(float64(rounds), "rounds")
}

func BenchmarkMaximalMatching(b *testing.B) {
	rng := rand.New(rand.NewSource(benchSeed))
	g := tokendrop.RandomBipartite(80, 40, 6, rng)
	bip, err := tokendrop.NewBipartite(g, 80)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, err := tokendrop.MaximalMatching(bip, 1<<20, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOptimalSemimatching(b *testing.B) {
	rng := rand.New(rand.NewSource(benchSeed))
	g := tokendrop.RandomBipartite(40, 12, 3, rng)
	bip, err := tokendrop.NewBipartite(g, 40)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, _, err := tokendrop.OptimalSemimatching(bip); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVerifyGame(b *testing.B) {
	rng := rand.New(rand.NewSource(benchSeed))
	cfg := tokendrop.LayeredConfig{Levels: 6, Width: 20, ParentDeg: 4, TokenProb: 0.6, FreeBottom: true}
	inst := tokendrop.RandomLayeredGame(cfg, rng)
	sol, _, err := tokendrop.SolveGame(inst, tokendrop.GameOptions{MaxRounds: 1 << 20})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tokendrop.VerifyGame(sol); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLocalRuntimeScaling measures the simulator itself on a game
// with thousands of nodes, exercising the parallel round executor.
func BenchmarkLocalRuntimeScaling(b *testing.B) {
	rng := rand.New(rand.NewSource(benchSeed))
	cfg := tokendrop.LayeredConfig{Levels: 15, Width: 256, ParentDeg: 4, TokenProb: 0.6, FreeBottom: true}
	inst := tokendrop.RandomLayeredGame(cfg, rng)
	for i := 0; i < b.N; i++ {
		if _, _, err := tokendrop.SolveGame(inst, tokendrop.GameOptions{MaxRounds: 1 << 20}); err != nil {
			b.Fatal(err)
		}
	}
}
