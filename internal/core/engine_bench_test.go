package core

import (
	"math/rand"
	"sync"
	"testing"

	"tokendrop/internal/local"
)

// Engine throughput benchmarks at the million-vertex scale the paper's
// related evaluations run at (10⁶+ tokens). Both engines execute the same
// deterministic proposal protocol (TieFirstPort) on the same instance —
// identical port numbering, bit-identical runs — and play the full game
// to completion.
//
// BenchmarkShardedEngine and BenchmarkSeedEngine measure the engines as
// they are used: one full solve, including binding the algorithm to the
// network (per-node machine objects for the seed engine, flat state
// arrays for the sharded one) and collecting the outcome. That binding
// cost is not incidental — the per-node machinery is precisely what the
// sharded engine exists to eliminate. The *RunOnly variants time just the
// synchronous rounds, with construction excluded for both. The rounds/s
// custom metric is rounds-of-the-game per wall-clock second in either
// case; see CHANGES.md for recorded numbers. Run with
//
//	go test ./internal/core -bench Engine -benchtime 2x

const (
	benchLevels = 7
	benchWidth  = 125000 // (7+1) * 125000 = 1e6 vertices
	benchDeg    = 4
)

var (
	benchOnce sync.Once
	benchFlat *FlatInstance
	benchInst *Instance
)

// millionInstance builds the 10⁶-vertex benchmark game once per process,
// in both representations, from the same CSR (identical port order).
func millionInstance() (*FlatInstance, *Instance) {
	benchOnce.Do(func() {
		rng := rand.New(rand.NewSource(99))
		benchFlat = FlatRandomLayered(LayeredConfig{
			Levels: benchLevels, Width: benchWidth, ParentDeg: benchDeg,
			TokenProb: 0.6, FreeBottom: true,
		}, rng)
		benchInst = benchFlat.Instance()
	})
	return benchFlat, benchInst
}

func BenchmarkShardedEngine(b *testing.B) {
	fi, _ := millionInstance()
	rounds := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := SolveProposalSharded(fi, ShardedSolveOptions{Tie: TieFirstPort, MaxRounds: 1 << 20})
		if err != nil {
			b.Fatal(err)
		}
		rounds += res.Stats.Rounds
	}
	b.ReportMetric(float64(rounds)/b.Elapsed().Seconds(), "rounds/s")
}

// BenchmarkShardedEngineWarmSession measures the reusable execution
// layer: every solve after the first reuses one session's worker pool
// and buffers plus one workspace's program state, so iterations b.N ≥ 2
// run the steady state the phase loops live in (0 allocs per round;
// -benchmem shows the amortized construction cost vanishing).
func BenchmarkShardedEngineWarmSession(b *testing.B) {
	fi, _ := millionInstance()
	sess := local.NewSession(0)
	defer sess.Close()
	ws := NewSolverWorkspace()
	rounds := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := SolveProposalSharded(fi, ShardedSolveOptions{
			Tie: TieFirstPort, MaxRounds: 1 << 20, Session: sess, Workspace: ws,
		})
		if err != nil {
			b.Fatal(err)
		}
		rounds += res.Stats.Rounds
	}
	b.ReportMetric(float64(rounds)/b.Elapsed().Seconds(), "rounds/s")
}

func BenchmarkSeedEngine(b *testing.B) {
	_, inst := millionInstance()
	rounds := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sol, _, err := SolveProposal(inst, SolveOptions{Tie: TieFirstPort, MaxRounds: 1 << 20})
		if err != nil {
			b.Fatal(err)
		}
		rounds += sol.Rounds
	}
	b.ReportMetric(float64(rounds)/b.Elapsed().Seconds(), "rounds/s")
}

func BenchmarkShardedEngineRunOnly(b *testing.B) {
	fi, _ := millionInstance()
	rounds := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		sess := local.NewSession(0)
		pr := new(flatProposal)
		pr.reset(fi, TieFirstPort, 0, sess)
		b.StartTimer()
		stats, err := sess.Run(fi.CSR(), pr, local.ShardedOptions{MaxRounds: 1 << 20})
		sess.Close()
		if err != nil {
			b.Fatal(err)
		}
		rounds += stats.Rounds
	}
	b.ReportMetric(float64(rounds)/b.Elapsed().Seconds(), "rounds/s")
}

func BenchmarkSeedEngineRunOnly(b *testing.B) {
	_, inst := millionInstance()
	rounds := 0
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		nw := local.NewNetwork(inst.Graph(), func(v int) local.Machine {
			return NewProposalMachine(inst, v, TieFirstPort, 0)
		})
		b.StartTimer()
		stats, err := nw.Run(local.Options{MaxRounds: 1 << 20})
		if err != nil {
			b.Fatal(err)
		}
		rounds += stats.Rounds
	}
	b.ReportMetric(float64(rounds)/b.Elapsed().Seconds(), "rounds/s")
}
