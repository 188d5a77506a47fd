package bench

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"time"

	"tokendrop/internal/assign"
	"tokendrop/internal/graph"
	"tokendrop/internal/orient"
)

// E26: shard scaling of the whole phase loops. E25 isolates the subgame
// rounds; this experiment solves one orientation and one assignment
// instance end to end at increasing worker counts, so it also exercises
// the central per-phase passes: the badness pass with its game-assembly
// marks and assign's proposals, which run as Session.ParallelFor kernels
// on the same worker pool, and the sequential per-proposal accepts.
// Each kernel writes only its own slice, so every run must be
// bit-identical (same phases, rounds, and final orientation/assignment),
// which the "agrees with 1" column checks; on a single hardware thread
// the throughput curve is expected to be flat, on multi-core hardware
// rounds/s should climb until the shard count passes the core count.
func E26CentralStepScaling(p Profile) *Table {
	t := &Table{
		ID:    "E26",
		Title: "Phase-loop shard scaling (parallel central steps + subgames)",
		Claim: "whole solves are shard-count invariant; central passes scale on the session's workers",
		Columns: []string{"layer", "shards", "n", "m", "phases", "rounds", "ms", "rounds/s",
			"speedup vs 1", "agrees with 1"},
		Notes: []string{fmt.Sprintf("GOMAXPROCS = %d", runtime.GOMAXPROCS(0))},
	}
	rng := rand.New(rand.NewSource(p.Seed))

	on, od := 60_000, 4
	nl, nr, cdeg := 50_000, 12_500, 3
	if p.Quick {
		on = 2_000
		nl, nr = 4_000, 1_000
	}
	ocsr := graph.NewCSRFromGraph(graph.RandomRegular(on, od, rng))
	fb := graph.NewCSRBipartiteFromBipartite(
		graph.MustBipartite(graph.RandomBipartite(nl, nr, cdeg, rng), nl))

	var baseMS float64
	var baseRounds, basePhases int
	var baseHead []int32
	for _, shards := range e25ShardCounts() {
		t0 := time.Now()
		res, err := orient.SolveSharded(ocsr, orient.ShardedOptions{Seed: p.Seed, Shards: shards})
		ms := time.Since(t0).Seconds() * 1000
		if err != nil {
			t.AddRow("orientation", shards, on, ocsr.M(), "error", err.Error(), "", "", "", mark(false))
			return t
		}
		if shards == 1 {
			baseMS, baseRounds, basePhases = ms, res.Rounds, res.Phases
			baseHead = slices.Clone(res.Head)
		}
		agree := res.Rounds == baseRounds && res.Phases == basePhases && slices.Equal(res.Head, baseHead)
		t.AddRow("orientation", shards, on, ocsr.M(), res.Phases, res.Rounds, ms,
			scalingRate(res.Rounds, ms), scalingSpeedup(baseMS, ms), mark(agree))
	}

	var baseServerOf []int32
	for _, shards := range e25ShardCounts() {
		t0 := time.Now()
		res, err := assign.SolveSharded(fb, assign.ShardedOptions{Seed: p.Seed, Shards: shards})
		ms := time.Since(t0).Seconds() * 1000
		if err != nil {
			t.AddRow("assignment", shards, nl, fb.C.M(), "error", err.Error(), "", "", "", mark(false))
			return t
		}
		if shards == 1 {
			baseMS, baseRounds, basePhases = ms, res.Rounds, res.Phases
			baseServerOf = slices.Clone(res.ServerOf)
		}
		agree := res.Rounds == baseRounds && res.Phases == basePhases && slices.Equal(res.ServerOf, baseServerOf)
		t.AddRow("assignment", shards, nl, fb.C.M(), res.Phases, res.Rounds, ms,
			scalingRate(res.Rounds, ms), scalingSpeedup(baseMS, ms), mark(agree))
	}
	return t
}

// scalingRate formats rounds/s for a scaling row.
func scalingRate(rounds int, ms float64) string {
	if ms <= 0 {
		return "-"
	}
	return fmt.Sprintf("%.0f", float64(rounds)/(ms/1000))
}

// scalingSpeedup formats throughput relative to the shards=1 row.
func scalingSpeedup(baseMS, ms float64) string {
	if ms <= 0 || baseMS <= 0 {
		return "-"
	}
	return fmt.Sprintf("%.2f", baseMS/ms)
}
