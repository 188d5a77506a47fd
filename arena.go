package tokendrop

import (
	"tokendrop/internal/arena"
)

// Arena facade: the strategy-racing layer (internal/arena) where the
// paper's token-dropping assignment competes against the greedy
// baselines practitioners deploy — random, round-robin, least-loaded,
// power-of-k-choices, Robin-Hood stealing, a deterministic rotor, and a
// threshold protocol — on shared workload families, under one oracle.
// Experiment E28 (cmd/td-experiments) lays the results out as a Pareto
// report: final max load vs rounds vs messages vs wall-clock.

type (
	// ArenaWorkload is one arena instance: a bipartite customer/server
	// network with its family tag, optional proven max-load floor, and
	// (for churn families) the replayable trace it was materialized from.
	ArenaWorkload = arena.Workload
	// ArenaResult is the common artifact every strategy produces:
	// assignment, loads, and the Pareto axes (max load, rounds, steps,
	// messages, wall-clock).
	ArenaResult = arena.Result
	// ArenaStrategy is the arena contract: produce a complete adjacent
	// assignment of a workload's customers.
	ArenaStrategy = arena.Strategy
	// ChurnTrace is a replayable churn history in the versioned JSON
	// trace format that internal/arena's ReadTrace and WriteTrace read
	// and write.
	ChurnTrace = arena.Trace
)

// ArenaRun times one strategy×workload matchup and normalizes the
// result's identity fields.
func ArenaRun(s ArenaStrategy, w *ArenaWorkload, seed int64) (*ArenaResult, error) {
	return arena.Run(s, w, seed)
}

// ArenaCheck is the oracle every arena entry must pass: complete
// adjacent assignment, exactly recounted loads, and no result below a
// workload's proven max-load floor.
func ArenaCheck(w *ArenaWorkload, res *ArenaResult) error {
	return arena.CheckResult(w, res)
}

// ArenaAdversarial builds the Lemma 6.2 adversarial workload: ns
// servers in a random d-regular conflict graph, one degree-2 customer
// per edge, with the proven floor ⌈d/2⌉ recorded on the workload.
func ArenaAdversarial(ns, d int, seed int64) *ArenaWorkload {
	return arena.Adversarial(ns, d, seed)
}

// TokenDroppingStrategy returns the paper engine's arena entry (the
// sharded token-dropping solver behind a warmed session); the caller
// must Close it.
func TokenDroppingStrategy(shards int) *arena.TokenDropping {
	return &arena.TokenDropping{Shards: shards}
}
