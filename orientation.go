package tokendrop

import (
	"math/rand"

	"tokendrop/internal/baseline"
	"tokendrop/internal/graph"
	"tokendrop/internal/orient"
)

// Orientation-side facade: the Theorem 5.1 algorithm and the baselines it
// is measured against.

type (
	// OrientOptions configure StableOrientation.
	OrientOptions = orient.Options
	// OrientResult carries the stable orientation, phase log, and round
	// counts (adaptive and worst-case).
	OrientResult = orient.Result
	// OrientPhase is one phase record (proposals, game rounds, badness).
	OrientPhase = orient.PhaseRecord
	// FlipPolicy selects the sequential greedy's next unhappy edge.
	FlipPolicy = baseline.FlipPolicy
	// InitRule selects the arbitrary starting orientation for baselines.
	InitRule = baseline.InitRule
	// GreedyResult reports a sequential greedy run.
	GreedyResult = baseline.SequentialResult
	// SelfishResult reports a distributed selfish-flip run.
	SelfishResult = baseline.SelfishResult
	// FixedOptions configure StableOrientationFixedSchedule.
	FixedOptions = orient.FixedOptions
	// FixedResult reports a fixed-schedule run.
	FixedResult = orient.FixedResult
	// FlatGraph is a CSR-form undirected graph — the input of the sharded
	// orientation runtime, sized for 10⁶+ vertices.
	FlatGraph = graph.CSR
	// OrientShardedOptions configure StableOrientationSharded.
	OrientShardedOptions = orient.ShardedOptions
	// OrientShardedResult carries the flat orientation (per-edge heads,
	// per-vertex loads) plus the phase log and round counts.
	OrientShardedResult = orient.ShardedResult
)

// Baseline configuration constants.
const (
	FlipFirst          = baseline.FlipFirst
	FlipRandom         = baseline.FlipRandom
	FlipWorst          = baseline.FlipWorst
	InitTowardHigherID = baseline.InitTowardHigherID
	InitRandom         = baseline.InitRandom
)

// StableOrientation computes a stable orientation of g — every edge (u,v)
// satisfies indegree(v) ≤ indegree(u)+1 — with the paper's token-dropping
// phase algorithm (Theorem 5.1, O(Δ⁴) rounds).
func StableOrientation(g *Graph, opt OrientOptions) (*OrientResult, error) {
	return orient.Solve(g, opt)
}

// OrientWorstCaseBound returns the analytic fixed-schedule round bound of
// the Theorem 5.1 algorithm for maximum degree delta (Θ(Δ⁴)).
func OrientWorstCaseBound(delta int) int { return orient.WorstCaseBound(delta) }

// StableOrientationSharded computes a stable orientation of a CSR-form
// graph on the sharded flat runtime — the million-node counterpart of
// StableOrientation. Under either tie rule the run is bit-identical to
// StableOrientation on the same graph (same phase log, rounds, and final
// orientation).
func StableOrientationSharded(c *FlatGraph, opt OrientShardedOptions) (*OrientShardedResult, error) {
	return orient.SolveSharded(c, opt)
}

// NewFlatGraph converts a pointer-based graph to CSR form, preserving
// vertex ids, edge ids, and port order.
func NewFlatGraph(g *Graph) *FlatGraph { return graph.NewCSRFromGraph(g) }

// StableOrientationFixedSchedule runs the Theorem 5.1 algorithm as a true
// LOCAL protocol on the paper's fixed worst-case schedule: nodes know Δ,
// run 2Δ phases of fixed length, and spend the full Θ(Δ⁴) budget — no
// simulator-side barriers. StableOrientation computes the same thing with
// adaptive phase boundaries and reports the rounds actually needed.
func StableOrientationFixedSchedule(g *Graph, opt FixedOptions) (*FixedResult, error) {
	return orient.SolveFixed(g, opt)
}

// ArbitraryOrientation orients every edge of g by the given rule — the
// starting point of the baseline algorithms.
func ArbitraryOrientation(g *Graph, rule InitRule, rng *rand.Rand) *Orientation {
	return baseline.OrientAll(g, rule, rng)
}

// GreedyOrientation runs the centralized sequential algorithm of Section
// 1.1 from the given orientation (mutated in place) until stable.
func GreedyOrientation(o *Orientation, policy FlipPolicy, rng *rand.Rand) GreedyResult {
	return baseline.SequentialGreedy(o, policy, rng)
}

// SelfishOrientation runs the distributed selfish-flip dynamic (the
// CHSW12-class comparator) from the given orientation until globally
// stable; the input is not mutated.
func SelfishOrientation(o *Orientation, seed int64, maxRounds, workers int) (*SelfishResult, error) {
	return baseline.SelfishFlips(o, seed, maxRounds, workers)
}

// Graph constructors, re-exported for building inputs.

// NewGraph returns an empty graph on n vertices.
func NewGraph(n int) *Graph { return graph.New(n) }

// PathGraph returns the path on n vertices.
func PathGraph(n int) *Graph { return graph.Path(n) }

// CycleGraph returns the cycle on n ≥ 3 vertices.
func CycleGraph(n int) *Graph { return graph.Cycle(n) }

// StarGraph returns a hub with the given number of leaves.
func StarGraph(leaves int) *Graph { return graph.Star(leaves) }

// GridGraph returns the rows×cols grid.
func GridGraph(rows, cols int) *Graph { return graph.Grid2D(rows, cols) }

// CompleteGraph returns K_n.
func CompleteGraph(n int) *Graph { return graph.Complete(n) }

// CaterpillarGraph returns a spine with pendant legs per spine vertex —
// the propagation-chain workload of Section 1.1.
func CaterpillarGraph(spine, legs int) *Graph { return graph.Caterpillar(spine, legs) }

// RandomRegular returns a seeded random d-regular simple graph.
func RandomRegular(n, d int, rng *rand.Rand) *Graph { return graph.RandomRegular(n, d, rng) }

// RandomRegularFlat builds a seeded random d-regular simple graph directly
// in CSR form — the orientation workload of the load-balancing evaluations
// at 10⁶+ vertices, where materializing the pointer graph first would
// dominate the run. Requires 2d < n.
func RandomRegularFlat(n, d int, rng *rand.Rand) *FlatGraph {
	return graph.CSRRandomRegular(n, d, rng)
}

// PowerLawFlat builds a seeded general power-law graph in CSR form: every
// vertex draws a degree from P(d) ∝ d^(-alpha) on 1..maxDeg and attaches
// to that many distinct random vertices — the skewed-demand orientation
// workload (a few hubs, a heavy tail of near-singletons).
func PowerLawFlat(n int, alpha float64, maxDeg int, rng *rand.Rand) *FlatGraph {
	return graph.CSRPowerLaw(n, alpha, maxDeg, rng)
}

// RandomGraph returns a seeded uniform random simple graph with m edges.
func RandomGraph(n, m int, rng *rand.Rand) *Graph { return graph.RandomGNM(n, m, rng) }

// PerfectDAryTree returns the Section 6 tree (every non-leaf has degree d,
// all leaves at the same depth) and each vertex's depth.
func PerfectDAryTree(d, depth int) (*Graph, []int) { return graph.PerfectDAry(d, depth) }
