package tokendrop

import (
	"math/rand"

	"tokendrop/internal/assign"
	"tokendrop/internal/graph"
	"tokendrop/internal/matching"
	"tokendrop/internal/semimatch"
)

// Assignment-side facade: stable assignments (Section 7), the k-bounded
// relaxation, maximal matching, and semi-matching quality measurement.

type (
	// AssignOptions configure StableAssignment.
	AssignOptions = assign.Options
	// AssignResult carries the assignment, phase log, and round counts.
	AssignResult = assign.Result
	// BoundedOptions configure KBoundedAssignment (K = 0 means 2); they
	// are AssignOptions.
	BoundedOptions = assign.Options
	// BoundedResult carries the k-bounded assignment and statistics; it
	// is AssignResult.
	BoundedResult = assign.Result
	// MatchingResult carries a maximal matching and its round count.
	MatchingResult = matching.Result
	// FlatBipartite is a CSR-form customer/server network — the input of
	// the sharded assignment runtime, sized for 10⁶+ customers.
	FlatBipartite = graph.CSRBipartite
	// AssignShardedOptions configure StableAssignmentSharded.
	AssignShardedOptions = assign.ShardedOptions
	// AssignShardedResult carries the flat assignment (per-customer server
	// indices, per-server loads) plus the phase log and round counts.
	AssignShardedResult = assign.ShardedResult
	// BoundedShardedOptions configure KBoundedAssignmentSharded (K = 0
	// means 2); they are AssignShardedOptions.
	BoundedShardedOptions = assign.ShardedOptions
	// BoundedShardedResult carries the flat k-bounded assignment and
	// statistics; it is AssignShardedResult.
	BoundedShardedResult = assign.ShardedResult
)

// NewBipartite wraps g as a customer/server network: vertices
// 0..numLeft-1 are customers, the rest servers; every edge must cross.
func NewBipartite(g *Graph, numLeft int) (*Bipartite, error) {
	return graph.NewBipartite(g, numLeft)
}

// RandomBipartite returns a network where each of nl customers picks c
// distinct servers out of nr uniformly at random.
func RandomBipartite(nl, nr, c int, rng *rand.Rand) *Graph {
	return graph.RandomBipartite(nl, nr, c, rng)
}

// RandomBipartiteRegular returns a network with every customer of degree
// c and every server of degree s (nl·c must equal nr·s).
func RandomBipartiteRegular(nl, nr, c, s int, rng *rand.Rand) *Graph {
	return graph.RandomBipartiteRegular(nl, nr, c, s, rng)
}

// StableAssignment assigns every customer of b to an adjacent server so
// that no customer can lower its server's load by switching, using the
// hypergraph token dropping algorithm of Theorem 7.3 (O(C·S⁴) rounds).
func StableAssignment(b *Bipartite, opt AssignOptions) (*AssignResult, error) {
	return assign.Solve(b, opt)
}

// KBoundedAssignment solves the k-bounded relaxation of Section 7.3
// (loads above k are indistinguishable); with the default k = 2 this is
// the 0–1–many problem solved in O(C·S²) rounds (Theorem 7.5). It is
// StableAssignment with opt.K, defaulted to 2.
func KBoundedAssignment(b *Bipartite, opt BoundedOptions) (*BoundedResult, error) {
	if opt.K == 0 {
		opt.K = 2
	}
	return assign.Solve(b, opt)
}

// StableAssignmentSharded computes a stable assignment of a CSR-form
// network on the sharded flat runtime — the million-customer counterpart
// of StableAssignment. Under either tie rule the run is bit-identical to
// StableAssignment on the same network (same phase log, rounds, and final
// assignment).
func StableAssignmentSharded(fb *FlatBipartite, opt AssignShardedOptions) (*AssignShardedResult, error) {
	return assign.SolveSharded(fb, opt)
}

// KBoundedAssignmentSharded solves the k-bounded relaxation on the sharded
// flat runtime; with the default k = 2 each phase's game runs on the
// specialized three-level flat solver (Theorem 7.5). Under either tie
// rule the run is bit-identical to KBoundedAssignment on the same network. It
// is StableAssignmentSharded with opt.K, defaulted to 2.
func KBoundedAssignmentSharded(fb *FlatBipartite, opt BoundedShardedOptions) (*BoundedShardedResult, error) {
	if opt.K == 0 {
		opt.K = 2
	}
	return assign.SolveSharded(fb, opt)
}

// NewFlatBipartite converts a pointer-based customer/server network to CSR
// form, preserving vertex ids, edge ids, and port order.
func NewFlatBipartite(b *Bipartite) *FlatBipartite {
	return graph.NewCSRBipartiteFromBipartite(b)
}

// NewFlatBipartiteCSR wraps a CSR graph as a customer/server network:
// vertices 0..numLeft-1 are customers, the rest servers; every edge must
// cross.
func NewFlatBipartiteCSR(c *FlatGraph, numLeft int) (*FlatBipartite, error) {
	return graph.NewCSRBipartite(c, numLeft)
}

// PowerLawBipartiteFlat builds a customer/server network directly in CSR
// form where each of nl customers draws its degree from a truncated power
// law P(d) ∝ d^(-alpha) on 1..maxDeg and attaches to that many distinct
// random servers — the skewed-demand assignment workload at 10⁵+
// customers, where materializing the pointer graph first would dominate
// the run.
func PowerLawBipartiteFlat(nl, nr int, alpha float64, maxDeg int, rng *rand.Rand) *FlatBipartite {
	return graph.MustCSRBipartite(graph.CSRPowerLawBipartite(nl, nr, alpha, maxDeg, rng), nl)
}

// MatchingFromBounded applies the Theorem 7.4 post-processing: a 2-bounded
// stable assignment becomes a maximal matching (every server keeps one
// assigned customer).
func MatchingFromBounded(a *Assignment) []int { return assign.ReduceToMatching(a) }

// MatchingFromBoundedSharded is MatchingFromBounded for the flat runtime:
// it reduces a 2-bounded sharded result to a maximal matching without
// materializing the object assignment.
func MatchingFromBoundedSharded(r *BoundedShardedResult) []int {
	return assign.ReduceToMatchingSharded(r)
}

// MaximalMatching computes a maximal matching of b with the distributed
// proposal algorithm (O(Δ) rounds).
func MaximalMatching(b *Bipartite, maxRounds, workers int) (*MatchingResult, error) {
	return matching.Solve(b, maxRounds, workers)
}

// VerifyMaximalMatching checks matchOf is a maximal matching of b.
func VerifyMaximalMatching(b *Bipartite, matchOf []int) error {
	return matching.VerifyMaximal(b, matchOf)
}

// OptimalSemimatching computes an exact optimal semi-matching of b
// (minimum Σ f(load), f(x) = x(x+1)/2) via min-cost flow, returning the
// assignment and its cost.
func OptimalSemimatching(b *Bipartite) (*Assignment, int, error) {
	return semimatch.Optimal(b)
}

// SemimatchingApproxRatio returns cost(a)/optimal together with the
// optimal cost; stable assignments stay at or below 2 (Section 1.3).
func SemimatchingApproxRatio(a *Assignment) (float64, int, error) {
	return semimatch.ApproxRatio(a)
}
