package tokendrop

import (
	"math/rand"

	"tokendrop/internal/core"
	"tokendrop/internal/graph"
)

// Re-exported core types. The aliases make the internal implementation
// types usable through the public API; see the internal packages for the
// full method sets.
type (
	// Graph is an undirected simple graph with stable edge identifiers.
	Graph = graph.Graph
	// Edge is an undirected edge with normalized endpoints (U < V).
	Edge = graph.Edge
	// Orientation assigns directions (and thereby server loads) to edges.
	Orientation = graph.Orientation
	// Bipartite is a customer/server network (customers first).
	Bipartite = graph.Bipartite
	// Assignment maps customers to servers and tracks loads.
	Assignment = graph.Assignment

	// GameInstance is a token dropping game (Section 4): layered vertices,
	// at most one token per vertex, single-use edges between adjacent
	// layers.
	GameInstance = core.Instance
	// GameSolution is a move log plus final position, checked by
	// VerifyGame against the paper's three rules.
	GameSolution = core.Solution
	// GameMove is one token drop.
	GameMove = core.Move
	// Traversal is the path a token followed (Definition 4.3 context).
	Traversal = core.Traversal
	// GameOptions configure the distributed game solvers.
	GameOptions = core.SolveOptions
	// GameStats reports rounds, messages, and the Lemma 4.4 counter.
	GameStats = core.DistStats
	// TieBreak selects among equally eligible ports.
	TieBreak = core.TieBreak
	// LayeredConfig parameterizes random layered workloads.
	LayeredConfig = core.LayeredConfig
	// SequentialPolicy selects the centralized scheduler's next move.
	SequentialPolicy = core.SequentialPolicy

	// FlatGame is a token dropping game over a CSR graph — the
	// representation of the sharded engine, sized for 10⁶+ vertices.
	FlatGame = core.FlatInstance
	// FlatGameResult is the outcome of a sharded solve (final placement,
	// move log, stats); attach an instance with Solution() to verify it.
	FlatGameResult = core.FlatResult
	// ShardedGameOptions configure the sharded solvers.
	ShardedGameOptions = core.ShardedSolveOptions
)

// Tie-breaking rules for the distributed solvers.
const (
	TieFirstPort = core.TieFirstPort
	TieRandom    = core.TieRandom
)

// Sequential policies for SolveGameSequential.
const (
	PolicyFirst        = core.PolicyFirst
	PolicyRandom       = core.PolicyRandom
	PolicyHighestFirst = core.PolicyHighestFirst
	PolicyLowestFirst  = core.PolicyLowestFirst
)

// NewGame validates and builds a token dropping instance over g. level[v]
// is the layer of vertex v (every edge must join adjacent layers) and
// token[v] marks the initial token placement (at most one per vertex, by
// construction of the type).
func NewGame(g *Graph, level []int, token []bool) (*GameInstance, error) {
	return core.NewInstance(g, level, token)
}

// SolveGame runs the distributed proposal algorithm of Theorem 4.1 —
// O(L·Δ²) communication rounds — and returns the solution with run
// statistics.
func SolveGame(inst *GameInstance, opt GameOptions) (*GameSolution, GameStats, error) {
	return core.SolveProposal(inst, opt)
}

// SolveGame3Level runs the specialized algorithm of Theorem 4.7 for games
// on layers {0, 1, 2} — O(Δ) communication rounds. It returns an error on
// taller games.
func SolveGame3Level(inst *GameInstance, opt GameOptions) (*GameSolution, GameStats, error) {
	return core.SolveThreeLevel(inst, opt)
}

// SolveGameSequential plays the game with the centralized sequential
// algorithm of Section 4 under the given policy; rng is consulted only by
// PolicyRandom.
func SolveGameSequential(inst *GameInstance, policy SequentialPolicy, rng *rand.Rand) *GameSolution {
	return core.SolveSequential(inst, policy, rng)
}

// VerifyGame checks a solution against the three rules of Section 4:
// edge-disjoint traversals, unique destinations, and maximality.
func VerifyGame(sol *GameSolution) error { return core.Verify(sol) }

// ChainGame returns the single-slot cascade instance: a path with one
// vertex per level and tokens everywhere above level 0 — the Θ(L) worst
// case.
func ChainGame(levels int) *GameInstance { return core.Chain(levels) }

// Figure2Game returns the Figure 2 instance of the paper (13 vertices,
// layers 0–4).
func Figure2Game() *GameInstance { return core.Figure2() }

// RandomLayeredGame returns a seeded random layered instance.
func RandomLayeredGame(cfg LayeredConfig, rng *rand.Rand) *GameInstance {
	return core.RandomLayered(cfg, rng)
}

// BipartiteGame converts a bipartite graph (left vertices 0..numLeft-1)
// into the height-2 game of the Theorem 4.6 reduction: level-1 vertices
// hold tokens, level-0 vertices are empty, and solutions are maximal
// matchings.
func BipartiteGame(g *Graph, numLeft int) *GameInstance {
	return core.FromBipartite(g, numLeft)
}

// NewFlatGame converts an instance to the flat CSR representation of the
// sharded engine, preserving port numbering (deterministic runs are
// bit-identical across the two representations).
func NewFlatGame(inst *GameInstance) *FlatGame { return core.NewFlatInstance(inst) }

// SolveGameSharded runs the Theorem 4.1 proposal algorithm on the sharded
// flat engine — the runtime for million-node games. Under either tie rule
// the run is bit-identical to SolveGame on the same game.
func SolveGameSharded(fi *FlatGame, opt ShardedGameOptions) (*FlatGameResult, error) {
	return core.SolveProposalSharded(fi, opt)
}

// SolveGame3LevelSharded runs the Theorem 4.7 three-level algorithm on the
// sharded flat engine; it errors on games of height greater than 2.
func SolveGame3LevelSharded(fi *FlatGame, opt ShardedGameOptions) (*FlatGameResult, error) {
	return core.SolveThreeLevelSharded(fi, opt)
}

// RandomLayeredFlatGame builds a random layered instance directly in CSR
// form — the million-node counterpart of RandomLayeredGame.
func RandomLayeredFlatGame(cfg LayeredConfig, rng *rand.Rand) *FlatGame {
	return core.FlatRandomLayered(cfg, rng)
}

// LayeredGridGame builds the diagonal-lattice workload: rows layers of
// cols vertices (level = row), tokens on the top tokenRows rows.
func LayeredGridGame(rows, cols, tokenRows int) *FlatGame {
	return core.FlatLayeredGrid(rows, cols, tokenRows)
}

// PowerLawBipartiteGame builds the height-2 skewed-demand workload: nl
// customers on level 1 with power-law degrees (exponent alpha, max maxDeg),
// nr servers on level 0.
func PowerLawBipartiteGame(nl, nr int, alpha float64, maxDeg int, rng *rand.Rand) *FlatGame {
	return core.FlatPowerLawBipartite(nl, nr, alpha, maxDeg, rng)
}
