package tokendrop

import (
	"io"

	"tokendrop/internal/baseline"
	"tokendrop/internal/encode"
	"tokendrop/internal/lowerbound"
)

// Extras: serialization, the load-balancing contrast substrate of Section
// 2 (internal/baseline, beside the selfish-flip comparator) and the
// Section 6 lower-bound experiment, exposed through the facade.

type (
	// LoadState is an integer load vector over a graph's vertices.
	LoadState = baseline.State
	// BalanceResult reports a distributed load-balancing run.
	BalanceResult = baseline.Result
	// Indistinguishability is the Theorem 6.3 experiment report.
	Indistinguishability = lowerbound.Indistinguishability
)

// NewLoadState wraps a load vector over g (copied).
func NewLoadState(g *Graph, load []int) (*LoadState, error) {
	return baseline.NewState(g, load)
}

// BalanceLoads runs the locally-optimal load balancing dynamic (FHS15, the
// problem Section 2 contrasts token dropping against) until no unit move
// improves Σ load².
func BalanceLoads(s *LoadState, seed int64, maxRounds, workers int) (*BalanceResult, error) {
	return baseline.Balance(s, seed, maxRounds, workers)
}

// DumbbellLoads builds the bottleneck workload of the Section 2 argument:
// two path-connected groups joined by one bridge, all load on one side.
func DumbbellLoads(side, initial int) (*LoadState, error) {
	return baseline.Dumbbell(side, initial)
}

// SaveGame writes an instance as JSON.
func SaveGame(w io.Writer, inst *GameInstance) error { return encode.WriteInstance(w, inst) }

// LoadGame reads an instance from JSON.
func LoadGame(r io.Reader) (*GameInstance, error) { return encode.ReadInstance(r) }

// SaveSolution writes a solution (with its instance) as JSON.
func SaveSolution(w io.Writer, sol *GameSolution) error { return encode.WriteSolution(w, sol) }

// LoadSolution reads a solution from JSON; the result can be re-verified
// with VerifyGame.
func LoadSolution(r io.Reader) (*GameSolution, error) { return encode.ReadSolution(r) }

// RunIndistinguishability instantiates the Theorem 6.3 lower-bound
// experiment: a Δ-regular graph of girth ≥ 2t+2 versus a perfect Δ-ary
// tree, radius-t views compared both structurally and behaviourally on the
// simulator.
func RunIndistinguishability(reg *Graph, delta, radius int) (*Indistinguishability, error) {
	return lowerbound.RunIndistinguishability(reg, delta, radius)
}
