// Package assign implements the stable assignment algorithm of Section
// 7.2 (Theorem 7.3): every customer of a bipartite customer/server network
// must pick one adjacent server, and the result is stable when no customer
// can lower its server's load by switching. The algorithm generalizes the
// stable-orientation scheme of Section 5 — customers become hyperedges,
// token dropping runs on the hypergraph (package hypergame), and "flipping
// an edge" becomes moving a hyperedge's head — and runs in O(C·S⁴) rounds
// for customer degree C and server degree S (doc.go's Theorem 7.3 bound;
// Lemma 7.2 bounds the phases by C·S + 1).
//
// The same phase loop solves the k-bounded relaxation of Section 7.3
// (Options.K, ShardedOptions.K): all loads above a threshold k count the
// same, so a customer is unhappy only if its server has load ℓ and some
// adjacent server has load at most min(k, ℓ) - 2. The loop then runs on
// effective loads min(load, k) throughout. For k = 2, the 0–1–many
// version of Section 1.4, every phase's game has the three levels
// {0, 1, 2}, and the specialized hypergraph solver
// (hypergame.SolveThreeLevel) finishes it in O(S) rounds. That gives the
// Theorem 7.5 total of O(C·S²), a factor-S² improvement over the general
// problem's O(C·S⁴).
//
// The layer runs on both LOCAL runtimes: Solve on the seed object engine
// (this file), SolveSharded on the sharded flat engine (flat.go). Under
// first-port tie-breaking the two produce bit-identical runs, which the
// differential suite in this package asserts.
package assign

import (
	"fmt"
	"math"

	"tokendrop/internal/core"
	"tokendrop/internal/graph"
	"tokendrop/internal/hypergame"
)

// Options configure Solve.
type Options struct {
	// K is the load threshold of the k-bounded relaxation: 0 solves the
	// general problem, K ≥ 2 runs on effective loads min(load, K) and
	// plays games of at most three levels on the three-level solver.
	// K = 1 is rejected (the problem degenerates).
	K int
	// RandomTies randomizes proposal acceptance and the game's choices.
	RandomTies bool
	// Seed drives all randomized tie-breaking.
	Seed int64
	// Workers for the LOCAL runtime (0 = GOMAXPROCS).
	Workers int
	// CheckInvariants verifies the per-phase game solutions and the
	// badness/load invariants (the Section 7.2 analogues of Lemmas
	// 5.3–5.4).
	CheckInvariants bool
}

// PhaseRecord captures one phase for experiments.
type PhaseRecord = core.PhaseRecord

// Result is the outcome of Solve.
type Result struct {
	Assignment *graph.Assignment
	// K is the threshold the solve ran with (0 = unbounded).
	K      int
	Phases int
	// Rounds counts communication rounds on the adaptive schedule: two
	// per phase (load broadcast, accept notification) plus the game's
	// rounds on the customer/server incidence network.
	Rounds   int
	PhaseLog []PhaseRecord
}

// loadCap validates a threshold option and returns the level loads are
// truncated at: k itself for the k-bounded relaxation, math.MaxInt32 (no
// truncation) for the general problem (k = 0).
func loadCap(k int) (int32, error) {
	switch {
	case k == 0:
		return math.MaxInt32, nil
	case k < 2:
		return 0, fmt.Errorf("assign: threshold k = %d below 2", k)
	}
	return int32(min(k, math.MaxInt32)), nil
}

// Solve computes a stable assignment for b (k-bounded stable when
// opt.K > 0).
func Solve(b *graph.Bipartite, opt Options) (*Result, error) {
	k32, err := loadCap(opt.K)
	if err != nil {
		return nil, err
	}
	k := int(k32)
	for c := 0; c < b.NumLeft; c++ {
		if b.G.Degree(c) == 0 {
			return nil, fmt.Errorf("assign: customer %d has no adjacent server", c)
		}
	}
	// Lemma 7.2 bounds the phase count by C·S + 1; the loop aborts past
	// 4·C·S + 8, a margin that only non-termination crosses.
	cs := b.MaxCustomerDegree() * b.MaxServerDegree()
	var streams []uint64 // TieRandom streams, by network vertex: customer c, server NumLeft + s
	if opt.RandomTies {
		streams = make([]uint64, b.G.N())
		for v := range streams {
			streams[v] = core.TieSeed(opt.Seed, v)
		}
	}

	a := graph.NewAssignment(b)
	res := &Result{Assignment: a, K: opt.K}

	for phase := 1; !a.Complete(); phase++ {
		if phase > 4*cs+8 {
			return nil, fmt.Errorf("assign: phase %d exceeds the Lemma 7.2 budget (C·S=%d)", phase, cs)
		}
		rec := PhaseRecord{Phase: phase}

		// Step 1 — every unassigned customer proposes to the adjacent
		// server with the smallest effective load (ties to the smaller
		// id, or a draw per tied server in port order); one
		// load-broadcast round.
		proposalsTo := make(map[int][]int) // server -> customers
		for c := 0; c < b.NumLeft; c++ {
			if a.Assigned(c) {
				continue
			}
			rec.Proposals++
			best := -1
			for _, arc := range b.G.Adj(c) {
				if best < 0 || a.EffectiveLoad(arc.To, k) < a.EffectiveLoad(best, k) ||
					(a.EffectiveLoad(arc.To, k) == a.EffectiveLoad(best, k) && arc.To < best) {
					best = arc.To
				}
			}
			if streams != nil {
				least, n := a.EffectiveLoad(best, k), 0
				for _, arc := range b.G.Adj(c) {
					if a.EffectiveLoad(arc.To, k) == least {
						if n++; core.TieKeep(&streams[c], n) {
							best = arc.To
						}
					}
				}
			}
			proposalsTo[best] = append(proposalsTo[best], c)
		}

		// Step 2 — each server accepts exactly one proposal (under
		// RandomTies a draw per proposer in ascending id); one round.
		accepted := make(map[int]int) // customer -> server
		acceptedOrder := make([]int, 0, len(proposalsTo))
		token := make([]bool, b.NumServers())
		for s := b.NumLeft; s < b.G.N(); s++ {
			props := proposalsTo[s]
			if len(props) == 0 {
				continue
			}
			pick := props[0]
			if streams != nil {
				for i, c := range props {
					if core.TieKeep(&streams[s], i+1) {
						pick = c
					}
				}
			}
			accepted[pick] = s
			acceptedOrder = append(acceptedOrder, pick)
			token[s-b.NumLeft] = true
		}
		rec.Accepted = len(accepted)
		res.Rounds += 2

		// Step 3 — build the hypergraph game: server vertices with levels
		// = effective loads, hyperedges = assigned customers of badness
		// exactly 1 (heads = their servers), tokens at accepting servers.
		levels := make([]int, b.NumServers())
		for i := range levels {
			levels[i] = a.EffectiveLoad(b.NumLeft+i, k)
		}
		var hedges [][]int
		var heads []int
		var gameCustomer []int
		for c := 0; c < b.NumLeft; c++ {
			if !a.Assigned(c) || b.G.Degree(c) < 2 || a.KBadness(c, k) != 1 {
				continue
			}
			e := make([]int, 0, b.G.Degree(c))
			for _, arc := range b.G.Adj(c) {
				e = append(e, arc.To-b.NumLeft)
			}
			hedges = append(hedges, e)
			heads = append(heads, a.ServerOf[c]-b.NumLeft)
			gameCustomer = append(gameCustomer, c)
		}
		inst, err := hypergame.NewInstance(levels, token, hedges, heads)
		if err != nil {
			return nil, fmt.Errorf("assign: phase %d produced an invalid game: %w", phase, err)
		}
		rec.GameEdges = len(hedges)

		// Step 4 — play the game on the incidence network. A k-bounded
		// game of at most three levels (every k = 2 game) runs on the
		// specialized O(S)-round solver (Theorem 7.5).
		solveGame := hypergame.SolveProposal
		if opt.K > 0 && inst.Height() <= hypergame.ThreeLevelMaxLevel {
			solveGame = hypergame.SolveThreeLevel
		}
		sol, stats, err := solveGame(inst, hypergame.SolveOptions{
			RandomTies: opt.RandomTies,
			Seed:       opt.Seed + int64(phase)*1_000_003,
			Workers:    opt.Workers,
			MaxRounds:  1 << 20,
		})
		if err != nil {
			return nil, fmt.Errorf("assign: phase %d game failed: %w", phase, err)
		}
		if opt.CheckInvariants {
			if err := hypergame.Verify(sol); err != nil {
				return nil, fmt.Errorf("assign: phase %d game unverified: %w", phase, err)
			}
		}
		rec.GameRounds = stats.Rounds
		res.Rounds += stats.Rounds

		var loadsBefore []int
		if opt.CheckInvariants {
			loadsBefore = a.Loads()
		}

		// Step 5 — apply the moves: a token passed from u to v through
		// customer e moves e's head from u to v (reassignment).
		for _, mv := range sol.Moves {
			c := gameCustomer[mv.Edge]
			a.Reassign(c, b.NumLeft+mv.To)
			rec.TokensMoved++
		}
		// Step 6 — assign the accepted customers.
		for _, c := range acceptedOrder {
			a.Assign(c, accepted[c])
		}

		if opt.CheckInvariants {
			if err := checkPhaseInvariants(b, a, loadsBefore, sol, k); err != nil {
				return nil, fmt.Errorf("assign: phase %d: %w", phase, err)
			}
		}
		rec.MaxBadness = maxKBadness(a, k)
		res.PhaseLog = append(res.PhaseLog, rec)
		res.Phases = phase
	}
	return res, nil
}

// maxKBadness returns the maximum badness on effective loads
// min(load, k) over the assigned customers.
func maxKBadness(a *graph.Assignment, k int) int {
	max := 0
	for c := 0; c < a.B.NumLeft; c++ {
		if a.Assigned(c) {
			if kb := a.KBadness(c, k); kb > max {
				max = kb
			}
		}
	}
	return max
}

// checkPhaseInvariants enforces the Section 7.2 analogues of Lemmas 5.3
// and 5.4: server loads grow by exactly one at token destinations and stay
// put elsewhere, and no assigned customer has badness (on effective loads)
// above 1 at the end of a phase.
func checkPhaseInvariants(b *graph.Bipartite, a *graph.Assignment, loadsBefore []int, sol *hypergame.Solution, k int) error {
	isDest := make([]bool, b.NumServers())
	for _, tr := range sol.Traversals() {
		isDest[tr.Destination()] = true
	}
	for s := b.NumLeft; s < b.G.N(); s++ {
		want := loadsBefore[s]
		if isDest[s-b.NumLeft] {
			want++
		}
		if a.Load(s) != want {
			return fmt.Errorf("lemma 5.3 analogue violated at server %d: load %d -> %d, destination=%v",
				s, loadsBefore[s], a.Load(s), isDest[s-b.NumLeft])
		}
	}
	if mb := maxKBadness(a, k); mb > 1 {
		return fmt.Errorf("lemma 5.4 analogue violated: max badness %d", mb)
	}
	return a.CheckLoads()
}

// ReduceToMatching applies the Theorem 7.4 post-processing to a 2-bounded
// stable assignment: interpret customer-to-server assignments as a
// preliminary matching, and let every server with two or more assigned
// customers keep exactly one (the smallest-numbered). The proof of
// Theorem 7.4 shows the result is a maximal matching of the bipartite
// graph; matchOf maps every vertex to its partner or -1.
func ReduceToMatching(a *graph.Assignment) (matchOf []int) {
	b := a.B
	matchOf = make([]int, b.G.N())
	for v := range matchOf {
		matchOf[v] = -1
	}
	for c := 0; c < b.NumLeft; c++ {
		s := a.ServerOf[c]
		if s < 0 {
			continue
		}
		if matchOf[s] < 0 { // server keeps its first (smallest) customer
			matchOf[s] = c
			matchOf[c] = s
		}
	}
	return matchOf
}
