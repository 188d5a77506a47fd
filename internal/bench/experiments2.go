package bench

import (
	"errors"
	"fmt"
	"math/rand"

	"tokendrop/internal/assign"
	"tokendrop/internal/baseline"
	"tokendrop/internal/graph"
	"tokendrop/internal/matching"
	"tokendrop/internal/semimatch"
)

// E10 (Theorems 7.1, 7.3): stable assignment sweeps over customer degree C
// and server degree S.
func E10AssignSweeps(p Profile) []*Table {
	cTable := &Table{
		ID:      "E10a",
		Title:   "Stable assignment vs customer degree C at bounded S",
		Claim:   "O(C·S) phases (Lemma 7.2) and O(C·S⁴) rounds (Theorem 7.3)",
		Columns: []string{"C", "S", "customers", "phases", "C·S+1", "rounds", "stable"},
	}
	cs := []int{2, 3, 4, 6}
	if p.Quick {
		cs = []int{2, 4}
	}
	for _, c := range cs {
		rng := rand.New(rand.NewSource(p.Seed + int64(c)))
		nl, nr := 24, 12
		g := graph.RandomBipartite(nl, nr, c, rng)
		b := graph.MustBipartite(g, nl)
		res, err := assign.Solve(b, assign.Options{Seed: p.Seed, CheckInvariants: true})
		if err != nil {
			cTable.AddRow(c, "-", nl, "-", "-", "-", "error: "+err.Error())
			continue
		}
		cMax, sMax := b.MaxCustomerDegree(), b.MaxServerDegree()
		cTable.AddRow(cMax, sMax, nl, res.Phases, cMax*sMax+1, res.Rounds, mark(res.Assignment.Stable()))
	}

	sTable := &Table{
		ID:      "E10b",
		Title:   "Stable assignment vs server degree S at fixed C",
		Claim:   "rounds grow polynomially in S, phases stay within C·S+1 (Lemma 7.2)",
		Columns: []string{"C", "S", "customers", "phases", "rounds", "stable"},
	}
	srv := []int{4, 6, 9, 12}
	if p.Quick {
		srv = []int{4, 8}
	}
	const c = 3
	for _, s := range srv {
		rng := rand.New(rand.NewSource(p.Seed + int64(s)))
		// Regular bipartite: nl·c = nr·s.
		nr := 12
		nl := nr * s / c
		if nl*c != nr*s {
			nl = nr * s
			nr = nr * c
			// fall back to a simple ratio; keep degrees exact
			nl, nr = s*4, c*4
		}
		g := graph.RandomBipartiteRegular(nl, nr, c, s, rng)
		b := graph.MustBipartite(g, nl)
		res, err := assign.Solve(b, assign.Options{Seed: p.Seed, CheckInvariants: true})
		if err != nil {
			sTable.AddRow(c, s, nl, "-", "-", "error: "+err.Error())
			continue
		}
		sTable.AddRow(b.MaxCustomerDegree(), b.MaxServerDegree(), nl, res.Phases, res.Rounds,
			mark(res.Assignment.Stable()))
	}
	return []*Table{cTable, sTable}
}

// E11 (Theorem 7.4): 2-bounded stable assignment reduces to maximal
// matching.
func E11BoundedToMatching(p Profile) *Table {
	t := &Table{
		ID:      "E11",
		Title:   "2-bounded stable assignment ⇒ maximal matching (Theorem 7.4 reduction)",
		Claim:   "the post-processed assignment is a maximal matching, so the MM lower bound transfers",
		Columns: []string{"n_left", "n_right", "C", "phases", "rounds", "matching maximal"},
	}
	cases := []struct{ nl, nr, c int }{{12, 8, 2}, {24, 10, 3}, {48, 16, 4}, {96, 32, 5}}
	if p.Quick {
		cases = cases[:2]
	}
	for i, tc := range cases {
		rng := rand.New(rand.NewSource(p.Seed + int64(i)))
		g := graph.RandomBipartite(tc.nl, tc.nr, tc.c, rng)
		b := graph.MustBipartite(g, tc.nl)
		res, err := assign.Solve(b, assign.Options{K: 2, Seed: p.Seed, CheckInvariants: true})
		if err != nil {
			t.AddRow(tc.nl, tc.nr, tc.c, "-", "-", "error: "+err.Error())
			continue
		}
		matchOf := assign.ReduceToMatching(res.Assignment)
		t.AddRow(tc.nl, tc.nr, tc.c, res.Phases, res.Rounds,
			mark(matching.VerifyMaximal(b, matchOf) == nil))
	}
	return t
}

// E12 (Theorem 7.5): the 2-bounded relaxation is much faster than the
// general stable assignment as S grows.
func E12BoundedSweep(p Profile) *Table {
	t := &Table{
		ID:      "E12",
		Title:   "2-bounded relaxation vs general stable assignment (S sweep)",
		Claim:   "relaxed: O(C·S²) rounds (Theorem 7.5); general: O(C·S⁴) (Theorem 7.3) — the gap grows with S",
		Columns: []string{"C", "S", "bounded rounds", "general rounds", "general/bounded"},
	}
	srv := []int{4, 6, 9, 12, 15}
	if p.Quick {
		srv = []int{4, 8}
	}
	const c = 3
	var xs, ys []float64
	for _, s := range srv {
		rng := rand.New(rand.NewSource(p.Seed + int64(s)))
		nl, nr := s*4, c*4
		g := graph.RandomBipartiteRegular(nl, nr, c, s, rng)
		b := graph.MustBipartite(g, nl)
		rb, err1 := assign.Solve(b, assign.Options{K: 2, Seed: p.Seed})
		ra, err2 := assign.Solve(b, assign.Options{Seed: p.Seed})
		if err := errors.Join(err1, err2); err != nil {
			t.AddRow(b.MaxCustomerDegree(), b.MaxServerDegree(), "-", "-", "error: "+err.Error())
			continue
		}
		ratio := float64(ra.Rounds) / float64(rb.Rounds)
		t.AddRow(b.MaxCustomerDegree(), b.MaxServerDegree(), rb.Rounds, ra.Rounds, ratio)
		xs = append(xs, float64(b.MaxServerDegree()))
		ys = append(ys, float64(rb.Rounds))
	}
	t.Notes = append(t.Notes, fmt.Sprintf("bounded rounds ~ S^%.2f (theorem envelope: ≤ 2 in S)", FitPowerLaw(xs, ys)))
	return t
}

// E13 (§1.3): stable assignments 2-approximate the optimal semi-matching.
func E13SemimatchApprox(p Profile) *Table {
	t := &Table{
		ID:      "E13",
		Title:   "Stable assignment vs exact optimal semi-matching",
		Claim:   "a stable assignment is a factor-2 approximation of the optimal semi-matching (§1.3, CHSW12)",
		Columns: []string{"workload", "customers", "servers", "stable cost", "optimal cost", "ratio", "≤ 2"},
	}
	type wl struct {
		name       string
		nl, nr, c  int
		regular    bool
		regularDeg int
	}
	cases := []wl{
		{"uniform random", 30, 10, 3, false, 0},
		{"skewed (few servers)", 40, 5, 2, false, 0},
		{"regular", 24, 8, 2, true, 6},
		{"dense choice", 20, 10, 6, false, 0},
	}
	if p.Quick {
		cases = cases[:2]
	}
	for i, tc := range cases {
		rng := rand.New(rand.NewSource(p.Seed + int64(i)))
		var g *graph.Graph
		if tc.regular {
			g = graph.RandomBipartiteRegular(tc.nl, tc.nr, tc.c, tc.regularDeg, rng)
		} else {
			g = graph.RandomBipartite(tc.nl, tc.nr, tc.c, rng)
		}
		b := graph.MustBipartite(g, tc.nl)
		res, err := assign.Solve(b, assign.Options{Seed: p.Seed, CheckInvariants: true})
		if err != nil {
			t.AddRow(tc.name, tc.nl, tc.nr, "-", "-", "-", "error: "+err.Error())
			continue
		}
		ratio, opt, err := semimatch.ApproxRatio(res.Assignment)
		if err != nil {
			t.AddRow(tc.name, tc.nl, tc.nr, "-", "-", "-", "error: "+err.Error())
			continue
		}
		t.AddRow(tc.name, tc.nl, tc.nr, res.Assignment.SemimatchingCost(), opt, ratio, mark(ratio <= 2.0))
	}
	return t
}

// E14 (§1.1): the centralized sequential algorithm — termination via the
// potential, and flip counts across sizes.
func E14SequentialGreedy(p Profile) *Table {
	t := &Table{
		ID:      "E14",
		Title:   "Centralized sequential greedy (§1.1): flips and potential descent",
		Claim:   "Σ indegree² strictly decreases per flip, so the greedy terminates in polynomial time",
		Columns: []string{"graph", "n", "m", "initial Φ", "final Φ", "flips", "stable"},
	}
	type wl struct {
		name string
		g    *graph.Graph
	}
	rng := rand.New(rand.NewSource(p.Seed))
	cases := []wl{
		{"star K1,16", graph.Star(16)},
		{"random n=40 m=120", graph.RandomGNM(40, 120, rng)},
		{"random n=80 m=320", graph.RandomGNM(80, 320, rng)},
		{"caterpillar 40x2", graph.Caterpillar(40, 2)},
	}
	if p.Quick {
		cases = cases[:2]
	}
	for _, tc := range cases {
		o := baseline.OrientAll(tc.g, baseline.InitRandom, rng)
		res := baseline.SequentialGreedy(o, baseline.FlipFirst, nil)
		t.AddRow(tc.name, tc.g.N(), tc.g.M(), res.InitialPotential, res.FinalPotential,
			res.Flips, mark(res.Orientation.Stable()))
	}
	return t
}

// All runs every experiment and returns the tables in index order:
// E1–E14 reproduce the paper's figures and theorems, E15–E21 are the
// ablations and open-question probes, E22–E24 certify seed-vs-sharded
// engine parity and speedups for the game, orientation, and assignment
// layers, E25 sweeps the sharded engine's worker count, E26 sweeps it
// across whole phase-loop solves (parallel central steps included), and
// E28 races the assignment strategies across the arena's workload
// families (internal/arena), and E29 records the multi-process
// transport's deterministic per-round wire cost (internal/mp).
func All(p Profile) []*Table {
	var out []*Table
	out = append(out, E1StableOrientationExamples(p))
	out = append(out, E2TokenDroppingFigure2(p))
	out = append(out, E3TraversalTails(p))
	out = append(out, E4ProposalDeltaSweep(p))
	out = append(out, E4ProposalLevelSweep(p))
	out = append(out, E5Height2Matching(p))
	out = append(out, E6ThreeLevelSweep(p))
	out = append(out, E7OrientDeltaSweep(p))
	out = append(out, E8OrientVsBaseline(p)...)
	out = append(out, E9LowerBound(p))
	out = append(out, E10AssignSweeps(p)...)
	out = append(out, E11BoundedToMatching(p))
	out = append(out, E12BoundedSweep(p))
	out = append(out, E13SemimatchApprox(p))
	out = append(out, E14SequentialGreedy(p))
	out = append(out, E15LoadBalancingContrast(p))
	out = append(out, E16HeightGapAblation(p))
	out = append(out, E17ThresholdSweep(p))
	out = append(out, E18TieBreakAblation(p))
	out = append(out, E19ScheduleAblation(p))
	out = append(out, E20RuntimeScaling(p))
	out = append(out, E21MessageSizes(p))
	out = append(out, E22ShardedEngine(p))
	out = append(out, E23OrientSharded(p))
	out = append(out, E24AssignSharded(p))
	out = append(out, E25ShardScaling(p))
	out = append(out, E26CentralStepScaling(p))
	out = append(out, E28ArenaPareto(p))
	out = append(out, E29WireCost(p))
	return out
}
