package bench

import (
	"errors"
	"fmt"
	"math/rand"

	"tokendrop/internal/baseline"
	"tokendrop/internal/core"
	"tokendrop/internal/graph"
	"tokendrop/internal/lowerbound"
	"tokendrop/internal/matching"
	"tokendrop/internal/orient"
)

// E1 (Figure 1): stable orientations on small example graphs — every edge
// happy, loads balanced by the selfish criterion.
func E1StableOrientationExamples(p Profile) *Table {
	t := &Table{
		ID:      "E1",
		Title:   "Stable orientations on Figure 1-style examples",
		Claim:   "an orientation is stable iff every edge (u,v) has indegree(v) ≤ indegree(u)+1 (§1.1)",
		Columns: []string{"graph", "n", "m", "Δ", "phases", "rounds", "max load", "stable"},
	}
	cases := []struct {
		name string
		g    *graph.Graph
	}{
		{"cycle C6", graph.Cycle(6)},
		{"path P7", graph.Path(7)},
		{"star K1,6", graph.Star(6)},
		{"grid 3x3", graph.Grid2D(3, 3)},
		{"complete K5", graph.Complete(5)},
		{"petersen-ish 3-reg", graph.RandomRegular(10, 3, rand.New(rand.NewSource(p.Seed+1)))},
	}
	for _, tc := range cases {
		res, err := orient.Solve(tc.g, orient.Options{Seed: p.Seed, CheckInvariants: true})
		if err != nil {
			t.AddRow(tc.name, tc.g.N(), tc.g.M(), tc.g.MaxDegree(), "-", "-", "-", "error: "+err.Error())
			continue
		}
		maxLoad := 0
		for v := 0; v < tc.g.N(); v++ {
			if l := res.Orientation.Load(v); l > maxLoad {
				maxLoad = l
			}
		}
		t.AddRow(tc.name, tc.g.N(), tc.g.M(), tc.g.MaxDegree(),
			res.Phases, res.Rounds, maxLoad, mark(res.Orientation.Stable()))
	}
	return t
}

// E2 (Figure 2): the token dropping game on the Figure 2 instance —
// feasible terminal configurations and the paths tokens followed.
func E2TokenDroppingFigure2(p Profile) *Table {
	t := &Table{
		ID:      "E2",
		Title:   "Token dropping on the Figure 2 instance (13 nodes, 5 layers)",
		Claim:   "the game reaches a stuck configuration with edge-disjoint, maximal traversals (§4)",
		Columns: []string{"solver", "rounds", "moves", "token paths (origin→…→destination)"},
	}
	inst := core.Figure2()
	runs := []struct {
		name string
		sol  *core.Solution
	}{
		{"sequential (first)", core.SolveSequential(inst, core.PolicyFirst, nil)},
		{"sequential (lowest-first)", core.SolveSequential(inst, core.PolicyLowestFirst, nil)},
	}
	dist, _, err := core.SolveProposal(inst, core.SolveOptions{Seed: p.Seed, MaxRounds: 1 << 16})
	if err == nil {
		runs = append(runs, struct {
			name string
			sol  *core.Solution
		}{"distributed proposal", dist})
	}
	for _, r := range runs {
		verified := core.Verify(r.sol) == nil
		paths := ""
		for i, tr := range r.sol.Traversals() {
			if i > 0 {
				paths += " "
			}
			paths += pathString(tr.Path)
		}
		if !verified {
			paths = "UNVERIFIED " + paths
		}
		t.AddRow(r.name, r.sol.Rounds, len(r.sol.Moves), paths)
	}
	if err != nil {
		t.AddRow("distributed proposal", "-", "-", "error: "+err.Error())
	}
	return t
}

func pathString(path []int) string {
	s := ""
	for i, v := range path {
		if i > 0 {
			s += "→"
		}
		s += fmt.Sprint(v)
	}
	return s
}

// E3 (Figure 3 / Definition 4.3): traversals, tails, extended traversals.
func E3TraversalTails(p Profile) *Table {
	t := &Table{
		ID:      "E3",
		Title:   "Traversals and their tails (Definition 4.3, Figure 3)",
		Claim:   "the extended traversal p* = traversal + tail is well-defined and level-descending",
		Columns: []string{"instance", "token", "traversal", "tail", "extended"},
	}
	g := graph.Path(4)
	inst := core.MustInstance(g, []int{0, 1, 2, 3}, []bool{false, false, true, true})
	for name, sol := range map[string]*core.Solution{
		"cascade path": core.SolveSequential(inst, core.PolicyLowestFirst, nil),
	} {
		for _, tr := range sol.Traversals() {
			t.AddRow(name, tr.Origin(), pathString(tr.Path), pathString(sol.Tail(tr)), pathString(sol.ExtendedTraversal(tr)))
		}
	}
	fig := core.Figure2()
	sol := core.SolveSequential(fig, core.PolicyHighestFirst, nil)
	for _, tr := range sol.Traversals() {
		t.AddRow("figure 2", tr.Origin(), pathString(tr.Path), pathString(sol.Tail(tr)), pathString(sol.ExtendedTraversal(tr)))
	}
	return t
}

// E4a (Theorem 4.1): proposal-algorithm rounds as Δ grows at fixed L.
func E4ProposalDeltaSweep(p Profile) *Table {
	t := &Table{
		ID:      "E4a",
		Title:   "Token dropping rounds vs Δ at fixed height (proposal algorithm)",
		Claim:   "O(L·Δ²) rounds (Theorem 4.1); Lemma 4.4 caps active-unoccupied rounds at O(Δ²)",
		Columns: []string{"Δ", "L", "n", "rounds", "bound 8LΔ²", "maxActive", "Δ²"},
	}
	degrees := []int{2, 3, 4, 6, 8, 12}
	if p.Quick {
		degrees = []int{2, 4, 8}
	}
	const L = 4
	var xs, ys []float64
	for _, d := range degrees {
		rng := rand.New(rand.NewSource(p.Seed + int64(d)))
		cfg := core.LayeredConfig{Levels: L, Width: 3 * d, ParentDeg: d, TokenProb: 0.8, FreeBottom: true}
		inst := core.RandomLayered(cfg, rng)
		delta := inst.MaxDegree()
		_, stats, err := core.SolveProposal(inst, core.SolveOptions{Seed: p.Seed, MaxRounds: 1 << 20})
		if err != nil {
			t.AddRow(delta, L, inst.N(), "error", "-", "-", "-")
			continue
		}
		t.AddRow(delta, L, inst.N(), stats.Rounds, 8*(L+1)*delta*delta, stats.MaxActiveUnoccupied, delta*delta)
		xs = append(xs, float64(delta))
		ys = append(ys, float64(stats.Rounds))
	}
	t.Notes = append(t.Notes, fmt.Sprintf("fitted rounds ~ Δ^%.2f (worst-case bound is Δ^2; random instances are easier)", FitPowerLaw(xs, ys)))
	return t
}

// E4b (Theorem 4.1): rounds as L grows at fixed Δ, on the adversarial
// single-slot chain (exactly Θ(L) forced sequential steps).
func E4ProposalLevelSweep(p Profile) *Table {
	t := &Table{
		ID:      "E4b",
		Title:   "Token dropping rounds vs height L at fixed Δ",
		Claim:   "rounds grow linearly in L on the cascade chain; O(L·Δ²) overall (Theorem 4.1)",
		Columns: []string{"workload", "L", "Δ", "rounds", "rounds/L"},
	}
	levels := []int{4, 8, 16, 32, 64}
	if p.Quick {
		levels = []int{4, 16, 64}
	}
	var xs, ys []float64
	for _, L := range levels {
		inst := core.Chain(L)
		_, stats, err := core.SolveProposal(inst, core.SolveOptions{MaxRounds: 1 << 20})
		if err != nil {
			t.AddRow("chain", L, inst.MaxDegree(), "error: "+err.Error(), "-")
			continue
		}
		t.AddRow("chain", L, inst.MaxDegree(), stats.Rounds, float64(stats.Rounds)/float64(L))
		xs = append(xs, float64(L))
		ys = append(ys, float64(stats.Rounds))
	}
	for _, L := range levels {
		rng := rand.New(rand.NewSource(p.Seed + int64(L)))
		cfg := core.LayeredConfig{Levels: L, Width: 8, ParentDeg: 3, TokenProb: 0.8, FreeBottom: true}
		inst := core.RandomLayered(cfg, rng)
		_, stats, err := core.SolveProposal(inst, core.SolveOptions{Seed: p.Seed, MaxRounds: 1 << 20})
		if err != nil {
			t.AddRow("random layered", L, inst.MaxDegree(), "error: "+err.Error(), "-")
			continue
		}
		t.AddRow("random layered", L, inst.MaxDegree(), stats.Rounds, float64(stats.Rounds)/float64(L))
	}
	t.Notes = append(t.Notes, fmt.Sprintf("chain: rounds ~ L^%.2f (expected exponent 1.0)", FitPowerLaw(xs, ys)))
	return t
}

// E5 (Theorem 4.6): height-2 token dropping is bipartite maximal matching.
func E5Height2Matching(p Profile) *Table {
	t := &Table{
		ID:      "E5",
		Title:   "Height-2 games solve bipartite maximal matching (the Theorem 4.6 reduction, forwards)",
		Claim:   "token dropping inherits the Ω(Δ + log n/log log n) maximal matching lower bound (Theorem 4.6)",
		Columns: []string{"n_left", "n_right", "Δ", "game rounds", "direct MM rounds", "matching maximal"},
	}
	sizes := []struct{ nl, nr, c int }{{10, 10, 3}, {20, 15, 4}, {40, 25, 6}, {80, 50, 8}}
	if p.Quick {
		sizes = sizes[:2]
	}
	for i, sz := range sizes {
		rng := rand.New(rand.NewSource(p.Seed + int64(i)))
		bg := graph.RandomBipartite(sz.nl, sz.nr, sz.c, rng)
		b := graph.MustBipartite(bg, sz.nl)
		inst := core.FromBipartite(bg, sz.nl)
		delta := bg.MaxDegree()
		sol, stats, err := core.SolveProposal(inst, core.SolveOptions{Seed: p.Seed, MaxRounds: 1 << 20})
		if err != nil {
			t.AddRow(sz.nl, sz.nr, delta, "error: "+err.Error(), "-", "-")
			continue
		}
		// Convert traversals to a matching and verify maximality.
		matchOf := make([]int, bg.N())
		for v := range matchOf {
			matchOf[v] = -1
		}
		for _, tr := range sol.Traversals() {
			if len(tr.Path) == 2 {
				matchOf[tr.Path[0]] = tr.Path[1]
				matchOf[tr.Path[1]] = tr.Path[0]
			}
		}
		maximal := matching.VerifyMaximal(b, matchOf) == nil
		mm, err := matching.Solve(b, 1<<20, 0)
		if err != nil {
			t.AddRow(sz.nl, sz.nr, delta, stats.Rounds, "error: "+err.Error(), mark(maximal))
			continue
		}
		t.AddRow(sz.nl, sz.nr, delta, stats.Rounds, mm.Rounds, mark(maximal))
	}
	return t
}

// E6 (Theorem 4.7): the 3-level specialized algorithm runs in O(Δ) rounds
// while the generic proposal algorithm may spend ~Δ² on the same games.
func E6ThreeLevelSweep(p Profile) *Table {
	t := &Table{
		ID:      "E6",
		Title:   "3-level games: specialized O(Δ) vs generic O(Δ²) (Theorem 4.7)",
		Claim:   "the specialized algorithm's rounds grow linearly in Δ; the factor-Δ gap to the generic algorithm grows",
		Columns: []string{"Δ", "n", "3lvl rounds", "generic rounds", "3lvl/Δ", "generic/3lvl"},
	}
	degrees := []int{2, 4, 8, 12, 16}
	if p.Quick {
		degrees = []int{2, 4, 8}
	}
	var xs, ys []float64
	for _, d := range degrees {
		rng := rand.New(rand.NewSource(p.Seed + int64(d)))
		inst := core.ThreeLevelRandom(3*d, 3*d, d, 0.5, rng)
		delta := inst.MaxDegree()
		_, st3, err3 := core.SolveThreeLevel(inst, core.SolveOptions{Seed: p.Seed, MaxRounds: 1 << 20})
		_, stg, errg := core.SolveProposal(inst, core.SolveOptions{Seed: p.Seed, MaxRounds: 1 << 20})
		if err := errors.Join(err3, errg); err != nil {
			t.AddRow(delta, inst.N(), "-", "-", "-", "error: "+err.Error())
			continue
		}
		t.AddRow(delta, inst.N(), st3.Rounds, stg.Rounds,
			float64(st3.Rounds)/float64(delta), float64(stg.Rounds)/float64(st3.Rounds))
		xs = append(xs, float64(delta))
		ys = append(ys, float64(st3.Rounds))
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("specialized: rounds ~ Δ^%.2f (Theorem 4.7 predicts exponent ≤ 1)", FitPowerLaw(xs, ys)),
		"random instances keep both algorithms far below their worst cases; the bounds differ (Δ vs Δ²), the averages need not")
	return t
}

// E7 (Theorem 5.1 + Lemmas 5.4, 5.5): stable orientation sweep over Δ.
func E7OrientDeltaSweep(p Profile) *Table {
	t := &Table{
		ID:      "E7",
		Title:   "Stable orientation vs Δ (Theorem 5.1)",
		Claim:   "O(Δ) phases (Lemma 5.5), badness ≤ 1 at phase ends (Lemma 5.4), O(Δ⁴) worst-case rounds",
		Columns: []string{"Δ", "n", "phases", "2Δ+2", "rounds", "worst-case bound", "badness ≤ 1", "stable"},
	}
	degrees := []int{2, 3, 4, 6, 8, 10}
	if p.Quick {
		degrees = []int{2, 4, 6}
	}
	for _, d := range degrees {
		rng := rand.New(rand.NewSource(p.Seed + int64(d)))
		n := 6 * d
		if n*d%2 != 0 {
			n++
		}
		g := graph.RandomRegular(n, d, rng)
		res, err := orient.Solve(g, orient.Options{Seed: p.Seed, CheckInvariants: true})
		if err != nil {
			t.AddRow(d, n, "-", "-", "-", "-", "error", err.Error())
			continue
		}
		badOK := true
		for _, rec := range res.PhaseLog {
			if rec.MaxBadness > 1 {
				badOK = false
			}
		}
		t.AddRow(d, n, res.Phases, 2*d+2, res.Rounds, res.WorstCaseRounds,
			mark(badOK), mark(res.Orientation.Stable()))
	}
	return t
}

// E8 (§1.1, §2): the paper's algorithm vs the CHSW12-class selfish-flip
// dynamic and the sequential greedy, across Δ and across n.
func E8OrientVsBaseline(p Profile) []*Table {
	degree := &Table{
		ID:      "E8a",
		Title:   "Ours vs selfish-flip dynamic vs sequential greedy (degree sweep)",
		Claim:   "careful incremental orientation beats arbitrary-start repair (§1.2 'New ideas')",
		Columns: []string{"Δ", "n", "ours rounds", "selfish rounds", "selfish flips", "greedy flips"},
	}
	degrees := []int{3, 4, 6, 8}
	if p.Quick {
		degrees = []int{3, 6}
	}
	for _, d := range degrees {
		rng := rand.New(rand.NewSource(p.Seed + int64(d)))
		n := 8 * d
		if n*d%2 != 0 {
			n++
		}
		g := graph.RandomRegular(n, d, rng)
		ours, err := orient.Solve(g, orient.Options{Seed: p.Seed})
		if err != nil {
			degree.AddRow(d, n, "error: "+err.Error(), "-", "-", "-")
			continue
		}
		init := baseline.OrientAll(g, baseline.InitTowardHigherID, nil)
		selfish, err := baseline.SelfishFlips(init, p.Seed, 1<<20, 0)
		if err != nil {
			degree.AddRow(d, n, ours.Rounds, "error: "+err.Error(), "-", "-")
			continue
		}
		greedy := baseline.SequentialGreedy(init.Clone(), baseline.FlipFirst, nil)
		degree.AddRow(d, n, ours.Rounds, selfish.Rounds, selfish.Flips, greedy.Flips)
	}

	size := &Table{
		ID:      "E8b",
		Title:   "Round counts as the graph grows at fixed Δ",
		Claim:   "the distributed round count is independent of n (§1.1); the baselines' total work grows with the graph",
		Columns: []string{"n", "Δ", "ours rounds", "selfish rounds", "selfish flips", "greedy flips"},
	}
	sizes := []int{16, 64, 256}
	if p.Quick {
		sizes = []int{16, 64}
	}
	for _, n := range sizes {
		rng := rand.New(rand.NewSource(p.Seed + int64(n)))
		g := graph.RandomRegular(n, 4, rng)
		ours, err := orient.Solve(g, orient.Options{Seed: p.Seed})
		if err != nil {
			size.AddRow(n, 4, "error: "+err.Error(), "-", "-", "-")
			continue
		}
		init := baseline.OrientAll(g, baseline.InitRandom, rng)
		selfish, err := baseline.SelfishFlips(init, p.Seed, 1<<20, 0)
		if err != nil {
			size.AddRow(n, 4, ours.Rounds, "error: "+err.Error(), "-", "-")
			continue
		}
		greedy := baseline.SequentialGreedy(init.Clone(), baseline.FlipFirst, nil)
		size.AddRow(n, 4, ours.Rounds, selfish.Rounds, selfish.Flips, greedy.Flips)
	}
	return []*Table{degree, size}
}

// E9 (Theorem 6.3, Lemmas 6.1–6.2): the lower-bound constructions.
func E9LowerBound(p Profile) *Table {
	t := &Table{
		ID:      "E9",
		Title:   "Ω(Δ) lower bound constructions (Section 6)",
		Claim:   "isomorphic t-views force equal outputs, but stability demands indegree ≥ ⌈Δ/2⌉ in G1 and ≤ ⌈Δ/2⌉-1 in G2",
		Columns: []string{"Δ", "t", "girth", "balls iso", "views equal", "forced indeg", "tree cap", "contradiction"},
	}
	deltas := []int{8, 10, 12}
	if p.Quick {
		deltas = []int{8, 10}
	}
	for _, d := range deltas {
		reg := graph.CompleteBipartite(d, d) // d-regular, girth 4 ≥ 2t+2 for t=1
		rep, err := lowerbound.RunIndistinguishability(reg, d, 1)
		if err != nil {
			t.AddRow(d, 1, "-", "-", "-", "-", "-", "error: "+err.Error())
			continue
		}
		t.AddRow(d, rep.Radius, rep.Girth, mark(rep.BallsMatch), mark(rep.ViewsMatch),
			rep.RegularForce, rep.TreeCap, mark(rep.Contradicts()))
	}
	// Lemma verification on actual solver outputs.
	rng := rand.New(rand.NewSource(p.Seed))
	tree, _ := graph.PerfectDAry(4, 4)
	resTree, errTree := orient.Solve(tree, orient.Options{Seed: p.Seed})
	if errTree == nil {
		t.Notes = append(t.Notes, fmt.Sprintf("Lemma 6.1 on solver output (perfect 4-ary tree): %s",
			mark(lowerbound.CheckLemma61(resTree.Orientation) == nil)))
	}
	reg := graph.RandomRegular(24, 6, rng)
	resReg, errReg := orient.Solve(reg, orient.Options{Seed: p.Seed})
	if errReg == nil {
		_, err := lowerbound.CheckLemma62(resReg.Orientation, 6)
		t.Notes = append(t.Notes, fmt.Sprintf("Lemma 6.2 on solver output (6-regular): %s", mark(err == nil)))
	}
	return t
}
