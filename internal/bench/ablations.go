package bench

import (
	"fmt"
	"math/rand"
	"time"

	"tokendrop/internal/assign"
	"tokendrop/internal/baseline"
	"tokendrop/internal/core"
	"tokendrop/internal/graph"
	"tokendrop/internal/orient"
)

// E15 (§2): single-use edges vs free movement — token dropping gets stuck
// after crossing a bottleneck once; locally optimal load balancing pays
// for every unit.
func E15LoadBalancingContrast(p Profile) *Table {
	t := &Table{
		ID:      "E15",
		Title:   "Bottleneck: token dropping vs locally optimal load balancing (FHS15)",
		Claim:   "single-use edges make token dropping strictly easier: balancing cost grows with the load, the game's does not (§2)",
		Columns: []string{"initial load", "balance rounds", "unit moves", "game rounds", "game moves"},
	}
	loads := []int{4, 8, 16, 32, 64}
	if p.Quick {
		loads = []int{4, 16}
	}
	var xs, ys []float64
	for _, initial := range loads {
		st, err := baseline.Dumbbell(4, initial)
		if err != nil {
			t.AddRow(initial, "error: "+err.Error(), "-", "-", "-")
			continue
		}
		res, err := baseline.Balance(st, p.Seed, 1<<22, 0)
		if err != nil {
			t.AddRow(initial, "error: "+err.Error(), "-", "-", "-")
			continue
		}
		// The analogous game: the same initial surplus as tokens on the
		// top of a two-layer bottleneck; each token can cross once.
		rng := rand.New(rand.NewSource(p.Seed))
		inst := core.Bottleneck(initial, 2, rng)
		sol, stats, err := core.SolveProposal(inst, core.SolveOptions{Seed: p.Seed, MaxRounds: 1 << 20})
		if err != nil {
			t.AddRow(initial, res.Rounds, res.UnitMoves, "error: "+err.Error(), "-")
			continue
		}
		t.AddRow(initial, res.Rounds, res.UnitMoves, stats.Rounds, len(sol.Moves))
		xs = append(xs, float64(initial))
		ys = append(ys, float64(res.Rounds))
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("balancing rounds ~ load^%.2f — the per-unit bottleneck cost the paper's conjecture rests on", FitPowerLaw(xs, ys)))
	return t
}

// E16 (§4.3 open question): 4-level games have no o(Δ²) algorithm yet —
// measure the generic algorithm's behaviour at heights 2, 3, 4, 5.
func E16HeightGapAblation(p Profile) *Table {
	t := &Table{
		ID:      "E16",
		Title:   "Height ablation: generic algorithm across game heights (the §4.3 open question)",
		Claim:   "3-level games admit O(Δ); 4-level games are open between O(Δ) and O(Δ²) — the measured gap on random workloads",
		Columns: []string{"height", "Δ", "rounds", "rounds/Δ", "3lvl-specialized rounds"},
	}
	heights := []int{1, 2, 3, 4}
	d := 8
	if p.Quick {
		d = 5
	}
	for _, h := range heights {
		rng := rand.New(rand.NewSource(p.Seed + int64(h)))
		cfg := core.LayeredConfig{Levels: h, Width: 3 * d, ParentDeg: d, TokenProb: 0.8, FreeBottom: true}
		inst := core.RandomLayered(cfg, rng)
		delta := inst.MaxDegree()
		_, stats, err := core.SolveProposal(inst, core.SolveOptions{Seed: p.Seed, MaxRounds: 1 << 20})
		if err != nil {
			t.AddRow(h+1, delta, "error: "+err.Error(), "-", "-")
			continue
		}
		spec := "-"
		if h <= core.ThreeLevelMaxLevel {
			if _, s3, err := core.SolveThreeLevel(inst, core.SolveOptions{Seed: p.Seed, MaxRounds: 1 << 20}); err != nil {
				spec = "error: " + err.Error()
			} else {
				spec = fmt.Sprint(s3.Rounds)
			}
		}
		t.AddRow(h+1, delta, stats.Rounds, float64(stats.Rounds)/float64(delta), spec)
	}
	return t
}

// E17 (§7.3): interpolate between the 2-bounded relaxation and the full
// problem by sweeping the threshold k.
func E17ThresholdSweep(p Profile) *Table {
	t := &Table{
		ID:      "E17",
		Title:   "k-bounded threshold sweep (relaxation → general problem)",
		Claim:   "the Ω(Δ) lower bound weakens proportionally to the threshold; measured cost grows with k toward the unrelaxed problem (§7.3)",
		Columns: []string{"k", "phases", "rounds", "k-stable", "fully stable too"},
	}
	rng := rand.New(rand.NewSource(p.Seed))
	nl, nr := 48, 12
	if p.Quick {
		nl, nr = 24, 8
	}
	g := graph.RandomBipartite(nl, nr, 3, rng)
	b := graph.MustBipartite(g, nl)
	ks := []int{2, 3, 4, 6}
	if p.Quick {
		ks = []int{2, 3}
	}
	for _, k := range ks {
		res, err := assign.Solve(b, assign.Options{K: k, Seed: p.Seed, CheckInvariants: true})
		if err != nil {
			t.AddRow(k, "-", "-", "error: "+err.Error(), "-")
			continue
		}
		t.AddRow(k, res.Phases, res.Rounds, mark(res.Assignment.KStable(k)),
			fmt.Sprint(res.Assignment.Stable()))
	}
	full, err := assign.Solve(b, assign.Options{Seed: p.Seed})
	if err != nil {
		t.AddRow("∞ (general)", "-", "-", "error: "+err.Error(), "-")
	} else {
		t.AddRow("∞ (general)", full.Phases, full.Rounds, mark(full.Assignment.Stable()), "true")
	}
	return t
}

// E18: tie-breaking ablation — the paper allows arbitrary ties; check the
// bounds are insensitive to the rule.
func E18TieBreakAblation(p Profile) *Table {
	t := &Table{
		ID:      "E18",
		Title:   "Tie-break ablation: deterministic first-port vs seeded random",
		Claim:   "the paper's bounds hold for arbitrary tie-breaking (§4.1); measured rounds barely move",
		Columns: []string{"workload", "first-port rounds", "random-tie rounds"},
	}
	rng := rand.New(rand.NewSource(p.Seed))
	d := 8
	if p.Quick {
		d = 5
	}
	cfg := core.LayeredConfig{Levels: 4, Width: 3 * d, ParentDeg: d, TokenProb: 0.8, FreeBottom: true}
	inst := core.RandomLayered(cfg, rng)
	_, fp, err1 := core.SolveProposal(inst, core.SolveOptions{Tie: core.TieFirstPort, MaxRounds: 1 << 20})
	_, rt, err2 := core.SolveProposal(inst, core.SolveOptions{Tie: core.TieRandom, Seed: p.Seed, MaxRounds: 1 << 20})
	if err1 == nil && err2 == nil {
		t.AddRow("token dropping (random layered)", fp.Rounds, rt.Rounds)
	}
	g := graph.RandomRegular(6*4, 4, rng)
	o1, err1 := orient.Solve(g, orient.Options{Tie: core.TieFirstPort, Seed: p.Seed})
	o2, err2 := orient.Solve(g, orient.Options{Tie: core.TieRandom, Seed: p.Seed})
	if err1 == nil && err2 == nil {
		t.AddRow("stable orientation (4-regular)", o1.Rounds, o2.Rounds)
	}
	return t
}

// E19: schedule ablation — the adaptive driver vs the fixed-schedule LOCAL
// machine (identical outputs in kind, very different round budgets).
func E19ScheduleAblation(p Profile) *Table {
	t := &Table{
		ID:      "E19",
		Title:   "Schedule ablation: adaptive barriers vs the paper's fixed LOCAL schedule",
		Claim:   "the fixed schedule spends the full Θ(Δ⁴) budget; the same computation quiesces orders of magnitude earlier",
		Columns: []string{"Δ", "n", "adaptive rounds", "fixed rounds", "fixed last-active", "stable (both)"},
	}
	degrees := []int{2, 3, 4}
	if p.Quick {
		degrees = []int{2, 3}
	}
	for _, d := range degrees {
		rng := rand.New(rand.NewSource(p.Seed + int64(d)))
		n := 6 * d
		if n*d%2 != 0 {
			n++
		}
		g := graph.RandomRegular(n, d, rng)
		adaptive, err1 := orient.Solve(g, orient.Options{Seed: p.Seed})
		fixed, err2 := orient.SolveFixed(g, orient.FixedOptions{Seed: p.Seed})
		if err1 != nil || err2 != nil {
			t.AddRow(d, n, "-", "-", "-", "error")
			continue
		}
		t.AddRow(d, n, adaptive.Rounds, fixed.Rounds, fixed.LastActiveRound,
			mark(adaptive.Orientation.Stable() && fixed.Orientation.Stable()))
	}
	return t
}

// E20: simulator throughput — wall time of one large game across worker
// counts (the systems-side sanity check of the parallel round executor).
func E20RuntimeScaling(p Profile) *Table {
	t := &Table{
		ID:      "E20",
		Title:   "LOCAL simulator scaling: workers vs wall time on one large game",
		Claim:   "per-round node steps parallelize across goroutines with identical results",
		Columns: []string{"workers", "wall time", "rounds", "moves"},
	}
	width := 512
	if p.Quick {
		width = 128
	}
	rng := rand.New(rand.NewSource(p.Seed))
	cfg := core.LayeredConfig{Levels: 12, Width: width, ParentDeg: 4, TokenProb: 0.6, FreeBottom: true}
	inst := core.RandomLayered(cfg, rng)
	workers := []int{1, 2, 4, 8}
	if p.Quick {
		workers = []int{1, 4}
	}
	var refMoves = -1
	for _, w := range workers {
		start := time.Now()
		sol, stats, err := core.SolveProposal(inst, core.SolveOptions{MaxRounds: 1 << 20, Workers: w})
		if err != nil {
			t.AddRow(w, "error", "-", "-")
			continue
		}
		elapsed := time.Since(start).Round(time.Microsecond)
		if refMoves < 0 {
			refMoves = len(sol.Moves)
		} else if refMoves != len(sol.Moves) {
			t.AddRow(w, "NONDETERMINISTIC", stats.Rounds, len(sol.Moves))
			continue
		}
		t.AddRow(w, elapsed.String(), stats.Rounds, len(sol.Moves))
	}
	return t
}
