package bench

import (
	"fmt"

	"tokendrop/internal/arena"
)

// E28 — the baseline strategy arena. Every competing assigner (the
// paper's token-dropping layer, the selfish best-response dynamic, and
// the greedy baselines) runs on every workload family (uniform, zipf,
// hotspot, the Lemma 6.2 adversarial family, drain-and-replace churn)
// and reports the four Pareto axes: final max load, rounds, messages,
// wall-clock. TestE28ArenaGolden pins the token-dropping and resolver
// rows' deterministic axes on the quick profile.

// e28Workloads builds the family grid for the profile. The adversarial
// instance records its proven floor; the churn instance ships its trace.
func e28Workloads(p Profile) ([]*arena.Workload, error) {
	nl, nr, deg := 5_000, 1_000, 3
	churns := 2_000
	advServers := 60
	if p.Quick {
		nl, nr = 300, 60
		churns = 120
		advServers = 24
	}
	ws := []*arena.Workload{
		arena.Uniform(nl, nr, deg, p.Seed),
		arena.Zipf(nl, nr, deg, 1.2, p.Seed),
		arena.HotSpot(nl, nr, deg, 8, p.Seed),
		arena.Adversarial(advServers, 4, p.Seed),
	}
	cw, err := arena.Churn(nl/2, nr/2, deg, churns, p.Seed)
	if err != nil {
		return nil, err
	}
	return append(ws, cw), nil
}

// e28Strategies is the competitor list; the token-dropping adapter is
// passed in so the caller controls its session lifetime, and the
// resolver enters separately (churn workloads only).
func e28Strategies(td *arena.TokenDropping) []arena.Strategy {
	return []arena.Strategy{
		td,
		arena.Selfish{Workers: 8},
		arena.RobinHood{},
		arena.LeastLoaded{},
		arena.PowerOfK{},
		arena.Random{},
		arena.RoundRobin{},
		arena.Rotor{},
		arena.Threshold{},
	}
}

// E28ArenaPareto renders the strategy×workload Pareto surface as a
// table: one row per matchup, every row oracle-checked (validity column).
func E28ArenaPareto(p Profile) *Table {
	t := &Table{
		ID:      "E28",
		Title:   "Baseline strategy arena: competing assigners × workload families",
		Claim:   "token dropping holds the max-load axis of the Pareto surface against every greedy baseline",
		Columns: []string{"workload", "strategy", "max load", "floor", "rounds", "steps", "messages", "seconds", "valid"},
	}
	workloads, err := e28Workloads(p)
	if err != nil {
		t.Notes = append(t.Notes, "error: "+err.Error())
		return t
	}
	td := &arena.TokenDropping{Shards: p.Shards}
	defer td.Close()
	resolver := &arena.ResolverStrategy{Shards: p.Shards}
	for _, w := range workloads {
		strategies := e28Strategies(td)
		if w.Trace != nil {
			strategies = append(strategies, resolver)
		}
		tdMax, bestCompetitor := -1, -1
		for _, s := range strategies {
			res, err := arena.Run(s, w, p.Seed)
			if err != nil {
				t.AddRow(w.Family, s.Name(), "-", w.MinMaxLoad, "-", "-", "-", "-", "error: "+err.Error())
				continue
			}
			valid := arena.CheckResult(w, res) == nil
			t.AddRow(w.Family, s.Name(), res.MaxLoad, w.MinMaxLoad, res.Rounds,
				res.Steps, res.Messages, res.Seconds, mark(valid))
			if w.Family == "adversarial" {
				if s == arena.Strategy(td) {
					tdMax = res.MaxLoad
				} else if bestCompetitor < 0 || res.MaxLoad < bestCompetitor {
					bestCompetitor = res.MaxLoad
				}
			}
		}
		if w.Family == "adversarial" && tdMax >= 0 && bestCompetitor >= 0 {
			t.Notes = append(t.Notes, fmt.Sprintf(
				"adversarial (floor %d): token dropping max load %d, best competitor %d",
				w.MinMaxLoad, tdMax, bestCompetitor))
		}
	}
	return t
}
