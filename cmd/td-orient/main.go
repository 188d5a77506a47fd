// Command td-orient computes stable orientations with the paper's
// Theorem 5.1 algorithm and optionally compares against the baselines.
//
// Each graph kind consumes a subset of the flags:
//
//	regular      -n (vertices), -d (degree)
//	gnm          -n (vertices), -m (edges)
//	grid         -n (side length; the grid is n×n)
//	tree         -d (arity), -depth (levels below the root)
//	caterpillar  -n (spine length), -d (legs per spine vertex)
//	star         -n (leaves)
//	cycle        -n (vertices)
//	powerlaw     -n (vertices), -d (max degree), -alpha (exponent)
//
// -engine selects the runtime: "local" is the goroutine-per-node seed
// engine, "sharded" the flat CSR engine for large graphs. The regular and
// powerlaw kinds generate directly into CSR form, which the local engine
// converts, so regular requires 2d < n on both engines. Every kind builds
// the identical graph on either engine, and runs are bit-comparable
// across engines.
//
// Usage examples:
//
//	td-orient -graph regular -n 48 -d 6
//	td-orient -graph caterpillar -n 100 -d 2 -baselines
//	td-orient -graph gnm -n 60 -m 240 -phases
//	td-orient -graph tree -d 3 -depth 6
//	td-orient -graph regular -n 1000000 -d 4 -engine sharded
//	td-orient -graph powerlaw -n 500000 -d 32 -alpha 2.2 -engine sharded
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"path/filepath"

	"tokendrop"
	"tokendrop/internal/cliutil"
)

func main() {
	var (
		kind      = flag.String("graph", "regular", "regular | gnm | grid | tree | caterpillar | star | cycle | powerlaw")
		n         = flag.Int("n", 32, "vertices (spine length for caterpillar, leaves for star, side for grid)")
		d         = flag.Int("d", 4, "degree (regular/tree), legs (caterpillar), or max degree (powerlaw)")
		m         = flag.Int("m", 64, "edges (gnm)")
		depth     = flag.Int("depth", 4, "tree depth (tree)")
		alpha     = flag.Float64("alpha", 2.0, "power-law degree exponent (powerlaw)")
		engine    = flag.String("engine", "local", "local (goroutine-per-node simulator) | sharded (flat CSR engine)")
		shards    = cliutil.ShardsFlag()
		seed      = flag.Int64("seed", 1, "seed")
		random    = flag.Bool("random-ties", false, "randomized tie-breaking")
		phases    = flag.Bool("phases", false, "print the per-phase log")
		baselines = flag.Bool("baselines", false, "also run the sequential greedy and selfish-flip baselines (local engine only)")
		record    = flag.String("record", "", "record the run into this directory (snapshot.json per phase, run.json final state); requires -engine sharded")
		version   = cliutil.VersionFlag()
	)
	flag.Parse()
	cliutil.HandleVersionFlag(version)

	if *engine != "local" && *engine != "sharded" {
		log.Fatalf("unknown engine %q (want local or sharded)", *engine)
	}
	if *record != "" && *engine != "sharded" {
		log.Fatal("-record requires -engine sharded (snapshots capture the flat engine's state)")
	}
	if *baselines && *engine != "local" {
		log.Fatal("-baselines requires -engine local")
	}
	if *kind == "regular" && 2**d >= *n {
		log.Fatalf("regular generation requires 2d < n (got n=%d d=%d)", *n, *d)
	}
	if *kind == "regular" && *n**d%2 != 0 {
		log.Fatalf("a %d-regular graph needs n*d even (got n=%d)", *d, *n)
	}
	if *kind == "powerlaw" && *d >= *n {
		log.Fatalf("powerlaw needs max degree below n (got n=%d d=%d)", *n, *d)
	}

	rng := rand.New(rand.NewSource(*seed))
	var g *tokendrop.Graph     // pointer graph (local engine, baselines)
	var c *tokendrop.FlatGraph // CSR graph (sharded engine)
	switch *kind {
	case "regular":
		c = tokendrop.RandomRegularFlat(*n, *d, rng)
	case "powerlaw":
		c = tokendrop.PowerLawFlat(*n, *alpha, *d, rng)
	case "gnm":
		g = tokendrop.RandomGraph(*n, *m, rng)
	case "grid":
		g = tokendrop.GridGraph(*n, *n)
	case "tree":
		g, _ = tokendrop.PerfectDAryTree(*d, *depth)
	case "caterpillar":
		g = tokendrop.CaterpillarGraph(*n, *d)
	case "star":
		g = tokendrop.StarGraph(*n)
	case "cycle":
		g = tokendrop.CycleGraph(*n)
	default:
		log.Fatalf("unknown graph %q", *kind)
	}
	switch {
	case *engine == "local" && c != nil:
		g, c = c.ToGraph(), nil
	case *engine == "sharded" && c == nil:
		c = tokendrop.NewFlatGraph(g)
	}

	tie := tokendrop.TieFirstPort
	if *random {
		tie = tokendrop.TieRandom
	}

	var (
		phaseCount, rounds, worstCase int
		stable                        bool
		potential, semiCost           int64
		phaseLog                      []tokendrop.OrientPhase
	)
	if *engine == "sharded" {
		fmt.Printf("graph: n=%d m=%d Δ=%d (sharded engine)\n", c.N(), c.M(), c.MaxDegree())
		sopt := tokendrop.OrientShardedOptions{
			Tie: tie, Seed: *seed, Shards: *shards, CheckInvariants: true,
		}
		meta := tokendrop.RunMetaJSON{
			Workload: fmt.Sprintf("%s n=%d d=%d m=%d depth=%d alpha=%g", *kind, *n, *d, *m, *depth, *alpha),
			GenSeed:  *seed, Tie: tokendrop.TieName(tie), Seed: *seed, Shards: *shards,
		}
		if *record != "" {
			if err := os.MkdirAll(*record, 0o755); err != nil {
				log.Fatal(err)
			}
			sopt.SnapshotEvery = 1
			sopt.OnSnapshot = func(s *tokendrop.OrientSnapshot) error {
				return tokendrop.SaveSnapshotFile(filepath.Join(*record, "snapshot.json"),
					tokendrop.OrientSnapshotJSON(s, c, meta))
			}
		}
		res, err := tokendrop.StableOrientationSharded(c, sopt)
		if err != nil {
			log.Fatal(err)
		}
		if *record != "" {
			final := &tokendrop.OrientSnapshot{
				Phase: res.Phases, Oriented: c.M(), Rounds: res.Rounds,
				Head: res.Head, Load: res.Load, PhaseLog: res.PhaseLog,
			}
			if err := tokendrop.SaveSnapshotFile(filepath.Join(*record, "run.json"),
				tokendrop.OrientSnapshotJSON(final, c, meta)); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("recorded run in %s\n", *record)
		}
		phaseCount, rounds, worstCase = res.Phases, res.Rounds, res.WorstCaseRounds
		stable, potential, semiCost = res.Stable(), res.Potential(), res.SemimatchingCost()
		phaseLog = res.PhaseLog
	} else {
		fmt.Printf("graph: n=%d m=%d Δ=%d\n", g.N(), g.M(), g.MaxDegree())
		res, err := tokendrop.StableOrientation(g, tokendrop.OrientOptions{
			Tie: tie, Seed: *seed, CheckInvariants: true,
		})
		if err != nil {
			log.Fatal(err)
		}
		phaseCount, rounds, worstCase = res.Phases, res.Rounds, res.WorstCaseRounds
		stable = res.Orientation.Stable()
		potential = int64(res.Orientation.Potential())
		semiCost = int64(res.Orientation.SemimatchingCost())
		phaseLog = res.PhaseLog
	}
	fmt.Printf("token dropping algorithm (Thm 5.1): phases=%d rounds=%d (worst-case bound %d) stable=%v\n",
		phaseCount, rounds, worstCase, stable)
	fmt.Printf("  potential Σload² = %d, semi-matching cost = %d\n", potential, semiCost)

	if *phases {
		for _, rec := range phaseLog {
			fmt.Printf("  phase %2d: proposals=%d accepted=%d gameEdges=%d gameRounds=%d moved=%d maxBadness=%d\n",
				rec.Phase, rec.Proposals, rec.Accepted, rec.GameEdges, rec.GameRounds, rec.TokensMoved, rec.MaxBadness)
		}
	}

	if *baselines {
		init := tokendrop.ArbitraryOrientation(g, tokendrop.InitTowardHigherID, nil)
		greedy := tokendrop.GreedyOrientation(init.Clone(), tokendrop.FlipFirst, nil)
		fmt.Printf("sequential greedy (§1.1): flips=%d potential %d→%d stable=%v\n",
			greedy.Flips, greedy.InitialPotential, greedy.FinalPotential, greedy.Orientation.Stable())
		selfish, err := tokendrop.SelfishOrientation(init, *seed, 1<<20, 0)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("selfish-flip dynamic (CHSW12-class): rounds=%d flips=%d stable=%v\n",
			selfish.Rounds, selfish.Flips, selfish.Orientation.Stable())
	}
}
