// Command td-run solves token dropping game instances and reports rounds,
// messages, and token traversals.
//
// Usage examples:
//
//	td-run -workload chain -levels 16
//	td-run -workload layered -levels 5 -width 12 -deg 3 -tokens 0.7 -solver proposal -paths
//	td-run -workload figure2 -solver sequential -paths
//	td-run -workload bipartite -width 20 -deg 4 -solver threelevel
//	td-run -workload layered -levels 7 -width 125000 -deg 4 -engine sharded
//	td-run -workload grid -levels 100 -width 10000 -engine sharded
//	td-run -workload powerlaw -width 500000 -deg 16 -engine sharded -solver threelevel
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"os/exec"

	"tokendrop"
	"tokendrop/internal/cliutil"
	"tokendrop/internal/fault"
	"tokendrop/internal/mp"
)

func main() {
	var (
		workload  = flag.String("workload", "layered", "chain | layered | figure2 | bipartite | topheavy | grid | powerlaw")
		levels    = flag.Int("levels", 5, "number of layers above layer 0")
		width     = flag.Int("width", 10, "vertices per layer (layered/topheavy/grid) or per side (bipartite/powerlaw)")
		deg       = flag.Int("deg", 3, "downward degree per vertex (max degree for powerlaw)")
		tokens    = flag.Float64("tokens", 0.6, "token density (layered)")
		solver    = flag.String("solver", "proposal", "proposal | threelevel | sequential | parallel")
		engine    = flag.String("engine", "local", "local (goroutine-per-node simulator) | sharded (flat CSR engine) | mp (multi-process sharded engine)")
		shards    = cliutil.ShardsFlag()
		procs     = flag.Int("procs", 2, "with -engine mp: worker-process count")
		sppFlag   = flag.Int("shards-per-proc", 1, "with -engine mp: engine shards per worker process")
		autores   = flag.Int("autoresume", 0, "with -engine mp: worker-loss recovery budget (respawn + validated fast-forward)")
		mpWorker  = flag.Bool("mp-worker", false, "internal: run as a multi-process worker over stdin/stdout (spawned by -engine mp)")
		alpha     = flag.Float64("alpha", 2.0, "power-law degree exponent (powerlaw)")
		seed      = flag.Int64("seed", 1, "workload and tie-break seed")
		random    = flag.Bool("random-ties", false, "randomized tie-breaking")
		paths     = flag.Bool("paths", false, "print token traversals")
		loadFile  = flag.String("load", "", "read the instance from a JSON file instead of generating one")
		saveFile  = flag.String("save", "", "write the generated instance to a JSON file")
		solFile   = flag.String("save-solution", "", "write the verified solution to a JSON file")
		trace     = flag.Bool("trace", false, "print the per-round convergence series (moves per round)")
		record    = flag.String("record", "", "record the run into this directory (instance.json, snapshot.json, run.json); requires -engine sharded")
		replay    = flag.String("replay", "", "replay a recorded run directory and verify bit-identical results; exits non-zero with the first divergence")
		snapEvery = flag.Int("snapshot-every", 32, "with -record: snapshot every k completed rounds")
		version   = cliutil.VersionFlag()
		fail      = cliutil.NewFailFlag("mp/worker:crash:at=8")
	)
	flag.Parse()
	cliutil.HandleVersionFlag(version)

	if *mpWorker {
		// Spawned by an -engine mp coordinator: speak the transport
		// protocol over stdin/stdout and exit. Errors went to the
		// coordinator as a FrameError; stderr is for humans.
		if err := mp.WorkerMain(os.Stdin, os.Stdout); err != nil {
			log.Fatalf("mp worker: %v", err)
		}
		return
	}

	if *replay != "" {
		tie := tokendrop.TieFirstPort
		if *random {
			tie = tokendrop.TieRandom
		}
		replayRun(*replay, *solver, tie, *seed, *shards)
		return
	}
	if *record != "" {
		if *engine != "sharded" {
			log.Fatal("-record requires -engine sharded (snapshots capture the flat engine's state)")
		}
		if *snapEvery <= 0 {
			log.Fatal("-snapshot-every must be positive")
		}
	}

	rng := rand.New(rand.NewSource(*seed))
	var inst *tokendrop.GameInstance
	var flat *tokendrop.FlatGame // CSR-native workloads build this first
	if *loadFile != "" {
		f, err := os.Open(*loadFile)
		if err != nil {
			log.Fatal(err)
		}
		inst, err = tokendrop.LoadGame(f)
		f.Close()
		if err != nil {
			log.Fatalf("loading %s: %v", *loadFile, err)
		}
		*workload = "(loaded)"
	}
	switch *workload {
	case "(loaded)":
		// already have the instance
	case "chain":
		inst = tokendrop.ChainGame(*levels)
	case "figure2":
		inst = tokendrop.Figure2Game()
	case "layered":
		inst = tokendrop.RandomLayeredGame(tokendrop.LayeredConfig{
			Levels: *levels, Width: *width, ParentDeg: *deg,
			TokenProb: *tokens, FreeBottom: true,
		}, rng)
	case "topheavy":
		// A tokenless layered graph whose top layer is then fully occupied.
		inst = tokendrop.RandomLayeredGame(tokendrop.LayeredConfig{
			Levels: *levels, Width: *width, ParentDeg: *deg, TokenProb: 0,
		}, rng)
		g := inst.Graph()
		level := inst.Levels()
		token := make([]bool, g.N())
		for v := 0; v < g.N(); v++ {
			token[v] = level[v] == *levels
		}
		var err error
		inst, err = tokendrop.NewGame(g, level, token)
		if err != nil {
			log.Fatal(err)
		}
	case "bipartite":
		g := tokendrop.RandomBipartite(*width, *width, *deg, rng)
		inst = tokendrop.BipartiteGame(g, *width)
	case "grid":
		// levels+1 rows of width columns, top quarter of the rows occupied.
		rows := *levels + 1
		tokenRows := (rows + 3) / 4
		if tokenRows >= rows {
			tokenRows = rows - 1
		}
		flat = tokendrop.LayeredGridGame(rows, *width, tokenRows)
	case "powerlaw":
		flat = tokendrop.PowerLawBipartiteGame(*width, *width, *alpha, *deg, rng)
	default:
		log.Fatalf("unknown workload %q", *workload)
	}
	if flat != nil {
		// CSR-native workload: materialize the pointer instance too (the
		// sequential solvers, the object engine, and verification use it).
		inst = flat.Instance()
	}

	if *saveFile != "" {
		f, err := os.Create(*saveFile)
		if err != nil {
			log.Fatal(err)
		}
		if err := tokendrop.SaveGame(f, inst); err != nil {
			log.Fatal(err)
		}
		f.Close()
		fmt.Printf("instance saved to %s\n", *saveFile)
	}

	fmt.Printf("instance: n=%d m=%d height=%d Δ=%d tokens=%d\n",
		inst.N(), inst.Graph().M(), inst.Height(), inst.MaxDegree(), inst.NumTokens())

	if *engine != "local" && *engine != "sharded" && *engine != "mp" {
		log.Fatalf("unknown engine %q (want local, sharded, or mp)", *engine)
	}
	if (*engine == "sharded" || *engine == "mp") && *solver != "proposal" && *solver != "threelevel" {
		log.Fatalf("solver %q is centralized; -engine %s applies only to proposal | threelevel", *solver, *engine)
	}
	if *engine == "mp" && *record != "" {
		log.Fatal("-record requires -engine sharded (the recorder captures in-process snapshots)")
	}
	tie := tokendrop.TieFirstPort
	if *random {
		tie = tokendrop.TieRandom
	}
	opt := tokendrop.GameOptions{Tie: tie, Seed: *seed, MaxRounds: 1 << 20}

	var sol *tokendrop.GameSolution
	var stats tokendrop.GameStats
	var err error
	if *engine == "mp" {
		// Multi-process sharded engine: this process coordinates; each
		// worker is a re-execution of this binary in -mp-worker mode,
		// speaking the framed transport protocol over its pipes. The
		// result is bit-identical to -engine sharded (and, under
		// first-port ties, to -engine local).
		if flat == nil {
			flat = tokendrop.NewFlatGame(inst)
		}
		var reg *fault.Registry
		if len(*fail) > 0 {
			reg = fault.NewRegistry(*seed)
			if spec, err := fail.Arm(reg); err != nil {
				log.Fatalf("-fail %q: %v", spec, err)
			}
		}
		exe, eerr := os.Executable()
		if eerr != nil {
			log.Fatal(eerr)
		}
		mopt := mp.Options{
			Procs:         *procs,
			ShardsPerProc: *sppFlag,
			Solver:        *solver,
			Tie:           tie,
			Seed:          *seed,
			MaxRounds:     1 << 20,
			AutoResume:    *autores,
			Fault:         reg,
			Command:       func(int) *exec.Cmd { return exec.Command(exe, "-mp-worker") },
		}
		if *autores > 0 {
			mopt.SnapshotEvery = *snapEvery
		}
		res, mstats, merr := mp.Solve(flat, mopt)
		if merr != nil {
			log.Fatal(merr)
		}
		sol = res.Solution(inst)
		stats = res.Stats
		fmt.Printf("mp: procs=%d shards/proc=%d frames/round=%d bytes/round=%d restarts=%d\n",
			*procs, *sppFlag,
			mstats.WireFrames/int64(mstats.RoundsExecuted),
			mstats.WireBytes/int64(mstats.RoundsExecuted),
			mstats.Restarts)
	} else if *engine == "sharded" && (*solver == "proposal" || *solver == "threelevel") {
		if flat == nil {
			flat = tokendrop.NewFlatGame(inst)
		}
		sopt := tokendrop.ShardedGameOptions{Tie: tie, Seed: *seed, MaxRounds: 1 << 20, Shards: *shards}
		var rec *recorder
		if *record != "" {
			rec = &recorder{dir: *record, flat: flat, meta: tokendrop.RunMetaJSON{
				Workload: *workload, GenSeed: *seed, Tie: tokendrop.TieName(tie), Seed: *seed, Shards: *shards,
			}}
			rec.start(inst)
			sopt.SnapshotEvery = *snapEvery
			sopt.OnSnapshot = rec.hook
		}
		var res *tokendrop.FlatGameResult
		if *solver == "proposal" {
			res, err = tokendrop.SolveGameSharded(flat, sopt)
		} else {
			res, err = tokendrop.SolveGame3LevelSharded(flat, sopt)
		}
		if err != nil {
			log.Fatal(err)
		}
		sol = res.Solution(inst)
		stats = res.Stats
		if rec != nil {
			// run.json only ever holds a verified solution.
			if err := tokendrop.VerifyGame(sol); err != nil {
				log.Fatalf("solution failed verification: %v", err)
			}
			rec.finish(sol)
		}
	} else {
		switch *solver {
		case "proposal":
			sol, stats, err = tokendrop.SolveGame(inst, opt)
		case "threelevel":
			sol, stats, err = tokendrop.SolveGame3Level(inst, opt)
		case "sequential":
			sol = tokendrop.SolveGameSequential(inst, tokendrop.PolicyFirst, rng)
		case "parallel":
			sol = tokendrop.SolveGameSequential(inst, tokendrop.PolicyRandom, rng)
		default:
			log.Fatalf("unknown solver %q", *solver)
		}
		if err != nil {
			log.Fatal(err)
		}
	}
	if err := tokendrop.VerifyGame(sol); err != nil {
		log.Fatalf("solution failed verification: %v", err)
	}
	if *solFile != "" {
		f, err := os.Create(*solFile)
		if err != nil {
			log.Fatal(err)
		}
		if err := tokendrop.SaveSolution(f, sol); err != nil {
			log.Fatal(err)
		}
		f.Close()
		fmt.Printf("solution saved to %s\n", *solFile)
	}

	fmt.Printf("solved: moves=%d", len(sol.Moves))
	if stats.Rounds > 0 {
		fmt.Printf(" rounds=%d messages=%d maxActiveUnoccupied=%d (Lemma 4.4 cap: Δ²=%d)",
			stats.Rounds, stats.Messages, stats.MaxActiveUnoccupied, inst.MaxDegree()*inst.MaxDegree())
	}
	fmt.Println("\nverification: all three rules hold (edge-disjoint, unique destinations, maximal)")

	if *paths {
		for _, tr := range sol.Traversals() {
			fmt.Printf("  token@%d:", tr.Origin())
			for _, v := range tr.Path {
				fmt.Printf(" %d(L%d)", v, inst.Level(v))
			}
			tail := sol.Tail(tr)
			if len(tail) > 1 {
				fmt.Printf("   tail:%v", tail)
			}
			fmt.Println()
		}
	}

	if *trace {
		// Convergence series: token moves per communication round, a
		// figure-like view of how quickly the game gets stuck.
		perRound := map[int]int{}
		last := 0
		for _, m := range sol.Moves {
			perRound[m.Round]++
			if m.Round > last {
				last = m.Round
			}
		}
		fmt.Println("convergence (round: moves, cumulative):")
		cum := 0
		for r := 0; r <= last; r++ {
			if perRound[r] == 0 && r > 0 {
				continue
			}
			cum += perRound[r]
			bar := ""
			for i := 0; i < perRound[r]; i++ {
				bar += "#"
			}
			fmt.Printf("  %4d: %3d %4d  %s\n", r, perRound[r], cum, bar)
		}
	}
}
