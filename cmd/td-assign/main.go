// Command td-assign computes stable assignments on customer/server
// networks (Theorem 7.3), the 2-bounded relaxation (Theorem 7.5), the
// Theorem 7.4 matching reduction, and the semi-matching approximation
// ratio. Both LOCAL runtimes are available: the seed object engine and the
// sharded flat engine (-engine sharded), which run bit-identical
// deterministic protocols.
//
// Usage examples:
//
//	td-assign -customers 60 -servers 20 -cdeg 4
//	td-assign -customers 40 -servers 8 -cdeg 3 -kbounded -k 2
//	td-assign -customers 30 -servers 10 -cdeg 3 -optimal
//	td-assign -customers 200000 -servers 50000 -cdeg 3 -engine sharded
//	td-assign -customers 20000 -servers 5000 -cdeg 3 -engine sharded -random-ties
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

// recordMeta canonicalizes the generator flags as run provenance.
func recordMeta(nc, ns, cdeg int, tie tokendrop.TieBreak, seed int64, shards int) tokendrop.RunMetaJSON {
	return tokendrop.RunMetaJSON{
		Workload: fmt.Sprintf("bipartite customers=%d servers=%d cdeg=%d", nc, ns, cdeg),
		GenSeed:  seed, Tie: tokendrop.TieName(tie), Seed: seed, Shards: shards,
	}
}

// saveRecordSnapshot persists the latest mid-solve snapshot atomically,
// creating the recording directory on first use.
func saveRecordSnapshot(dir string, sj *tokendrop.SnapshotJSON) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return tokendrop.SaveSnapshotFile(filepath.Join(dir, "snapshot.json"), sj)
}

// finishRecord writes the final run state.
func finishRecord(dir string, sj *tokendrop.SnapshotJSON) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		log.Fatal(err)
	}
	if err := tokendrop.SaveSnapshotFile(filepath.Join(dir, "run.json"), sj); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("recorded run in %s\n", dir)
}

func main() {
	var (
		nc       = flag.Int("customers", 40, "number of customers")
		ns       = flag.Int("servers", 12, "number of servers")
		cdeg     = flag.Int("cdeg", 3, "servers adjacent to each customer")
		kbounded = flag.Bool("kbounded", false, "solve the k-bounded relaxation instead")
		k        = flag.Int("k", 2, "threshold for -kbounded")
		optimal  = flag.Bool("optimal", false, "also compute the exact optimal semi-matching")
		seed     = flag.Int64("seed", 1, "seed")
		random   = flag.Bool("random-ties", false, "randomized tie-breaking")
		loads    = flag.Bool("loads", false, "print the server load histogram")
		engine   = flag.String("engine", "local", "local (goroutine-per-node simulator) | sharded (flat CSR engine)")
		shards   = cliutil.ShardsFlag()
		record   = flag.String("record", "", "record the run into this directory (snapshot.json per phase, run.json final state); requires -engine sharded")
		version  = cliutil.VersionFlag()
	)
	flag.Parse()
	cliutil.HandleVersionFlag(version)

	if *record != "" && *engine != "sharded" {
		log.Fatal("-record requires -engine sharded (snapshots capture the flat engine's state)")
	}

	tie := tokendrop.TieFirstPort
	if *random {
		tie = tokendrop.TieRandom
	}

	rng := rand.New(rand.NewSource(*seed))
	g := tokendrop.RandomBipartite(*nc, *ns, *cdeg, rng)
	b, err := tokendrop.NewBipartite(g, *nc)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("network: customers=%d servers=%d C=%d S=%d engine=%s\n",
		b.NumCustomers(), b.NumServers(), b.MaxCustomerDegree(), b.MaxServerDegree(), *engine)

	// loadVec collects the per-server loads for -loads; the sharded path
	// fills it from the flat result directly, so the histogram never
	// forces an object-graph materialization (only -optimal does).
	var a *tokendrop.Assignment
	var loadVec []int
	// threshold is the solve's K: 0 for the general problem, -k (default
	// 2) for the k-bounded relaxation.
	threshold := 0
	if *kbounded {
		threshold = *k
		if threshold == 0 {
			threshold = 2
		}
	}
	// reportBounded prints the k-bounded verdict and the Theorem 7.4
	// reduction of a k-bounded run.
	reportBounded := func(engine string, k, phases, rounds int, kStable bool, matchOf []int) {
		fmt.Printf("%d-bounded stable assignment (Thm 7.5%s): phases=%d rounds=%d k-stable=%v\n",
			k, engine, phases, rounds, kStable)
		err := tokendrop.VerifyMaximalMatching(b, matchOf)
		fmt.Printf("Theorem 7.4 reduction to maximal matching: valid=%v\n", err == nil)
	}
	if *engine == "sharded" {
		fb := tokendrop.NewFlatBipartite(b)
		sopt := tokendrop.AssignShardedOptions{
			K: threshold, Tie: tie, Seed: *seed, Shards: *shards, CheckInvariants: true,
		}
		meta := recordMeta(*nc, *ns, *cdeg, tie, *seed, *shards)
		if *record != "" {
			sopt.SnapshotEvery = 1
			sopt.OnSnapshot = func(s *tokendrop.AssignSnapshot) error {
				return saveRecordSnapshot(*record, tokendrop.AssignSnapshotJSON(s, fb, meta))
			}
		}
		res, err := tokendrop.StableAssignmentSharded(fb, sopt)
		if err != nil {
			log.Fatal(err)
		}
		if *record != "" {
			final := &tokendrop.AssignSnapshot{
				K: res.K, Phase: res.Phases, Rounds: res.Rounds,
				ServerOf: res.ServerOf, Load: res.Load, PhaseLog: res.PhaseLog,
			}
			finishRecord(*record, tokendrop.AssignSnapshotJSON(final, fb, meta))
		}
		if *kbounded {
			reportBounded(", sharded", res.K, res.Phases, res.Rounds, res.KStable(),
				tokendrop.MatchingFromBoundedSharded(res))
		} else {
			fmt.Printf("stable assignment (Thm 7.3, sharded): phases=%d rounds=%d stable=%v cost=%d\n",
				res.Phases, res.Rounds, res.Stable(), res.SemimatchingCost())
		}
		for _, l := range res.Load {
			loadVec = append(loadVec, int(l))
		}
		if *optimal {
			a = res.Assignment()
		}
	} else {
		res, err := tokendrop.StableAssignment(b, tokendrop.AssignOptions{K: threshold, Tie: tie, Seed: *seed, CheckInvariants: true})
		if err != nil {
			log.Fatal(err)
		}
		a = res.Assignment
		if *kbounded {
			reportBounded("", res.K, res.Phases, res.Rounds, a.KStable(res.K), tokendrop.MatchingFromBounded(a))
		} else {
			fmt.Printf("stable assignment (Thm 7.3): phases=%d rounds=%d stable=%v cost=%d\n",
				res.Phases, res.Rounds, a.Stable(), a.SemimatchingCost())
		}
	}

	if *optimal {
		ratio, opt, err := tokendrop.SemimatchingApproxRatio(a)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("optimal semi-matching cost=%d, ratio=%.3f (paper guarantee for stable: ≤ 2)\n", opt, ratio)
	}

	if *loads {
		if loadVec == nil {
			for _, s := range b.Servers() {
				loadVec = append(loadVec, a.Load(s))
			}
		}
		hist := map[int]int{}
		maxLoad := 0
		for _, l := range loadVec {
			hist[l]++
			if l > maxLoad {
				maxLoad = l
			}
		}
		fmt.Println("load histogram:")
		for l := 0; l <= maxLoad; l++ {
			if hist[l] > 0 {
				fmt.Printf("  load %2d: %d servers\n", l, hist[l])
			}
		}
	}
}
