package main

import (
	"errors"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"tokendrop"
)

// Record/replay support for td-run. A recording directory holds three
// files, each written crash-consistently (temp file + rename for the
// snapshot, whole-file writes for the others):
//
//	instance.json  the exact instance the run solved
//	snapshot.json  the latest mid-solve snapshot (overwritten in place)
//	run.json       the final verified solution
//
// Replay reloads instance.json, re-runs the solve with the flags echoed
// in the snapshot provenance, and diffs the outcome against run.json —
// and when snapshot.json exists it additionally resumes from it,
// proving the crash-recovery path yields the bit-identical solution.

const (
	instanceFile = "instance.json"
	snapshotFile = "snapshot.json"
	runFile      = "run.json"
)

// recorder wires the snapshot hooks of a recorded run.
type recorder struct {
	dir  string
	flat *tokendrop.FlatGame
	meta tokendrop.RunMetaJSON
}

// start creates the directory and writes instance.json.
func (rec *recorder) start(inst *tokendrop.GameInstance) {
	if err := os.MkdirAll(rec.dir, 0o755); err != nil {
		log.Fatal(err)
	}
	f, err := os.Create(filepath.Join(rec.dir, instanceFile))
	if err != nil {
		log.Fatal(err)
	}
	if err := tokendrop.SaveGame(f, inst); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
}

// hook persists one snapshot atomically over the previous one.
func (rec *recorder) hook(snap *tokendrop.GameSnapshot) error {
	return tokendrop.SaveSnapshotFile(filepath.Join(rec.dir, snapshotFile),
		tokendrop.GameSnapshotJSON(snap, rec.flat, rec.meta))
}

// finish writes run.json.
func (rec *recorder) finish(sol *tokendrop.GameSolution) {
	f, err := os.Create(filepath.Join(rec.dir, runFile))
	if err != nil {
		log.Fatal(err)
	}
	if err := tokendrop.SaveSolution(f, sol); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("recorded run in %s\n", rec.dir)
}

// solveSharded runs one sharded solve of flat and returns the verified
// solution bound to inst.
func solveSharded(flat *tokendrop.FlatGame, inst *tokendrop.GameInstance, solver string,
	opt tokendrop.ShardedGameOptions) *tokendrop.GameSolution {
	var res *tokendrop.FlatGameResult
	var err error
	if solver == "threelevel" {
		res, err = tokendrop.SolveGame3LevelSharded(flat, opt)
	} else {
		res, err = tokendrop.SolveGameSharded(flat, opt)
	}
	if err != nil {
		log.Fatal(err)
	}
	sol := res.Solution(inst)
	if err := tokendrop.VerifyGame(sol); err != nil {
		log.Fatalf("replayed solution failed verification: %v", err)
	}
	return sol
}

// replayRun verifies a recording: a full re-run must match run.json
// bit-for-bit, and if snapshot.json exists, a resumed run must too. Any
// mismatch exits non-zero with the first divergence.
func replayRun(dir, solver string, tie tokendrop.TieBreak, seed int64, shards int) {
	f, err := os.Open(filepath.Join(dir, instanceFile))
	if err != nil {
		log.Fatal(err)
	}
	inst, err := tokendrop.LoadGame(f)
	f.Close()
	if err != nil {
		log.Fatalf("loading %s: %v", filepath.Join(dir, instanceFile), err)
	}
	f, err = os.Open(filepath.Join(dir, runFile))
	if err != nil {
		log.Fatal(err)
	}
	recorded, err := tokendrop.LoadSolution(f)
	f.Close()
	if err != nil {
		log.Fatalf("loading %s: %v", filepath.Join(dir, runFile), err)
	}

	flat := tokendrop.NewFlatGame(inst)
	opt := tokendrop.ShardedGameOptions{Tie: tie, Seed: seed, MaxRounds: 1 << 20, Shards: shards}

	// The recorded snapshot, when present, carries the run provenance —
	// refuse a replay under different solve parameters before diffing.
	sj, snapErr := tokendrop.ReadSnapshotFile(filepath.Join(dir, snapshotFile))
	if snapErr != nil && !errors.Is(snapErr, os.ErrNotExist) {
		log.Fatal(snapErr)
	}
	if sj != nil {
		if sj.Meta.Tie != tokendrop.TieName(tie) {
			log.Fatalf("recording used -random-ties=%v (tie %q); pass the same flags to replay",
				sj.Meta.Tie == "random", sj.Meta.Tie)
		}
		if sj.Meta.Seed != seed {
			log.Fatalf("recording used -seed %d, replay ran with -seed %d", sj.Meta.Seed, seed)
		}
	}

	fmt.Printf("replaying %s: n=%d m=%d tokens=%d\n", dir, inst.N(), inst.Graph().M(), inst.NumTokens())
	replayed := solveSharded(flat, inst, solver, opt)
	if d := tokendrop.DiffGameSolutions(recorded, replayed); d != nil {
		log.Fatalf("full replay: %v", d)
	}
	fmt.Printf("full replay matches: moves=%d rounds=%d\n", len(replayed.Moves), replayed.Rounds)

	if sj != nil {
		snap, err := tokendrop.BindGameSnapshot(sj, flat)
		if err != nil {
			log.Fatal(err)
		}
		ropt := opt
		ropt.ResumeFrom = snap
		resumed := solveSharded(flat, inst, solver, ropt)
		if d := tokendrop.DiffGameSolutions(recorded, resumed); d != nil {
			log.Fatalf("resume from snapshot (round %d): %v", snap.Round, d)
		}
		fmt.Printf("resume from snapshot at round %d matches bit-for-bit\n", snap.Round)
	} else {
		fmt.Println("no snapshot.json in the recording (run ended before the first snapshot interval)")
	}
	fmt.Println("replay verified")
}
