package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"time"

	"tokendrop"
	"tokendrop/internal/core"
	"tokendrop/internal/local"
)

// The game workload: the Theorem 4.1 proposal game solved one-shot on
// the sharded engine. The engine round loop and the game program do
// nearly all the work, over tens of MB of CSR and message buffers.

// layered returns the fixed layered shape (L=5, ParentDeg 4, token
// density 0.6, free bottom layer) at the given width.
func layered(width int) tokendrop.LayeredConfig {
	return tokendrop.LayeredConfig{Levels: 5, Width: width, ParentDeg: 4, TokenProb: 0.6, FreeBottom: true}
}

// newLayered generates the seed's layered game, traced as graph.build.
func (b *bench) newLayered(width int) *tokendrop.FlatGame {
	sp := b.rec.begin("graph.build", -1, -1)
	fi := tokendrop.RandomLayeredFlatGame(layered(width), rand.New(rand.NewSource(b.seed)))
	b.rec.end(sp)
	return fi
}

func oneShot(shardCount int) tokendrop.ShardedGameOptions {
	return tokendrop.ShardedGameOptions{Tie: tokendrop.TieFirstPort, Shards: shardCount}
}

// sameGame checks that a solve bit-matches the run's reference result.
func sameGame(got, ref *tokendrop.FlatGameResult) error {
	if got.Stats != ref.Stats || !slices.Equal(got.Final, ref.Final) || !slices.Equal(got.Moves, ref.Moves) {
		return fmt.Errorf("result differs from the reference solve (%d moves, %d rounds; reference %d moves, %d rounds)",
			len(got.Moves), got.Stats.Rounds, len(ref.Moves), ref.Stats.Rounds)
	}
	return nil
}

// verifyGame checks a result against the Section 4 rules on the
// materialized instance. It is the benchmark's checker, so runs call it
// after reading their peak resident set.
func verifyGame(fi *tokendrop.FlatGame, res *tokendrop.FlatGameResult) error {
	if err := tokendrop.VerifyGame(res.Solution(fi.Instance())); err != nil {
		return fmt.Errorf("reference solve fails verification: %w", err)
	}
	return nil
}

// game is a set-up game workload: the instance and the warm-up solve,
// which every timed solve must bit-match.
type game struct {
	b   *bench
	fi  *tokendrop.FlatGame
	ref *tokendrop.FlatGameResult
}

func (b *bench) setupGame() (*game, error) {
	fi := b.newLayered(b.sizes.gameWidth)
	ref, err := tokendrop.SolveGameSharded(fi, oneShot(shards))
	if err != nil {
		return nil, fmt.Errorf("warm-up solve: %w", err)
	}
	return &game{b: b, fi: fi, ref: ref}, nil
}

// solve runs one timed solve and checks it. It returns the wall and CPU
// time of the call alone.
func (g *game) solve(opt tokendrop.ShardedGameOptions) (float64, time.Duration, error) {
	c0 := cpuSelf()
	t0 := time.Now()
	res, err := tokendrop.SolveGameSharded(g.fi, opt)
	d, cpu := sinceMS(t0), cpuSelf()-c0
	if err == nil {
		err = sameGame(res, g.ref)
	}
	return d, cpu, err
}

func gameE2E(b *bench) error {
	var g *game
	setupCPU, setupWall, err := setups(func() (time.Duration, error) {
		c0 := cpuSelf()
		var err error
		g, err = b.setupGame()
		return cpuSelf() - c0, err
	})
	if err != nil {
		return err
	}
	var cpu time.Duration
	failed := 0
	lat := b.timed(b.seconds, 1, func(int) []float64 {
		d, c, err := g.solve(oneShot(shards))
		cpu += c
		if err != nil {
			failed++
			b.out.notef("failed op: %v", err)
		}
		return []float64{d}
	})
	peak, err := procPeakRSSKiB("self")
	if err != nil {
		return err
	}
	if err := verifyGame(g.fi, g.ref); err != nil {
		b.out.notef("%v", err)
		failed = len(lat)
	}
	b.e2e(setupCPU, setupWall, lat, cpu, peak, failed)
	return nil
}

// tracedSolve runs one one-shot solve with a span around the call, a
// span per round (timestamped at each round barrier by a Stop callback
// that never stops), a span from the last reported barrier to the
// return, and the call's Stats and MemStats deltas as counts.
func (g *game) tracedSolve() (float64, error) {
	rec := g.b.rec
	op := rec.newOp()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	sp := rec.begin("core.solve", -1, op)
	last := rec.spans[sp].Start
	opt := oneShot(shards)
	opt.Stop = func(round int) bool {
		now := rec.now()
		name := "local.round"
		if round == 1 {
			name = "local.first_round"
		}
		rec.add(name, sp, op, last, now)
		last = now
		return false
	}
	res, err := tokendrop.SolveGameSharded(g.fi, opt)
	end := rec.now()
	rec.add("core.finish", sp, op, last, end)
	rec.spans[sp].End = end
	runtime.ReadMemStats(&m1)
	if err != nil {
		return rec.spans[sp].ms(), err
	}
	rec.count(sp, "rounds", float64(res.Stats.Rounds))
	rec.count(sp, "messages", float64(res.Stats.Messages))
	rec.count(sp, "moves", float64(len(res.Moves)))
	rec.count(sp, "allocs", float64(m1.Mallocs-m0.Mallocs))
	rec.count(sp, "alloc_bytes", float64(m1.TotalAlloc-m0.TotalAlloc))
	return rec.spans[sp].ms(), sameGame(res, g.ref)
}

// pairs times diagReps alternating pairs of solves as spans a and b.
func (g *game) pairs(a string, optA tokendrop.ShardedGameOptions, b string, optB tokendrop.ShardedGameOptions) int {
	rec := g.b.rec
	failed := 0
	for i := 0; i < diagReps; i++ {
		for _, p := range []struct {
			name string
			opt  tokendrop.ShardedGameOptions
		}{{a, optA}, {b, optB}} {
			sp := rec.begin(p.name, -1, rec.newOp())
			_, _, err := g.solve(p.opt)
			rec.end(sp)
			if err != nil {
				failed++
				g.b.out.notef("failed %s: %v", p.name, err)
			}
		}
	}
	return failed
}

func gameTrace(b *bench, main bool) error {
	rec := b.rec
	from := rec.mark()
	freeMemory()
	g, err := b.setupGame()
	if err != nil {
		return err
	}
	failed, attempted := 0, 0
	var traced, untraced []float64
	run := func(i int) []float64 {
		attempted++
		var d float64
		var err error
		if i%2 == 1 || !main {
			d, err = g.tracedSolve()
			traced = append(traced, d)
		} else {
			d, _, err = g.solve(oneShot(shards))
			untraced = append(untraced, d)
		}
		if err != nil {
			failed++
			b.out.notef("failed op: %v", err)
		}
		return []float64{d}
	}
	if main {
		b.timed(b.seconds, 2, run)
		b.overhead(traced, untraced)
	} else {
		for i := 0; i < probeOps; i++ {
			run(i)
		}
	}

	// Shard speedup: the same one-shot solve at 1 and at 2 shards.
	failed += g.pairs("core.solve_shards1", oneShot(1), "core.solve_shards2", oneShot(shards))
	// Warm over one-shot: the same solve on a caller-held session and
	// workspace, as the phase loops run their subgames.
	sess := local.NewSession(shards)
	warm := oneShot(shards)
	warm.Session, warm.Workspace = sess, core.NewSolverWorkspace()
	if _, _, err := g.solve(warm); err != nil {
		failed++
		b.out.notef("failed warm-up of the warm session: %v", err)
	}
	failed += g.pairs("core.solve_warm", warm, "core.solve_oneshot", oneShot(shards))
	sess.Close()
	attempted += 4 * diagReps

	if err := verifyGame(g.fi, g.ref); err != nil {
		b.out.notef("%v", err)
		failed = attempted
	}
	b.out.ops(attempted, failed)

	b.out.set("graph.build_ms", rec.medianMS(from, "graph.build"), "ms")
	b.out.set("local.rounds", rec.medianCount(from, "core.solve", "rounds"), "count")
	b.out.set("local.first_round_ms", rec.medianMS(from, "local.first_round"), "ms")
	b.out.set("local.round_ms_p50", rec.medianMS(from, "local.round"), "ms")
	b.out.set("core.finish_ms", rec.medianMS(from, "core.finish"), "ms")
	b.out.set("core.moves_per_message",
		rec.sumCount(from, "core.solve", "moves")/rec.sumCount(from, "core.solve", "messages"), "ratio")
	b.out.set("core.allocs_per_solve", rec.medianCount(from, "core.solve", "allocs"), "count")
	b.out.set("core.alloc_mb_per_solve", rec.medianCount(from, "core.solve", "alloc_bytes")/(1<<20), "MiB")
	b.out.set("local.shard_speedup",
		rec.medianMS(from, "core.solve_shards1")/rec.medianMS(from, "core.solve_shards2"), "ratio")
	b.out.set("local.warm_over_oneshot",
		rec.medianMS(from, "core.solve_warm")/rec.medianMS(from, "core.solve_oneshot"), "ratio")
	return nil
}
