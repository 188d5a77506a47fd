package main

import (
	"fmt"
	"os"
	"os/exec"
	"syscall"
	"time"

	"tokendrop"
	"tokendrop/internal/local"
	"tokendrop/internal/mp"
)

// The game-mp workload: the game solve as a two-process fleet over
// ProcTransport, with the same program and shard map as an in-process
// solve at two shards, so the difference is the mp layer. This binary
// doubles as the worker (-mp-worker).

// fleet is a set-up game-mp workload: the instance, the warm-up fleet
// solve every timed solve must bit-match, and the exact per-round wire
// cost the transport must ship.
type fleet struct {
	fi            *tokendrop.FlatGame
	ref           *tokendrop.FlatGameResult
	opt           mp.Options
	frames, bytes int64
	workers       []*exec.Cmd // the current solve's worker processes
}

func (b *bench) setupFleet() (*fleet, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	f := &fleet{fi: b.newLayered(b.sizes.mpWidth)}
	f.opt = mp.Options{
		Procs:         2,
		ShardsPerProc: 1,
		Solver:        "proposal",
		Tie:           tokendrop.TieFirstPort,
		Command: func(int) *exec.Cmd {
			cmd := exec.Command(exe, "-mp-worker")
			// A worker must not outlive the benchmark.
			cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
			f.workers = append(f.workers, cmd)
			return cmd
		},
	}
	ref, _, err := mp.Solve(f.fi, f.opt)
	if err != nil {
		return nil, fmt.Errorf("warm-up fleet solve: %w", err)
	}
	f.ref = ref
	return f, nil
}

// plan computes the exact wire cost per round (checking, so outside
// set-up).
func (f *fleet) plan() error {
	frames, bytes, err := local.MPWireCost(f.fi.CSR(), f.opt.Procs, f.opt.ShardsPerProc)
	f.frames, f.bytes = int64(frames), bytes
	return err
}

// fleetOp is one fleet solve's measurements.
type fleetOp struct {
	ms                float64
	selfCPU, childCPU time.Duration
	workerPeakKiB     int64
	stats             mp.RunStats
}

// solve runs one timed fleet solve and checks it: bit-match with the
// warm-up, no restarts, and wire counts equal to the plan. Worker CPU
// and peak resident set come from each worker's own rusage, which
// mp.Solve has waited for by the time it returns.
func (f *fleet) solve() (fleetOp, error) {
	f.workers = f.workers[:0]
	s0 := cpuSelf()
	t0 := time.Now()
	res, st, err := mp.Solve(f.fi, f.opt)
	o := fleetOp{ms: sinceMS(t0), selfCPU: cpuSelf() - s0, childCPU: f.workerCPU(), stats: st}
	for _, w := range f.workers {
		if w.ProcessState != nil {
			o.workerPeakKiB = max(o.workerPeakKiB, w.ProcessState.SysUsage().(*syscall.Rusage).Maxrss)
		}
	}
	switch {
	case err != nil:
		return o, err
	case st.Restarts != 0:
		return o, fmt.Errorf("%d fleet restarts", st.Restarts)
	case st.Rounds != st.RoundsExecuted:
		return o, fmt.Errorf("%d rounds executed for %d solved", st.RoundsExecuted, st.Rounds)
	case st.WireFrames != f.frames*int64(st.Rounds) || st.WireBytes != f.bytes*int64(st.Rounds):
		return o, fmt.Errorf("wire %d frames / %d bytes over %d rounds, plan %d / %d per round",
			st.WireFrames, st.WireBytes, st.Rounds, f.frames, f.bytes)
	}
	return o, sameGame(res, f.ref)
}

// workerCPU sums the CPU time of the last solve's worker processes,
// which mp.Solve has waited for by the time it returns.
func (f *fleet) workerCPU() time.Duration {
	var t time.Duration
	for _, w := range f.workers {
		if w.ProcessState != nil {
			t += w.ProcessState.UserTime() + w.ProcessState.SystemTime()
		}
	}
	return t
}

// verify checks the warm-up fleet solve against an in-process solve at
// the same shard count and the Section 4 rules.
func (f *fleet) verify() error {
	in, err := tokendrop.SolveGameSharded(f.fi, oneShot(f.opt.Procs*f.opt.ShardsPerProc))
	if err != nil {
		return fmt.Errorf("in-process reference solve: %w", err)
	}
	if err := sameGame(f.ref, in); err != nil {
		return fmt.Errorf("fleet solve vs in-process solve: %w", err)
	}
	return verifyGame(f.fi, in)
}

func mpE2E(b *bench) error {
	var f *fleet
	setupCPU, setupWall, err := setups(func() (time.Duration, error) {
		c0 := cpuSelf()
		var err error
		f, err = b.setupFleet()
		if err != nil {
			return 0, err
		}
		return cpuSelf() - c0 + f.workerCPU(), nil
	})
	if err != nil {
		return err
	}
	if err := f.plan(); err != nil {
		return err
	}
	var cpu time.Duration
	var workerPeak int64
	failed := 0
	lat := b.timed(b.seconds, 1, func(int) []float64 {
		o, err := f.solve()
		cpu += o.selfCPU + o.childCPU
		workerPeak = max(workerPeak, o.workerPeakKiB)
		if err != nil {
			failed++
			b.out.notef("failed op: %v", err)
		}
		return []float64{o.ms}
	})
	peak, err := procPeakRSSKiB("self")
	if err != nil {
		return err
	}
	peak = max(peak, workerPeak)
	if err := f.verify(); err != nil {
		b.out.notef("%v", err)
		failed = len(lat)
	}
	b.e2e(setupCPU, setupWall, lat, cpu, peak, failed)
	return nil
}

func mpTrace(b *bench, main bool) error {
	rec := b.rec
	from := rec.mark()
	freeMemory()
	f, err := b.setupFleet()
	if err != nil {
		return err
	}
	if err := f.plan(); err != nil {
		return err
	}
	failed, attempted := 0, 0
	var traced, untraced []float64
	run := func(i int) []float64 {
		attempted++
		tr := i%2 == 1 || !main
		sp := -1
		if tr {
			sp = rec.begin("mp.solve", -1, rec.newOp())
		}
		o, err := f.solve()
		if tr {
			rec.end(sp)
			rec.count(sp, "rounds", float64(o.stats.Rounds))
			rec.count(sp, "rounds_executed", float64(o.stats.RoundsExecuted))
			rec.count(sp, "restarts", float64(o.stats.Restarts))
			rec.count(sp, "wire_frames", float64(o.stats.WireFrames))
			rec.count(sp, "wire_bytes", float64(o.stats.WireBytes))
			rec.count(sp, "coordinator_cpu_ms", ms(o.selfCPU))
			rec.count(sp, "worker_cpu_ms", ms(o.childCPU))
			traced = append(traced, o.ms)
		} else {
			untraced = append(untraced, o.ms)
		}
		if err != nil {
			failed++
			b.out.notef("failed op: %v", err)
		}
		return []float64{o.ms}
	}
	if main {
		b.timed(b.seconds, 2, run)
		b.overhead(traced, untraced)
	} else {
		for i := 0; i < probeOps; i++ {
			run(i)
		}
	}
	// The fleet's fixed cost: encoding the instance, and the op minus a
	// one-shot in-process solve of the same instance and shard map.
	for i := 0; i < diagReps; i++ {
		sp := rec.begin("mp.encode", -1, -1)
		mp.EncodeInstance(f.fi)
		rec.end(sp)
		sp = rec.begin("mp.inproc_solve", -1, rec.newOp())
		res, err := tokendrop.SolveGameSharded(f.fi, oneShot(f.opt.Procs*f.opt.ShardsPerProc))
		rec.end(sp)
		attempted++
		if err == nil {
			err = sameGame(res, f.ref)
		}
		if err != nil {
			failed++
			b.out.notef("failed in-process solve: %v", err)
		}
	}
	if err := f.verify(); err != nil {
		b.out.notef("%v", err)
		failed = attempted
	}
	b.out.ops(attempted, failed)

	executed := rec.sumCount(from, "mp.solve", "rounds_executed")
	b.out.set("graph.build_ms", rec.medianMS(from, "graph.build"), "ms")
	b.out.set("local.rounds", rec.medianCount(from, "mp.solve", "rounds"), "count")
	b.out.set("mp.encode_ms", rec.medianMS(from, "mp.encode"), "ms")
	b.out.set("mp.overhead_ms", rec.medianMS(from, "mp.solve")-rec.medianMS(from, "mp.inproc_solve"), "ms")
	b.out.set("mp.wire_frames_per_round", rec.sumCount(from, "mp.solve", "wire_frames")/executed, "count")
	b.out.set("mp.wire_bytes_per_round", rec.sumCount(from, "mp.solve", "wire_bytes")/executed, "bytes")
	b.out.set("mp.worker_cpu_ms", rec.medianCount(from, "mp.solve", "worker_cpu_ms"), "ms")
	b.out.set("mp.coordinator_cpu_ms", rec.medianCount(from, "mp.solve", "coordinator_cpu_ms"), "ms")
	b.out.set("mp.restarts", rec.sumCount(from, "mp.solve", "restarts"), "count")
	b.out.set("mp.useful_round_ratio", rec.sumCount(from, "mp.solve", "rounds")/executed, "ratio")
	return nil
}
