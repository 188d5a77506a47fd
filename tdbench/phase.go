package main

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"time"

	"tokendrop"
)

// The phase workload: the three phase loops on skewed-degree inputs,
// many phases of small subgames on each loop's warmed session. assign
// and bounded share one network.

// phaseResult is one op's three results.
type phaseResult struct {
	o *tokendrop.OrientShardedResult
	a *tokendrop.AssignShardedResult
	k *tokendrop.BoundedShardedResult
}

// phase is a set-up phase workload: the two inputs and the warm-up op.
type phase struct {
	b   *bench
	c   *tokendrop.FlatGraph
	fb  *tokendrop.FlatBipartite
	ref phaseResult
}

func (b *bench) setupPhase() (*phase, error) {
	sp := b.rec.begin("graph.build", -1, -1)
	rng := rand.New(rand.NewSource(b.seed))
	c := tokendrop.PowerLawFlat(b.sizes.orientN, 2, 16, rng)
	fb := tokendrop.PowerLawBipartiteFlat(b.sizes.assignNL, b.sizes.assignNR, 2, 8, rng)
	b.rec.end(sp)
	p := &phase{b: b, c: c, fb: fb}
	ref, err := p.solve(-1)
	if err != nil {
		return nil, fmt.Errorf("warm-up op: %w", err)
	}
	p.ref = ref
	return p, nil
}

// solve runs the three solves. With op ≥ 0 each call is traced with
// its result's phase counts and its MemStats deltas.
func (p *phase) solve(op int) (phaseResult, error) {
	var r phaseResult
	var err error
	p.call(op, "orient.solve", func() (int, int, int, int) {
		if r.o, err = tokendrop.StableOrientationSharded(p.c, tokendrop.OrientShardedOptions{
			Tie: tokendrop.TieFirstPort, Shards: shards}); err != nil {
			return 0, 0, 0, 0
		}
		proposals, accepted := 0, 0
		for _, ph := range r.o.PhaseLog {
			proposals, accepted = proposals+ph.Proposals, accepted+ph.Accepted
		}
		return r.o.Phases, r.o.Rounds, proposals, accepted
	})
	if err != nil {
		return r, fmt.Errorf("orientation: %w", err)
	}
	p.call(op, "assign.solve", func() (int, int, int, int) {
		if r.a, err = tokendrop.StableAssignmentSharded(p.fb, tokendrop.AssignShardedOptions{
			Tie: tokendrop.TieFirstPort, Shards: shards}); err != nil {
			return 0, 0, 0, 0
		}
		proposals, accepted := 0, 0
		for _, ph := range r.a.PhaseLog {
			proposals, accepted = proposals+ph.Proposals, accepted+ph.Accepted
		}
		return r.a.Phases, r.a.Rounds, proposals, accepted
	})
	if err != nil {
		return r, fmt.Errorf("assignment: %w", err)
	}
	p.call(op, "bounded.solve", func() (int, int, int, int) {
		if r.k, err = tokendrop.KBoundedAssignmentSharded(p.fb, tokendrop.BoundedShardedOptions{
			K: 2, Tie: tokendrop.TieFirstPort, Shards: shards}); err != nil {
			return 0, 0, 0, 0
		}
		proposals, accepted := 0, 0
		for _, ph := range r.k.PhaseLog {
			proposals, accepted = proposals+ph.Proposals, accepted+ph.Accepted
		}
		return r.k.Phases, r.k.Rounds, proposals, accepted
	})
	if err != nil {
		return r, fmt.Errorf("k-bounded assignment: %w", err)
	}
	return r, nil
}

// call runs one facade call, traced when op ≥ 0. f returns the result's
// phase and round counts and its proposals and acceptances summed over
// the phase log (a loop over a few dozen phases).
func (p *phase) call(op int, name string, f func() (phases, rounds, proposals, accepted int)) {
	rec := p.b.rec
	if op < 0 {
		f()
		return
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	sp := rec.begin(name, -1, op)
	phases, rounds, proposals, accepted := f()
	rec.end(sp)
	runtime.ReadMemStats(&m1)
	rec.count(sp, "phases", float64(phases))
	rec.count(sp, "rounds", float64(rounds))
	rec.count(sp, "proposals", float64(proposals))
	rec.count(sp, "accepted", float64(accepted))
	rec.count(sp, "allocs", float64(m1.Mallocs-m0.Mallocs))
}

// check requires stable results that bit-match the warm-up op.
func (p *phase) check(r phaseResult) error {
	switch {
	case !r.o.Stable():
		return fmt.Errorf("orientation is not stable")
	case !r.a.Stable():
		return fmt.Errorf("assignment is not stable")
	case !r.k.KStable():
		return fmt.Errorf("k-bounded assignment is not 2-stable")
	case p.ref.o != nil && !reflect.DeepEqual(r.o, p.ref.o):
		return fmt.Errorf("orientation differs from the warm-up op")
	case p.ref.a != nil && !reflect.DeepEqual(r.a, p.ref.a):
		return fmt.Errorf("assignment differs from the warm-up op")
	case p.ref.k != nil && !reflect.DeepEqual(r.k, p.ref.k):
		return fmt.Errorf("k-bounded assignment differs from the warm-up op")
	}
	return nil
}

// op runs and checks one timed op; traced when op ≥ 0.
func (p *phase) op(op int) (float64, error) {
	t0 := time.Now()
	r, err := p.solve(op)
	d := sinceMS(t0)
	if err == nil {
		err = p.check(r)
	}
	return d, err
}

func phaseE2E(b *bench) error {
	var p *phase
	setupCPU, setupWall, err := setups(func() (time.Duration, error) {
		c0 := cpuSelf()
		var err error
		p, err = b.setupPhase()
		return cpuSelf() - c0, err
	})
	if err != nil {
		return err
	}
	failed := 0
	if err := p.check(p.ref); err != nil {
		return fmt.Errorf("warm-up op: %w", err)
	}
	var cpu time.Duration
	lat := b.timed(b.seconds, 1, func(int) []float64 {
		c0 := cpuSelf()
		t0 := time.Now()
		r, err := p.solve(-1)
		d := sinceMS(t0)
		cpu += cpuSelf() - c0
		if err == nil {
			err = p.check(r)
		}
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
	b.e2e(setupCPU, setupWall, lat, cpu, peak, failed)
	return nil
}

func phaseTrace(b *bench, main bool) error {
	rec := b.rec
	from := rec.mark()
	freeMemory()
	p, err := b.setupPhase()
	if err != nil {
		return err
	}
	if err := p.check(p.ref); err != nil {
		return fmt.Errorf("warm-up op: %w", err)
	}
	failed, attempted := 0, 0
	var traced, untraced []float64
	run := func(i int) []float64 {
		attempted++
		op := -1
		if i%2 == 1 || !main {
			op = rec.newOp()
		}
		d, err := p.op(op)
		if op >= 0 {
			traced = append(traced, d)
		} else {
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
	b.out.ops(attempted, failed)

	b.out.set("graph.build_ms", rec.medianMS(from, "graph.build"), "ms")
	for _, layer := range []string{"orient", "assign", "bounded"} {
		name := layer + ".solve"
		solveMS := rec.medianMS(from, name)
		phases := rec.medianCount(from, name, "phases")
		b.out.set(layer+".solve_ms", solveMS, "ms")
		b.out.set(layer+".phases", phases, "count")
		b.out.set(layer+".rounds", rec.medianCount(from, name, "rounds"), "count")
		b.out.set(layer+".ms_per_phase", solveMS/phases, "ms")
		b.out.set(layer+".accept_ratio",
			rec.sumCount(from, name, "accepted")/rec.sumCount(from, name, "proposals"), "ratio")
		b.out.set(layer+".allocs_per_solve", rec.medianCount(from, name, "allocs"), "count")
	}
	return nil
}
