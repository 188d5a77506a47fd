package local

import (
	"errors"
	"testing"

	"tokendrop/internal/fault"
	"tokendrop/internal/graph"
)

// TestInjectedCrashSurfacesAndPoolSurvives pins the self-healing
// contract: a KindCrash fired at the round barrier panics one worker,
// Run returns a *WorkerCrashError in the ErrInjected chain with the
// crash round, and the same session then completes a clean re-run
// bit-identically to a never-faulted one.
func TestInjectedCrashSurfacesAndPoolSurvives(t *testing.T) {
	csr := graph.NewCSRFromGraph(graph.Torus2D(6, 6))
	clean := func() [][]Word {
		p := &flatDigest{csr: csr, rounds: 8, digest: make([][]Word, csr.N())}
		if _, err := runOnce(csr, p, 3, ShardedOptions{}); err != nil {
			t.Fatal(err)
		}
		return p.digest
	}
	want := clean()

	s := NewSession(3)
	defer s.Close()
	reg := fault.NewRegistry(7)
	site := reg.Arm(FaultSiteRound, fault.Schedule{Kind: fault.KindCrash, TriggerAt: 4})

	p := &flatDigest{csr: csr, rounds: 8, digest: make([][]Word, csr.N())}
	stats, err := s.Run(csr, p, ShardedOptions{Fault: site})
	var wce *WorkerCrashError
	if !errors.As(err, &wce) {
		t.Fatalf("faulted run: err = %v, want WorkerCrashError", err)
	}
	if !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("crash error %v does not match ErrInjected", err)
	}
	if wce.Round != 4 || wce.Shard < 0 || wce.Shard >= 3 {
		t.Fatalf("crash = %+v, want round 4, shard in [0,3)", wce)
	}
	if stats.Rounds != 3 {
		t.Fatalf("stats.Rounds = %d after crash in round 4, want 3 (last complete round)", stats.Rounds)
	}
	if tr := reg.Trace(); len(tr) != 1 || tr[0].Visit != 4 {
		t.Fatalf("trace = %+v, want one fire at visit 4", tr)
	}

	// The pool self-healed: the same session re-runs cleanly (the site
	// keeps counting visits, so TriggerAt=4 never fires again).
	p2 := &flatDigest{csr: csr, rounds: 8, digest: make([][]Word, csr.N())}
	if _, err := s.Run(csr, p2, ShardedOptions{Fault: site}); err != nil {
		t.Fatalf("re-run on healed session: %v", err)
	}
	for v := range want {
		for r := range want[v] {
			if p2.digest[v][r] != want[v][r] {
				t.Fatalf("healed re-run diverges at vertex %d round %d", v, r)
			}
		}
	}
}

// TestInjectedErrorAbortsAtQuiescentBarrier pins KindError semantics:
// the run aborts before the scheduled round is dispatched, no worker
// panics, and the reported rounds are the last complete round.
func TestInjectedErrorAbortsAtQuiescentBarrier(t *testing.T) {
	csr := graph.NewCSRFromGraph(graph.Cycle(8))
	reg := fault.NewRegistry(1)
	site := reg.Arm(FaultSiteRound, fault.Schedule{Kind: fault.KindError, TriggerAt: 3})
	p := newFlatCountdown(csr, 10)
	stats, err := runOnce(csr, p, 2, ShardedOptions{Fault: site})
	if !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected chain", err)
	}
	var wce *WorkerCrashError
	if errors.As(err, &wce) {
		t.Fatalf("KindError surfaced as a worker crash: %v", err)
	}
	if stats.Rounds != 2 {
		t.Fatalf("stats.Rounds = %d, want 2 complete rounds before the abort", stats.Rounds)
	}
}

// TestInjectedStallChangesNothing pins KindStall: a slow shard must not
// change any result (the barrier tolerates arbitrary skew).
func TestInjectedStallChangesNothing(t *testing.T) {
	csr := graph.NewCSRFromGraph(graph.Torus2D(5, 5))
	run := func(site *fault.Site) [][]Word {
		p := &flatDigest{csr: csr, rounds: 6, digest: make([][]Word, csr.N())}
		if _, err := runOnce(csr, p, 4, ShardedOptions{Fault: site}); err != nil {
			t.Fatal(err)
		}
		return p.digest
	}
	want := run(nil)
	reg := fault.NewRegistry(3)
	got := run(reg.Arm(FaultSiteRound, fault.Schedule{Kind: fault.KindStall, Every: 2, Delay: 2e6}))
	if len(reg.Trace()) == 0 {
		t.Fatal("stall schedule never fired")
	}
	for v := range want {
		for r := range want[v] {
			if got[v][r] != want[v][r] {
				t.Fatalf("stalled run diverges at vertex %d round %d", v, r)
			}
		}
	}
}

// panicAtRound is a program with an organic bug: it panics mid-step in
// a configured round on whichever shard owns vertex 0.
type panicAtRound struct {
	flatCountdown
	at int
}

func (p *panicAtRound) StepShard(round, shard int, verts []int32, recv, send []Word, halted []bool) {
	if round == p.at && len(verts) > 0 && verts[0] == 0 {
		panic("organic program bug")
	}
	p.flatCountdown.StepShard(round, shard, verts, recv, send, halted)
}

// TestOrganicPanicRecovered pins that a program bug no longer kills the
// process: it surfaces as a WorkerCrashError (outside the ErrInjected
// chain) and the session stays usable.
func TestOrganicPanicRecovered(t *testing.T) {
	csr := graph.NewCSRFromGraph(graph.Cycle(6))
	s := NewSession(2)
	defer s.Close()
	p := &panicAtRound{flatCountdown: *newFlatCountdown(csr, 5), at: 2}
	_, err := s.Run(csr, p, ShardedOptions{})
	var wce *WorkerCrashError
	if !errors.As(err, &wce) {
		t.Fatalf("err = %v, want WorkerCrashError", err)
	}
	if wce.Round != 2 || wce.Value != "organic program bug" {
		t.Fatalf("crash = %+v", wce)
	}
	if errors.Is(err, fault.ErrInjected) {
		t.Fatal("organic panic matched ErrInjected")
	}
	if _, err := s.Run(csr, newFlatCountdown(csr, 3), ShardedOptions{}); err != nil {
		t.Fatalf("re-run after organic crash: %v", err)
	}
}

// TestCrashVictimDeterministic pins that the same registry seed crashes
// the same shard in the same round across runs.
func TestCrashVictimDeterministic(t *testing.T) {
	csr := graph.NewCSRFromGraph(graph.Torus2D(6, 6))
	crash := func(seed int64) int {
		reg := fault.NewRegistry(seed)
		site := reg.Arm(FaultSiteRound, fault.Schedule{Kind: fault.KindCrash, TriggerAt: 3})
		p := &flatDigest{csr: csr, rounds: 8, digest: make([][]Word, csr.N())}
		_, err := runOnce(csr, p, 8, ShardedOptions{Fault: site})
		var wce *WorkerCrashError
		if !errors.As(err, &wce) {
			t.Fatalf("err = %v, want WorkerCrashError", err)
		}
		return wce.Shard
	}
	if a, b := crash(11), crash(11); a != b {
		t.Fatalf("same seed picked shards %d and %d", a, b)
	}
}

// TestDisabledFaultRunBitMatches pins that threading a nil site through
// the options changes nothing.
func TestDisabledFaultRunBitMatches(t *testing.T) {
	csr := graph.NewCSRFromGraph(graph.Torus2D(6, 6))
	run := func(site *fault.Site) [][]Word {
		p := &flatDigest{csr: csr, rounds: 8, digest: make([][]Word, csr.N())}
		if _, err := runOnce(csr, p, 2, ShardedOptions{Fault: site}); err != nil {
			t.Fatal(err)
		}
		return p.digest
	}
	want, got := run(nil), run(fault.NewRegistry(1).Site(FaultSiteRound))
	for v := range want {
		for r := range want[v] {
			if got[v][r] != want[v][r] {
				t.Fatalf("disarmed-site run diverges at vertex %d round %d", v, r)
			}
		}
	}
}
