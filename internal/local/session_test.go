package local

import (
	"testing"

	"tokendrop/internal/graph"
)

// TestSessionReuseMatchesRunSharded drives one session through a sequence
// of graphs of varying sizes (growing and shrinking) and checks every run
// against a fresh one-shot execution (runOnce) of the same program.
func TestSessionReuseMatchesRunSharded(t *testing.T) {
	sess := NewSession(3)
	defer sess.Close()
	for _, n := range []int{5, 40, 12, 200, 7, 64} {
		csr := graph.NewCSRFromGraph(graph.Cycle(n))
		p1 := newFlatCountdown(csr, n%4+2)
		s1, err := sess.Run(csr, p1, ShardedOptions{})
		if err != nil {
			t.Fatalf("n=%d: session run: %v", n, err)
		}
		p2 := newFlatCountdown(csr, n%4+2)
		s2, err := runOnce(csr, p2, 3, ShardedOptions{})
		if err != nil {
			t.Fatalf("n=%d: fresh run: %v", n, err)
		}
		if s1.Rounds != s2.Rounds || s1.Halted != s2.Halted {
			t.Fatalf("n=%d: session stats %+v != fresh stats %+v", n, s1, s2)
		}
		if p1.total() != p2.total() {
			t.Fatalf("n=%d: session delivered %d, fresh delivered %d", n, p1.total(), p2.total())
		}
	}
}

// TestSessionMoreShardsThanVertices checks that a session whose worker
// count exceeds the vertex count (empty trailing shards) still runs
// correctly — the phase loops hand tiny subgames to wide sessions.
func TestSessionMoreShardsThanVertices(t *testing.T) {
	sess := NewSession(8)
	defer sess.Close()
	csr := graph.NewCSRFromGraph(graph.Cycle(3))
	p := newFlatCountdown(csr, 2)
	stats, err := sess.Run(csr, p, ShardedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Rounds != 2 || stats.Halted != 3 {
		t.Fatalf("stats = %+v, want 2 rounds, 3 halted", stats)
	}
}

// TestSessionEmptyGraph mirrors the one-shot contract on n = 0.
func TestSessionEmptyGraph(t *testing.T) {
	sess := NewSession(2)
	defer sess.Close()
	b := graph.NewCSRBuilder(0, 0)
	csr := b.Build()
	p := newFlatCountdown(csr, 1)
	stats, err := sess.Run(csr, p, ShardedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Rounds != 0 || stats.Shards != 0 {
		t.Fatalf("stats = %+v, want zero value", stats)
	}
}

// TestSessionClosedRunErrors checks Run on a closed session fails loudly
// instead of deadlocking.
func TestSessionClosedRunErrors(t *testing.T) {
	sess := NewSession(2)
	sess.Close()
	sess.Close() // idempotent
	csr := graph.NewCSRFromGraph(graph.Cycle(4))
	if _, err := sess.Run(csr, newFlatCountdown(csr, 1), ShardedOptions{}); err == nil {
		t.Fatal("Run on a closed session succeeded")
	}
}

// flatSpin is the steady-state probe of the allocation tests: every
// vertex rebroadcasts a constant word each round and never halts; the
// run is bounded by Stop. It allocates nothing after construction.
type flatSpin struct{ csr *graph.CSR }

func (p *flatSpin) InitShards(bounds []int) {}

func (p *flatSpin) StepShard(round, shard int, verts []int32, recv, send []Word, halted []bool) {
	for _, v32 := range verts {
		a0, a1 := p.csr.ArcRange(int(v32))
		for i := a0; i < a1; i++ {
			send[p.csr.Rev[i]] = 1
		}
	}
}

// TestSessionParallelFor checks the kernel API against a sequential
// reference over many sizes (including 0 and fewer items than shards):
// every index is visited exactly once, with the documented slice bounds.
func TestSessionParallelFor(t *testing.T) {
	for _, shards := range []int{1, 2, 3, 8} {
		sess := NewSession(shards)
		for _, n := range []int{0, 1, 2, 7, 64, 1000} {
			visits := make([]int32, n)
			sess.ParallelFor(n, func(sh, lo, hi int) {
				if lo != n*sh/shards || hi != n*(sh+1)/shards {
					panic("slice bounds diverge from the documented split")
				}
				for i := lo; i < hi; i++ {
					visits[i]++
				}
			})
			for i, c := range visits {
				if c != 1 {
					t.Fatalf("shards=%d n=%d: index %d visited %d times", shards, n, i, c)
				}
			}
		}
		sess.Close()
	}
}

// TestSessionParallelForReuse interleaves ParallelFor dispatches with
// engine runs on one session — the phase-loop usage pattern — and checks
// both against fresh executions, mirroring TestSessionReuseMatchesRunSharded.
func TestSessionParallelForReuse(t *testing.T) {
	sess := NewSession(3)
	defer sess.Close()
	for _, n := range []int{5, 40, 12, 200, 7, 64} {
		// A central-pass stand-in: a per-index transform plus a per-shard
		// partial reduction, combined after the barrier.
		sq := make([]int64, n)
		partial := make([]int64, sess.Shards())
		sess.ParallelFor(n, func(sh, lo, hi int) {
			var sum int64
			for i := lo; i < hi; i++ {
				sq[i] = int64(i) * int64(i)
				sum += sq[i]
			}
			partial[sh] = sum
		})
		var got, want int64
		for _, p := range partial {
			got += p
		}
		for i := 0; i < n; i++ {
			want += int64(i) * int64(i)
		}
		if got != want {
			t.Fatalf("n=%d: parallel reduction %d != sequential %d", n, got, want)
		}

		csr := graph.NewCSRFromGraph(graph.Cycle(n))
		p1 := newFlatCountdown(csr, n%4+2)
		s1, err := sess.Run(csr, p1, ShardedOptions{})
		if err != nil {
			t.Fatalf("n=%d: session run: %v", n, err)
		}
		p2 := newFlatCountdown(csr, n%4+2)
		s2, err := runOnce(csr, p2, 3, ShardedOptions{})
		if err != nil {
			t.Fatalf("n=%d: fresh run: %v", n, err)
		}
		if s1 != s2 || p1.total() != p2.total() {
			t.Fatalf("n=%d: session run diverges from fresh run after ParallelFor", n)
		}
	}
}

// TestSessionParallelForPanic checks that a kernel panic is propagated to
// the caller and that the session (workers included) survives it.
func TestSessionParallelForPanic(t *testing.T) {
	sess := NewSession(4)
	defer sess.Close()
	boom := func() (recovered any) {
		defer func() { recovered = recover() }()
		sess.ParallelFor(100, func(sh, lo, hi int) {
			if sh == 2 {
				panic("kernel boom")
			}
		})
		return nil
	}
	if r := boom(); r != "kernel boom" {
		t.Fatalf("recovered %v, want the kernel's panic value", r)
	}
	// The pool must still serve dispatches and runs.
	count := make([]int32, 50)
	sess.ParallelFor(50, func(sh, lo, hi int) {
		for i := lo; i < hi; i++ {
			count[i]++
		}
	})
	for i, c := range count {
		if c != 1 {
			t.Fatalf("after panic: index %d visited %d times", i, c)
		}
	}
	csr := graph.NewCSRFromGraph(graph.Cycle(9))
	if _, err := sess.Run(csr, newFlatCountdown(csr, 2), ShardedOptions{}); err != nil {
		t.Fatalf("Run after kernel panic: %v", err)
	}
}

// TestSessionParallelForClosed pins the loud-failure contract.
func TestSessionParallelForClosed(t *testing.T) {
	sess := NewSession(2)
	sess.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("ParallelFor on a closed session did not panic")
		}
	}()
	sess.ParallelFor(10, func(sh, lo, hi int) {})
}

// TestSessionParallelForZeroAlloc asserts the kernel-API half of the
// zero-allocation contract: a warmed dispatch (hoisted kernel closure)
// allocates nothing.
func TestSessionParallelForZeroAlloc(t *testing.T) {
	sess := NewSession(4)
	defer sess.Close()
	out := make([]int64, 4096)
	kernel := func(sh, lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = int64(i)
		}
	}
	run := func() { sess.ParallelFor(len(out), kernel) }
	run() // warm: worker stacks reach steady state
	if allocs := testing.AllocsPerRun(10, run); allocs != 0 {
		t.Errorf("warmed Session.ParallelFor allocated %.1f objects per call; want 0", allocs)
	}
}

// TestSessionRunZeroAlloc asserts the engine-level half of the
// zero-allocation contract: a warmed session executes entire repeat Run
// calls — shard bounds, buffer reset, every round, awake-list
// bookkeeping — without a single heap allocation. The program-level half
// (proposal and hypergame programs) is asserted in internal/core and
// internal/hypergame.
func TestSessionRunZeroAlloc(t *testing.T) {
	csr := graph.NewCSRFromGraph(graph.Complete(24))
	sess := NewSession(4)
	defer sess.Close()
	p := &flatSpin{csr: csr}
	stop := func(round int) bool { return round >= 16 }
	run := func() {
		if _, err := sess.Run(csr, p, ShardedOptions{Stop: stop}); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm: buffers, lists, and worker stacks reach steady state
	if allocs := testing.AllocsPerRun(10, run); allocs != 0 {
		t.Errorf("warmed Session.Run allocated %.1f objects per call; want 0", allocs)
	}
}
