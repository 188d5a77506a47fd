package local

import (
	"fmt"
	"runtime"
	"time"

	"tokendrop/internal/fault"
	"tokendrop/internal/graph"
	"tokendrop/internal/reuse"
)

// This file adds the reusable execution layer of the sharded engine,
// which is also its only entry point. Running a game pays three
// construction costs the LOCAL model never charges for: both message
// buffers and the halted/awake bookkeeping are allocated, and one worker
// goroutine per shard is spawned (and later torn down). A single game
// amortizes that over its whole run, but the phase loops of the
// orientation and assignment layers solve dozens of subgames per solve —
// at 10⁶ vertices the churn dominates the non-algorithmic cost. A Session
// hoists all of it: the worker pool is spawned once and parked on
// channels between runs, the buffers and per-shard lists are grown
// monotonically and rebuilt in place, and the shard bounds are
// recomputed in place for every subgame. A warmed Session therefore
// executes steady-state rounds — and entire repeat Run calls — without a
// single heap allocation (asserted by the AllocsPerRun regression tests
// in this package and in internal/core). A one-shot solve is a session
// too: the solver starts one, runs on it, and closes it. Results never
// depend on the session's worker count.

// scrubEntry queues a recently halted vertex whose two stale out-buffers
// must be zeroed before it can be left alone for good.
type scrubEntry struct {
	v         int32
	haltRound int32
}

// roundWork is the per-dispatch message from the coordinator to a worker:
// either one engine round (the round number and the two buffer roles) or,
// when kernel is non-nil, one ParallelFor slice [lo, hi).
//
// injectShard, when non-zero, schedules an injected fault on worker
// injectShard-1 this round: KindCrash panics it (recovered at the
// goroutine boundary, see fault.go), KindStall sleeps it for
// inject.Delay before the step.
type roundWork struct {
	round       int
	recv, send  []Word
	kernel      Kernel
	lo, hi      int
	injectShard int
	inject      fault.Fault
}

// Kernel is the caller-supplied body of a Session.ParallelFor: it
// processes the index slice [lo, hi) as shard sh of the dispatch. A
// kernel must only write state owned by its slice (plus per-shard
// accumulators indexed by sh) and must be a deterministic function of its
// inputs, so the combined result is independent of the worker count.
type Kernel func(sh, lo, hi int)

// Session is a reusable sharded-engine execution context: a persistent
// worker pool plus the double-buffered message arrays, halted flags,
// awake-vertex lists (of the vertices that have arcs), and scrub rings
// of the engine, all retained and rebuilt in place across Run calls.
// Create one with NewSession, run any number of (csr, program) pairs
// through Run — the phase loops of the orientation and assignment
// runtimes run every per-phase subgame on one session — and release the
// workers with Close.
//
// Between runs the parked pool doubles as a generic parallel-for
// executor: ParallelFor runs a caller-supplied flat kernel over an index
// range, which is how the phase loops shard their central per-phase
// passes (proposal/accept evaluation, load scatter, game assembly marks)
// without growing a second thread pool.
//
// A Session is not safe for concurrent use; Run and ParallelFor calls
// must be sequential. Distinct Sessions are independent.
type Session struct {
	shards int
	start  []chan roundWork
	done   chan int
	closed bool

	// transport reconciles the message buffer at every round barrier and
	// decides which slice of the global shard layout this session owns;
	// shardBase is the first owned global shard of the current Run. The
	// default MemTransport owns everything and exchanges nothing — the
	// historical single-process engine, bit- and allocation-identical.
	transport Transport
	shardBase int

	// Per-run state, written by Run before the first round is issued and
	// read by the workers afterwards (the channel send orders the
	// accesses).
	csr  *graph.CSR
	prog FlatProgram

	bufA, bufB []Word
	halted     []bool
	bounds     []int
	awake      []int32 // backing array; shard s compacts awakeLists[s] within its segment
	awakeLists [][]int32
	scrubs     [][]scrubEntry

	// kernelPanics[sh] records a panic recovered from shard sh's kernel
	// during the current ParallelFor dispatch; the coordinator re-panics
	// with the first one (by shard order) after the barrier.
	kernelPanics []any

	// roundPanics[sh] records a panic recovered at worker sh's goroutine
	// boundary during a round (injected crash or organic program bug);
	// the crashed worker still reports done and respawns, and Run turns
	// the record into a *WorkerCrashError after the barrier. Writes are
	// ordered before the coordinator's reads by the done send.
	roundPanics []any
}

// NewSession starts a session with the given worker (shard) count; zero
// or negative means runtime.GOMAXPROCS(0). The workers are parked until
// the first Run and survive until Close. The session owns every shard
// and runs entirely in-process (MemTransport); use NewSessionTransport
// to own one slice of a multi-process layout.
func NewSession(shards int) *Session {
	return NewSessionTransport(shards, MemTransport{})
}

// NewSessionTransport starts a session whose round communication runs
// through tr: the transport decides which slice of the global shard
// layout the session steps and reconciles the message buffer at every
// round barrier. shards is the session's local worker count — the size
// of the owned slice; zero or negative means runtime.GOMAXPROCS(0).
func NewSessionTransport(shards int, tr Transport) *Session {
	if shards <= 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	s := &Session{
		shards:       shards,
		transport:    tr,
		start:        make([]chan roundWork, shards),
		done:         make(chan int, shards),
		bounds:       make([]int, shards+1),
		awakeLists:   make([][]int32, shards),
		scrubs:       make([][]scrubEntry, shards),
		kernelPanics: make([]any, shards),
		roundPanics:  make([]any, shards),
	}
	for sh := 0; sh < shards; sh++ {
		s.start[sh] = make(chan roundWork)
		go s.worker(sh)
	}
	return s
}

// Shards returns the session's worker count.
func (s *Session) Shards() int { return s.shards }

// Close releases the worker goroutines. The session must not be used
// afterwards; Close is idempotent.
func (s *Session) Close() {
	if s.closed {
		return
	}
	s.closed = true
	for _, c := range s.start {
		close(c)
	}
}

// worker owns shard sh: it scrubs the outboxes of its recently halted
// vertices, steps the program over its awake list, and compacts the list,
// once per received roundWork. The list starts as the shard's vertices
// that have arcs and the ring starts empty: a vertex Run halted before
// round 1 wrote no out-slot, so it is never stepped, compacted or
// scrubbed. All state it touches is either owned by the shard or ordered
// by the start/done channel pair.
//
// The pool self-heals: a panic anywhere on the round path (injected
// KindCrash or an organic program bug) is recovered here at the
// goroutine boundary, recorded in roundPanics[sh], the barrier is
// completed with an awake count of 0, and a fresh worker respawns on
// the same channel before this goroutine exits — so the session
// survives the crash and Run surfaces it as a *WorkerCrashError.
// (Kernel panics never reach this recover; runKernel has its own.)
func (s *Session) worker(sh int) {
	defer func() {
		if r := recover(); r != nil {
			s.roundPanics[sh] = r
			go s.worker(sh)
			s.done <- 0
		}
	}()
	for w := range s.start[sh] {
		if w.kernel != nil {
			s.runKernel(sh, w)
			continue
		}
		if w.injectShard == sh+1 {
			if w.inject.Kind == fault.KindStall {
				time.Sleep(w.inject.Delay)
			} else {
				panic(&fault.Panic{Fault: w.inject})
			}
		}
		csr := s.csr
		// Scrub outboxes of recently halted vertices: a vertex that
		// halted in round r left words in both buffers (rounds r-1 and
		// r); they become stale at rounds r+1 and r+2 respectively,
		// which is exactly when this pass visits them. The vertex's
		// out-slots live at Rev[i] (receiver-indexed buffers, possibly
		// in other shards' vertex ranges); the write is still exclusive
		// because slot Rev[i] is only ever written by the sender behind
		// arc i — the halted vertex this worker owns — and its neighbor
		// only reads it.
		scrub := s.scrubs[sh][:0]
		for _, e := range s.scrubs[sh] {
			if int32(w.round)-e.haltRound > 2 {
				continue // both buffers scrubbed; drop the entry
			}
			a0, a1 := csr.ArcRange(int(e.v))
			for i := a0; i < a1; i++ {
				w.send[csr.Rev[i]] = 0
			}
			scrub = append(scrub, e)
		}
		s.scrubs[sh] = scrub

		s.prog.StepShard(w.round, s.shardBase+sh, s.awakeLists[sh], w.recv, w.send, s.halted)

		// Compact the awake list; newly halted vertices enter the scrub
		// ring.
		list := s.awakeLists[sh][:0]
		for _, v := range s.awakeLists[sh] {
			if s.halted[v] {
				s.scrubs[sh] = append(s.scrubs[sh], scrubEntry{v: v, haltRound: int32(w.round)})
			} else {
				list = append(list, v)
			}
		}
		s.awakeLists[sh] = list
		s.done <- len(list)
	}
}

// runKernel executes one ParallelFor slice, converting a kernel panic
// into a recorded value so the pool survives and the coordinator can
// re-panic on the caller's goroutine.
func (s *Session) runKernel(sh int, w roundWork) {
	defer func() {
		s.kernelPanics[sh] = recover()
		s.done <- 0
	}()
	w.kernel(sh, w.lo, w.hi)
}

// ParallelFor runs k over the index range [0, n) on the session's parked
// worker pool and returns when every slice has finished (one barrier, as
// in a Run round). Shard sh receives the contiguous slice
// [n·sh/Shards(), n·(sh+1)/Shards()) — the documented split, so callers
// producing per-shard output segments (compactions, partial reductions)
// can recompute the same bounds. Every shard is dispatched even when its
// slice is empty, so kernels may rely on per-shard accumulator slots
// being (re)written on every call.
//
// A panic raised by a kernel is recovered on the worker, the dispatch
// still completes on all shards, and the first panic value in shard
// order is re-raised on the caller's goroutine; the session remains
// usable. ParallelFor must not be called concurrently with Run or with
// another ParallelFor (a Session is not safe for concurrent use), and
// panics if the session is closed. A warmed call performs no heap
// allocations; hoist kernel closures out of hot loops, since closure
// construction itself may allocate.
func (s *Session) ParallelFor(n int, k Kernel) {
	if s.closed {
		panic("local: ParallelFor on a closed session")
	}
	for sh := 0; sh < s.shards; sh++ {
		s.start[sh] <- roundWork{kernel: k, lo: n * sh / s.shards, hi: n * (sh + 1) / s.shards}
	}
	for sh := 0; sh < s.shards; sh++ {
		<-s.done
	}
	for _, r := range s.kernelPanics {
		if r != nil {
			panic(r)
		}
	}
}

// shardBoundsInto partitions vertices 0..n-1 into contiguous shards
// balanced by arc count (vertex count alone would starve shards on
// skewed-degree graphs such as power-law workloads), writing the bounds
// in place. With more shards than vertices the trailing shards own empty
// ranges; programs and results are partition-independent either way.
func shardBoundsInto(bounds []int, csr *graph.CSR, shards int) []int {
	n := csr.N()
	bounds = bounds[:shards+1]
	bounds[0] = 0
	total := csr.NumArcs()
	v := 0
	for s := 1; s < shards; s++ {
		target := int32(total * s / shards)
		for v < n && csr.Row[v] < target {
			v++
		}
		bounds[s] = v
	}
	bounds[shards] = n
	return bounds
}

// Run initializes prog and executes synchronous rounds on csr until every
// vertex has halted, opt.MaxRounds is exceeded (an error), or opt.Stop
// says so. Vertices without arcs start halted (see FlatProgram), so a
// graph with no edges still takes one round, on empty awake lists. The
// session's worker count applies. All engine state is rebuilt in place
// from the previous run — a warmed session (same or smaller graph)
// allocates nothing.
//
// Under a remote transport the session steps only its owned global
// shards: prog is initialized over the full global shard map (so vertex
// state exists everywhere, at its initial values), but only owned
// vertices are ever awake here, and the transport reconciles the
// boundary-crossing buffer slots each round. stats then describe the
// global run (Rounds, Shards) with locally countable fields (Halted)
// restricted to the owned range.
func (s *Session) Run(csr *graph.CSR, prog FlatProgram, opt ShardedOptions) (ShardedStats, error) {
	if s.closed {
		return ShardedStats{}, fmt.Errorf("local: Run on a closed session")
	}
	n := csr.N()
	maxRounds := opt.MaxRounds
	if maxRounds == 0 {
		maxRounds = 1 << 20
	}
	var stats ShardedStats
	total, shardLo, shardHi := s.transport.Layout(s.shards)
	if shardHi-shardLo != s.shards || shardLo < 0 || shardHi > total {
		return stats, fmt.Errorf("local: transport layout [%d,%d) of %d does not fit %d session shards",
			shardLo, shardHi, total, s.shards)
	}
	s.shardBase = shardLo
	if n == 0 {
		prog.InitShards(make([]int, total+1))
		return stats, nil
	}
	stats.Shards = total
	if cap(s.bounds) < total+1 {
		s.bounds = make([]int, total+1)
	}
	s.bounds = shardBoundsInto(s.bounds[:total+1], csr, total)
	prog.InitShards(s.bounds)
	if err := s.transport.BeginRun(csr, s.bounds); err != nil {
		return stats, err
	}

	arcs := csr.NumArcs()
	s.bufA = reuse.Grown(s.bufA, arcs)
	s.bufB = reuse.Grown(s.bufB, arcs)
	clear(s.bufA)
	clear(s.bufB)
	if cap(s.halted) < n {
		s.halted = make([]bool, n)
	} else {
		s.halted = s.halted[:n]
		clear(s.halted)
	}
	s.awake = reuse.Grown(s.awake, n)
	for sh := 0; sh < s.shards; sh++ {
		// Three-index reslice: each worker compacts (shrinks) its own
		// list in place, so the segments can never collide even though
		// they share one backing array. Worker sh owns global shard
		// shardBase+sh; under a remote transport the foreign segments
		// are simply never placed on any awake list, so those vertices
		// are never stepped and their state stays at its initial values.
		// An owned arc-less vertex starts halted instead (see
		// FlatProgram.StepShard); it writes no out-slot, so it never
		// needs a scrub.
		g := shardLo + sh
		lo, hi := s.bounds[g], s.bounds[g+1]
		list := s.awake[lo:lo:hi]
		for v := lo; v < hi; v++ {
			if csr.Row[v] == csr.Row[v+1] {
				s.halted[v] = true
			} else {
				list = append(list, int32(v))
			}
		}
		s.awakeLists[sh] = list
		s.scrubs[sh] = s.scrubs[sh][:0]
	}
	s.csr, s.prog = csr, prog

	recv, send := s.bufA, s.bufB
	// The workers are parked (all done receives in) whenever this loop is
	// not between a start send and a done receive, so dropping the run's
	// csr/prog references on the way out is race-free; holding them would
	// pin the caller's graph and program state until the next Run.
	defer func() { s.csr, s.prog = nil, nil }()
	for round := 1; ; round++ {
		if round > maxRounds {
			awake := 0
			for _, h := range s.halted {
				if !h {
					awake++
				}
			}
			return stats, fmt.Errorf("local: %d vertices still awake after %d rounds", awake, maxRounds)
		}
		work := roundWork{round: round, recv: recv, send: send}
		if f, ok := opt.Fault.Hit(); ok {
			// Visit n is round n: the site is consulted exactly once per
			// round, on this coordinating goroutine, so schedules are
			// deterministic. An injected error aborts here, before any
			// worker is started — the state is the quiescent state after
			// round-1 complete rounds. Crash and stall faults are handed
			// to one seeded-chosen worker via the dispatch.
			if f.Kind == fault.KindError {
				return stats, f.Err()
			}
			work.injectShard = opt.Fault.Intn(s.shards) + 1
			work.inject = f
		}
		for sh := 0; sh < s.shards; sh++ {
			s.start[sh] <- work
		}
		awake := 0
		for sh := 0; sh < s.shards; sh++ {
			awake += <-s.done
		}
		var crashed *WorkerCrashError
		for sh := 0; sh < s.shards; sh++ {
			if r := s.roundPanics[sh]; r != nil {
				s.roundPanics[sh] = nil
				if crashed == nil {
					crashed = &WorkerCrashError{Shard: sh, Round: round, Value: r}
				}
			}
		}
		if crashed != nil {
			// The crashed shard died mid-step, so the program state is
			// not the quiescent round-barrier state: stats.Rounds stays
			// at the last complete round and OnRound (the snapshot hook)
			// does not fire for this round — and nothing goes on the
			// wire, so a remote peer sees a clean cut, not a torn round.
			return stats, crashed
		}
		// Round barrier: reconcile the freshly written send buffer across
		// the transport and learn the global awake count. MemTransport is
		// a no-op returning awake unchanged; ProcTransport pushes this
		// session's boundary-crossing slots out and scatters the incoming
		// ones before any of them is read next round.
		globalAwake, err := s.transport.Exchange(round, send, awake)
		if err != nil {
			return stats, err
		}
		awake = globalAwake
		stats.Rounds = round
		if opt.OnRound != nil {
			opt.OnRound(round, awake)
		}
		if awake == 0 || (opt.Stop != nil && opt.Stop(round)) {
			break
		}
		recv, send = send, recv
	}
	for _, h := range s.halted {
		if h {
			stats.Halted++
		}
	}
	return stats, nil
}
