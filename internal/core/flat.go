package core

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"

	"tokendrop/internal/fault"
	"tokendrop/internal/graph"
	"tokendrop/internal/local"
)

// This file defines the flat-encoded side of the package: a CSR-backed
// game instance and the shared plumbing of the sharded solvers
// (flatproposal.go, flatthreelevel.go). The protocols are word-for-word
// the ones of proposal.go and threelevel.go; only the representation
// changes — message structs become single words, per-node machines become
// struct-of-arrays programs for local.Session.Run. With TieFirstPort the
// flat and object engines execute the same deterministic protocol over
// the same port numbering and therefore produce identical runs, which the
// differential tests assert exactly.

// Message words of the flat game protocols (local.Word; 0 = no message).
const (
	fAnnounceFree local.Word = 1 + iota // announce: unoccupied
	fAnnounceOcc                        // announce: occupied
	fRequest                            // child asks parent for its token
	fGrant                              // parent passes its token (edge consumed)
	fLeaveFree                          // sender terminates, unoccupied
	fLeaveOcc                           // sender terminates, occupied
	fPropose                            // 3-level: middle offers its token downwards
	fAccept                             // 3-level: bottom accepts one proposal
)

// FlatInstance is a token dropping game over a CSR graph: the flat
// counterpart of Instance, used by the sharded solvers. Levels are int32
// and the representation is three flat arrays, so million-node instances
// are a handful of allocations.
type FlatInstance struct {
	csr    *graph.CSR
	level  []int32
	token  []bool
	height int
}

// NewFlatInstanceCSR validates and wraps a CSR game instance: every edge
// must join adjacent levels and no level may be negative.
func NewFlatInstanceCSR(csr *graph.CSR, level []int32, token []bool) (*FlatInstance, error) {
	fi := new(FlatInstance)
	if err := fi.init(csr, level, token); err != nil {
		return nil, err
	}
	return fi, nil
}

// init validates a CSR game instance and wraps it in fi.
func (fi *FlatInstance) init(csr *graph.CSR, level []int32, token []bool) error {
	n := csr.N()
	if len(level) != n || len(token) != n {
		return fmt.Errorf("core: level/token slices sized %d/%d for %d vertices",
			len(level), len(token), n)
	}
	height := int32(0)
	for v, l := range level {
		if l < 0 {
			return fmt.Errorf("core: vertex %d has negative level %d", v, l)
		}
		if l > height {
			height = l
		}
	}
	for v := 0; v < n; v++ {
		lo, hi := csr.ArcRange(v)
		for i := lo; i < hi; i++ {
			d := level[v] - level[csr.Col[i]]
			if d != 1 && d != -1 {
				return fmt.Errorf("core: edge %d joins levels %d and %d (must be adjacent)",
					csr.EID[i], level[v], level[csr.Col[i]])
			}
		}
	}
	*fi = FlatInstance{csr: csr, level: level, token: token, height: int(height)}
	return nil
}

// MustFlatInstanceCSR is NewFlatInstanceCSR that panics on error; for
// generators whose construction guarantees validity.
func MustFlatInstanceCSR(csr *graph.CSR, level []int32, token []bool) *FlatInstance {
	fi, err := NewFlatInstanceCSR(csr, level, token)
	if err != nil {
		panic(err)
	}
	return fi
}

// NewFlatInstance converts a pointer-based Instance to flat form. The CSR
// preserves the adjacency order, so port numbering — and every
// deterministic tie-break — is identical in both representations.
func NewFlatInstance(inst *Instance) *FlatInstance {
	n := inst.N()
	level := make([]int32, n)
	for v := 0; v < n; v++ {
		level[v] = int32(inst.Level(v))
	}
	return &FlatInstance{
		csr:    graph.NewCSRFromGraph(inst.Graph()),
		level:  level,
		token:  inst.TokenVector(),
		height: inst.Height(),
	}
}

// CSR returns the underlying graph.
func (fi *FlatInstance) CSR() *graph.CSR { return fi.csr }

// N returns the number of vertices.
func (fi *FlatInstance) N() int { return fi.csr.N() }

// M returns the number of edges.
func (fi *FlatInstance) M() int { return fi.csr.M() }

// Height returns L, the maximum level.
func (fi *FlatInstance) Height() int { return fi.height }

// Level returns the level of vertex v.
func (fi *FlatInstance) Level(v int) int { return int(fi.level[v]) }

// Token reports whether vertex v initially holds a token.
func (fi *FlatInstance) Token(v int) bool { return fi.token[v] }

// MaxDegree returns Δ.
func (fi *FlatInstance) MaxDegree() int { return fi.csr.MaxDegree() }

// NumTokens returns the number of tokens.
func (fi *FlatInstance) NumTokens() int {
	k := 0
	for _, t := range fi.token {
		if t {
			k++
		}
	}
	return k
}

// Instance materializes the pointer-based Instance (same vertex ids, edge
// ids, and port order), for verification and for running the object
// engine on the same game.
func (fi *FlatInstance) Instance() *Instance {
	level := make([]int, len(fi.level))
	for v, l := range fi.level {
		level[v] = int(l)
	}
	return MustInstance(fi.csr.ToGraph(), level, fi.token)
}

// InitialPotential returns Σ level(v) over the initial token placement.
// Every move drops one token one level, so any legal play with k moves
// ends at potential InitialPotential() - k.
func (fi *FlatInstance) InitialPotential() int64 {
	var p int64
	for v, t := range fi.token {
		if t {
			p += int64(fi.level[v])
		}
	}
	return p
}

// SolutionPotential returns Σ level(v) over a solution's final placement —
// the potential that dropped by exactly one per move from the instance's
// initial potential.
func SolutionPotential(s *Solution) int64 {
	var p int64
	for v, t := range s.Final {
		if t {
			p += int64(s.Inst.Level(v))
		}
	}
	return p
}

// InstancePotential returns Σ level(v) over an instance's initial tokens.
func InstancePotential(inst *Instance) int64 {
	var p int64
	for v := 0; v < inst.N(); v++ {
		if inst.Token(v) {
			p += int64(inst.Level(v))
		}
	}
	return p
}

// ShardedSolveOptions configure the sharded flat solvers.
type ShardedSolveOptions struct {
	Tie       TieBreak
	Seed      int64 // feeds the per-vertex PRNG streams of TieRandom
	MaxRounds int
	Shards    int // worker count of the solve's own session; 0 = runtime.GOMAXPROCS(0)
	// Stop, if non-nil, ends the run after the round for which it returns
	// true even though the game is unfinished (throughput measurement).
	Stop func(round int) bool
	// Session, if non-nil, plays the game on this persistent engine
	// session; its worker count overrides Shards. Without one the solve
	// starts its own session before the program reset and closes it on
	// return. The phase loops keep one session alive across all their
	// subgames so the worker pool and message buffers are built once.
	Session *local.Session
	// Workspace, if non-nil, rebuilds the program's struct-of-arrays
	// state in place instead of allocating it per solve. A workspace
	// must not be shared by concurrent solves.
	Workspace *SolverWorkspace

	// Checkpoint holds the snapshot cadence, hook and resume cursor
	// (rounds; validated fast-forward resume).
	Checkpoint[Snapshot]

	// Fault, if non-nil, arms the failpoints of this solve: the engine's
	// round-barrier site (local.FaultSiteRound) is resolved from it and
	// threaded into the run. A nil registry — the production default —
	// costs one nil check per round and nothing else.
	Fault *fault.Registry
	// AutoResume, when positive, is the crash-recovery retry budget:
	// if the run dies on an injected fault or a worker crash
	// (local.WorkerCrashError — injected or organic) and snapshots are
	// being captured (SnapshotEvery with OnSnapshot, or AutoResume
	// alone, which retains captures internally), the solver re-runs
	// from the last quiescent snapshot up to AutoResume times.
	// Core resume is validated fast-forward, so the recovered result
	// bit-matches the uninterrupted run. Zero disables recovery and
	// surfaces the first failure.
	AutoResume int
}

// engineFaultSite resolves the engine's round-barrier failpoint from
// the options' registry (nil when no registry is armed).
func (opt *ShardedSolveOptions) engineFaultSite() *fault.Site {
	return opt.Fault.Site(local.FaultSiteRound)
}

// SolverWorkspace holds the reusable program state of the sharded
// solvers (SolveProposalSharded, SolveThreeLevelSharded): every
// per-vertex and per-arc array is grown monotonically and rebuilt in
// place, so a loop solving many games through one workspace — the
// orientation phase loop, the allocation-regression benchmarks — stops
// allocating once the largest game has been seen. Paired with a
// local.Session (ShardedSolveOptions.Session) and a reused result (the
// …Into solvers), whole repeat solves are allocation-free.
type SolverWorkspace struct {
	prop  flatProposal
	three flatThreeLevel
	inst  FlatInstance
}

// NewSolverWorkspace returns an empty workspace; the first solve sizes it.
func NewSolverWorkspace() *SolverWorkspace { return &SolverWorkspace{} }

// NewFlatInstanceCSR is the package-level NewFlatInstanceCSR built into
// the workspace's instance shell, which the next call overwrites.
func (ws *SolverWorkspace) NewFlatInstanceCSR(csr *graph.CSR, level []int32, token []bool) (*FlatInstance, error) {
	if err := ws.inst.init(csr, level, token); err != nil {
		return nil, err
	}
	return &ws.inst, nil
}

// flatGame is a flat game program the sharded solvers run: it resets in
// place for a new game and writes its outcome into a caller's result.
type flatGame interface {
	local.FlatProgram
	reset(fi *FlatInstance, tie TieBreak, seed int64, sess *local.Session)
	resultInto(stats local.ShardedStats, out *FlatResult)
}

// solveShardedInto is the one body of the sharded game solvers: it runs
// the program prog picks from the options' workspace (or a fresh one)
// on the options' session (or one of its own, started before the reset
// and closed on return) and writes the outcome into out.
func solveShardedInto(fi *FlatInstance, opt ShardedSolveOptions, out *FlatResult, prog func(*SolverWorkspace) flatGame) error {
	if opt.Workspace == nil {
		opt.Workspace = NewSolverWorkspace()
	}
	pr := prog(opt.Workspace)
	if opt.Session == nil {
		opt.Session = local.NewSession(opt.Shards)
		defer opt.Session.Close()
	}
	pr.reset(fi, opt.Tie, opt.Seed, opt.Session)
	var stats local.ShardedStats
	var err error
	if opt.AutoResume > 0 {
		stats, err = runFlatRecovering(fi, pr, opt)
	} else {
		stats, err = runFlat(fi.csr, pr, opt)
	}
	if err != nil {
		return err
	}
	pr.resultInto(stats, out)
	return nil
}

// snapHooks is the snapshot capture / resume-validation state of one
// runFlat call. It exists as a struct (rather than locals captured by
// closures) so the disabled path allocates nothing: closure-captured
// locals that escape are heap-boxed at function entry whether or not
// the closure is ever built, while this struct is allocated only inside
// the snapshotsEnabled branch.
type snapHooks struct {
	opt     ShardedSolveOptions
	gs      gameState
	n       int
	snap    Snapshot // the solve's capture buffer, rewritten per capture
	snapErr error
	checked bool // resume cursor reached and verified
}

// onRound is the engine round-barrier hook (quiescent; see
// local.ShardedOptions.OnRound).
func (h *snapHooks) onRound(round, awake int) {
	if h.snapErr != nil {
		return
	}
	if rs := h.opt.ResumeFrom; rs != nil && round == rs.Round {
		h.checked = true
		h.snapErr = verifyCursor(h.gs, rs)
	}
	if h.snapErr == nil && h.opt.Due(round) {
		captureInto(&h.snap, h.gs, h.n, round)
		h.snapErr = h.opt.OnSnapshot(&h.snap)
	}
}

// stop aborts the run early on a hook error, composing with the user's
// own Stop.
func (h *snapHooks) stop(round int) bool {
	return h.snapErr != nil || (h.opt.Stop != nil && h.opt.Stop(round))
}

// runFlat executes prog on the options' session, wiring the snapshot
// capture and resume-validation hooks into the engine's round barrier
// when the options ask for them.
func runFlat(csr *graph.CSR, prog local.FlatProgram, opt ShardedSolveOptions) (local.ShardedStats, error) {
	sopt := local.ShardedOptions{
		MaxRounds: opt.MaxRounds,
		Stop:      opt.Stop,
		Fault:     opt.engineFaultSite(),
	}
	var hooks *snapHooks
	if opt.snapshotsEnabled() {
		gs, ok := prog.(gameState)
		if !ok {
			return local.ShardedStats{}, fmt.Errorf("core: program %T does not support snapshots", prog)
		}
		n := csr.N()
		if rs := opt.ResumeFrom; rs != nil {
			if len(rs.Occupied) != n {
				return local.ShardedStats{}, fmt.Errorf("core: resume snapshot covers %d vertices, game has %d",
					len(rs.Occupied), n)
			}
			if rs.Round < 1 {
				return local.ShardedStats{}, fmt.Errorf("core: resume snapshot cursor at round %d (want ≥ 1)", rs.Round)
			}
		}
		hooks = &snapHooks{opt: opt, gs: gs, n: n}
		sopt.OnRound = hooks.onRound
		sopt.Stop = hooks.stop
	}
	stats, err := opt.Session.Run(csr, prog, sopt)
	if err == nil && hooks != nil {
		if hooks.snapErr != nil {
			err = hooks.snapErr
		} else if opt.ResumeFrom != nil && !hooks.checked {
			err = fmt.Errorf("core: resume cursor at round %d was never reached (run ended after %d rounds)",
				opt.ResumeFrom.Round, stats.Rounds)
		}
	}
	return stats, err
}

// recoverableSolveError reports whether a runFlat failure is one the
// AutoResume loop may retry: an injected fault (KindError abort at the
// quiescent barrier) or a worker crash (injected or organic panic,
// recovered by the session's self-healing pool). Hook errors, resume
// validation failures, and MaxRounds exhaustion are never retried.
func recoverableSolveError(err error) bool {
	var wce *local.WorkerCrashError
	return errors.As(err, &wce) || errors.Is(err, fault.ErrInjected)
}

// runFlatRecovering is runFlat wrapped in the AutoResume crash-recovery
// loop: every snapshot capture is teed into a privately retained copy,
// and when a run dies on a recoverable failure the program is reset and
// re-run with ResumeFrom set to the last retained capture (validated
// fast-forward — the recovered run re-executes rounds 1..cursor,
// verifies the bit-match, and continues identically to an uninterrupted
// solve). With no capture retained yet — or no snapshot cadence
// configured at all — the retry simply re-runs from round 1, which is
// equivalent by determinism. The program is reset to the game's initial
// state before every retry.
func runFlatRecovering(fi *FlatInstance, pr flatGame, opt ShardedSolveOptions) (local.ShardedStats, error) {
	var retained Snapshot
	have := false
	user := opt.OnSnapshot
	if opt.SnapshotEvery > 0 {
		// The tee satisfies snapshotsEnabled even with a nil user hook,
		// so arming AutoResume plus a cadence is enough to get capture.
		opt.OnSnapshot = func(s *Snapshot) error {
			if user != nil {
				if err := user(s); err != nil {
					return err
				}
			}
			retained.Round = s.Round
			retained.Moves = s.Moves
			retained.Occupied = append(retained.Occupied[:0], s.Occupied...)
			have = true
			return nil
		}
	}
	for attempt := 0; ; attempt++ {
		stats, err := runFlat(fi.csr, pr, opt)
		if err == nil || attempt >= opt.AutoResume || !recoverableSolveError(err) {
			return stats, err
		}
		opt.ResumeFrom = nil
		if have {
			// Deep-copy: the retry's own captures overwrite retained in
			// place while the fast-forward still reads the cursor.
			opt.ResumeFrom = &Snapshot{
				Round:    retained.Round,
				Moves:    retained.Moves,
				Occupied: append([]bool(nil), retained.Occupied...),
			}
		}
		pr.reset(fi, opt.Tie, opt.Seed, opt.Session)
	}
}

// FlatResult is the outcome of a sharded solve: the final token placement
// and the chronological move log. Attach an Instance with Solution to
// verify it with the standard oracle.
type FlatResult struct {
	Final []bool
	Moves []Move
	Stats DistStats
}

// Solution wraps the result for core.Verify. inst must describe the same
// game (use FlatInstance.Instance(), or the Instance the FlatInstance was
// converted from).
func (r *FlatResult) Solution(inst *Instance) *Solution {
	consumed := make([]bool, inst.Graph().M())
	for _, m := range r.Moves {
		consumed[m.Edge] = true
	}
	return &Solution{
		Inst:     inst,
		Moves:    r.Moves,
		Final:    r.Final,
		Consumed: consumed,
		Rounds:   r.Stats.Rounds,
	}
}

// MergeByRound calls emit on the runs of logs in the order a stable sort
// by round of their concatenation puts them, without sorting: each log
// is round-major, so every round takes its run from each log in turn,
// found by binary search. Rounds must lie below math.MaxInt. Per-shard
// move logs merge this way into the object engine's exact (round,
// vertex) order, because a shard's moves are round-major with vertices
// ascending and shards partition the vertices in order.
func MergeByRound[T any](logs [][]T, round func(T) int, emit func([]T)) {
	byRound := func(t T, r int) int { return cmp.Compare(round(t), r) }
	for r := math.MinInt; r != math.MaxInt; {
		next := math.MaxInt
		for _, log := range logs {
			lo, _ := slices.BinarySearchFunc(log, r, byRound)
			hi, _ := slices.BinarySearchFunc(log, r+1, byRound)
			if hi > lo {
				emit(log[lo:hi])
			}
			if hi < len(log) {
				next = min(next, round(log[hi]))
			}
		}
		r = next
	}
}

// moveRound is the round key of MergeByRound over move logs.
func moveRound(m Move) int { return m.Round }

// finishFlatResult completes out once a program has written the final
// placement and merged its per-shard move logs (MergeByRound).
func finishFlatResult(out *FlatResult, stats local.ShardedStats, active []int32, shardMsgs []int64) {
	var messages int64
	for _, m := range shardMsgs {
		messages += m
	}
	maxActive := int32(0)
	for _, a := range active {
		maxActive = max(maxActive, a)
	}
	out.Stats = DistStats{
		Rounds:              stats.Rounds,
		Messages:            messages,
		MaxActiveUnoccupied: int(maxActive),
	}
}
