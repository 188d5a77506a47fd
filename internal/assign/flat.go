package assign

import (
	"fmt"
	"math"
	"slices"

	"tokendrop/internal/core"
	"tokendrop/internal/graph"
	"tokendrop/internal/hypergame"
	"tokendrop/internal/local"
	"tokendrop/internal/reuse"
)

// This file ports the Theorem 7.3 stable-assignment algorithm to the
// sharded flat runtime: the seed-engine Solve above builds per-phase
// object hypergraphs and plays them goroutine-per-node, while
// SolveSharded keeps the whole phase loop in flat arrays over a
// graph.CSRBipartite and runs it on core.PhaseLoop, the frame it shares
// with the orientation layer. Assignment state is two flat arrays:
// serverOf[c] (the assigned server index of customer c, -1 while
// unassigned) and load[s]. Per phase, the proposals and accepts are
// evaluated centrally from the shared loads (Solve's simulation
// shortcut, charged as 2 communication rounds) over the unassigned list
// alone — the proposals on the engine session's kernels
// (local.Session.ParallelFor), the accepts in one sequential pass — so
// they cost per proposal rather than per arc; the badness-1 token
// hypergraph is assembled from the marks the loop's badness pass left
// as a flat hypergame.FlatInstance with hyperedges in customer-id order
// and endpoints in adjacency order — exactly the insertion order Solve
// hands hypergame.SolveProposal — and played with the Theorem 7.1 relay
// protocol; then traversed hyperedges reassign their customers and
// accepted customers are assigned.
//
// With identical port numbering, levels, and tokens, the sharded subgame
// run is bit-identical to the object-engine run under first-port
// tie-breaking (the guarantee of the hypergame differential tests), and
// therefore so are the phase log, the round counts, and the final
// assignment — which the differential suite in this package asserts on
// ~100 bipartite instances.
//
// With K > 0 (the k-bounded relaxation) every pass reads effective loads
// min(load, K) in place of loads, and, as in Solve, phase games of at most
// hypergame.ThreeLevelMaxLevel levels run on the three-level flat solver
// (the k = 2 case, where the O(S)-round bound comes from).

// ShardedOptions configure a SolveSharded run.
type ShardedOptions struct {
	// K is the load threshold of the k-bounded relaxation, as in Options:
	// 0 solves the general problem, K ≥ 2 runs on effective loads
	// min(load, K), K = 1 is rejected.
	K int
	// Tie selects the tie-breaking rule. Runs are bit-identical to Solve
	// under the same rule: both draw the per-customer and per-server
	// core.TieSeed streams.
	Tie core.TieBreak
	// Seed drives all randomized tie-breaking.
	Seed int64
	// Shards is the worker count of the engine session that plays every
	// phase's subgame; 0 means runtime.GOMAXPROCS(0). A Scratch starts
	// its session on its first solve, so later solves on the same
	// scratch keep that solve's count. The result does not depend on it.
	Shards int
	// CheckInvariants replays the Section 7.2 analogues of Lemmas 5.3–5.4
	// (loads grow by exactly one at token destinations, badness at most 1
	// after every phase), the subgame potential identity, and a load
	// recount. Linear per phase; tests and experiments keep it on.
	CheckInvariants bool
	// VerifyGames additionally materializes every phase's subgame in
	// object form and runs hypergame.Verify on its solution. Expensive at
	// scale — meant for tests, not million-customer runs.
	VerifyGames bool

	// Checkpoint holds the snapshot cadence, hook and resume cursor
	// (phases; validated restore resume). The threshold is validated on
	// resume too.
	core.Checkpoint[Snapshot]

	// Scratch, when non-nil, is the caller's reuse handle: it owns the
	// engine session and the hypergame workspace every phase runs on and
	// every per-solve allocation, so warmed repeat solves are completely
	// allocation-free (the arena's scoreboard contract). Long-running
	// callers — the incremental Resolver, the strategy arena — hold one
	// across many solves and Close it when done. Without one the solve
	// uses a temporary scratch and closes it. Single-caller; the returned
	// result and its slices are only valid until the next solve with the
	// same scratch.
	Scratch *SolveScratch
}

// ShardedResult is the outcome of SolveSharded: the assignment in flat
// form plus the same accounting Result carries.
type ShardedResult struct {
	// ServerOf holds the assigned server of every customer as an index in
	// [0, NumServers); -1 never occurs in a completed run.
	ServerOf []int32
	// Load holds the final (true, untruncated) number of customers per
	// server index.
	Load []int32
	// K is the threshold the solve ran with (0 = unbounded).
	K      int
	Phases int
	// Rounds counts communication rounds on the adaptive schedule: two per
	// phase (load broadcast, accept notification) plus the game's rounds
	// on the customer/server incidence network.
	Rounds   int
	PhaseLog []PhaseRecord
	// Messages counts the messages the distributed reading of the solve
	// delivers: per phase, one load announcement per customer-side arc
	// (the broadcast round), one proposal per unassigned customer, one
	// acceptance notification per accept, plus the subgame's exact
	// message count from the engine. A ResumeFrom run counts messages
	// from the resume point only (snapshots predate the counter).
	Messages int64

	fb *graph.CSRBipartite
}

// Bipartite returns the flat network the result was computed on.
func (r *ShardedResult) Bipartite() *graph.CSRBipartite { return r.fb }

// MaxBadness returns the maximum badness over assigned customers, on
// true loads whatever the threshold.
func (r *ShardedResult) MaxBadness() int {
	return int(flatMaxBadness(r.fb, r.ServerOf, r.Load, math.MaxInt32, 0, r.fb.NumLeft, nil))
}

// Stable reports the stable assignment condition of Section 7: every
// customer is assigned and none can lower its server's load by switching.
func (r *ShardedResult) Stable() bool { return r.stableAt(math.MaxInt32) }

// KStable reports whether the assignment solves the k-bounded stable
// assignment problem at the result's threshold K: complete, and no
// customer on a server of load ℓ has a neighbor of load at most
// min(K, ℓ) - 2 (Section 7.3), i.e. badness on effective loads at most 1.
// With K = 0 it is Stable.
func (r *ShardedResult) KStable() bool {
	k, _ := loadCap(r.K)
	return r.stableAt(k)
}

// stableAt reports a complete assignment with badness at most 1 on loads
// truncated at k.
func (r *ShardedResult) stableAt(k int32) bool {
	return !slices.Contains(r.ServerOf, -1) && flatMaxBadness(r.fb, r.ServerOf, r.Load, k, 0, r.fb.NumLeft, nil) <= 1
}

// SemimatchingCost returns Σ_s f(load(s)) with f(x) = x(x+1)/2, the
// objective of Section 1.3.
func (r *ShardedResult) SemimatchingCost() int64 {
	var cost int64
	for _, l := range r.Load {
		cost += int64(l) * int64(l+1) / 2
	}
	return cost
}

// Assignment materializes the pointer-based assignment (same vertex
// identifiers), for cross-checks against the seed engine and the
// semi-matching tooling. O(n + m) object construction — test-sized.
func (r *ShardedResult) Assignment() *graph.Assignment {
	b := r.fb.ToBipartite()
	a := graph.NewAssignment(b)
	for c, s := range r.ServerOf {
		if s >= 0 {
			a.Assign(c, r.fb.NumLeft+int(s))
		}
	}
	return a
}

// ReduceToMatchingSharded applies the Theorem 7.4 post-processing to a
// flat 2-bounded stable assignment: every server with assigned customers
// keeps exactly the smallest-numbered one. matchOf maps every vertex
// (customers first, then servers at NumLeft+s) to its partner or -1,
// matching ReduceToMatching's convention.
func ReduceToMatchingSharded(r *ShardedResult) (matchOf []int) {
	nl := r.fb.NumLeft
	matchOf = make([]int, r.fb.C.N())
	for v := range matchOf {
		matchOf[v] = -1
	}
	for c, s := range r.ServerOf {
		if s < 0 {
			continue
		}
		if matchOf[nl+int(s)] < 0 { // server keeps its first (smallest) customer
			matchOf[nl+int(s)] = c
			matchOf[c] = nl + int(s)
		}
	}
	return matchOf
}

// flatMaxBadness returns the maximum badness over the assigned customers
// among [lo, hi) on loads truncated at k (effective load of the assigned
// server minus the minimum adjacent effective load); k = math.MaxInt32
// gives true badness. A non-nil mark gets, per customer, whether its
// badness is exactly 1.
func flatMaxBadness(fb *graph.CSRBipartite, serverOf, load []int32, k int32, lo, hi int, mark []bool) int32 {
	csr := fb.C
	nl := fb.NumLeft
	worst := int32(0)
	for c := lo; c < hi; c++ {
		b := int32(0)
		if so := serverOf[c]; so >= 0 {
			alo, ahi := csr.ArcRange(c)
			least := int32(-1)
			for i := alo; i < ahi; i++ {
				if l := min(load[int(csr.Col[i])-nl], k); least < 0 || l < least {
					least = l
				}
			}
			b = min(load[so], k) - least
		}
		worst = max(worst, b)
		if mark != nil {
			mark[c] = b == 1
		}
	}
	return worst
}

// leastLoaded returns the least-loaded of the servers adj[i] - offset on
// loads truncated at k, and that load: the smallest id among the ties,
// or, given a TieRandom stream rng, a uniform draw over them in port
// order that advances the stream. It is the proposal rule of Step 1 and
// the Resolver's placement rule.
func leastLoaded(adj []int32, offset int32, load []int32, k int32, rng *uint64) (best, bestLoad int32) {
	best = -1
	for _, a := range adj {
		if s, l := a-offset, min(load[a-offset], k); best < 0 || l < bestLoad || (l == bestLoad && s < best) {
			best, bestLoad = s, l
		}
	}
	if rng == nil {
		return best, bestLoad
	}
	count := 0
	for _, a := range adj {
		if min(load[a-offset], k) == bestLoad {
			if count++; core.TieKeep(rng, count) {
				best = a - offset
			}
		}
	}
	return best, bestLoad
}

// SolveScratch owns the per-solve storage of SolveSharded: the engine
// session and hypergame workspace every phase runs on, the assignment
// arrays, the proposal/accept scratch, the per-phase subgame scratch,
// the subgame result, the core.PhaseLoop with its log and snapshot
// buffer, and the ShardedResult handed back. All of it is reused
// grow-only across solves, and the proposal kernel and the loop are
// built once per scratch (capturing only the scratch pointer), so a
// warmed solve performs no heap allocations at all. The
// zero value is ready to use: the first solve starts the session with
// its opt.Shards workers and creates the workspace. Close releases the
// session. Not safe for concurrent use.
type SolveScratch struct {
	sess *local.Session
	gws  *hypergame.Workspace

	// Per-solve bindings the kernels and hooks read through the scratch
	// pointer.
	fb            *graph.CSRBipartite
	tie           core.TieBreak
	kOpt          int   // the threshold as given (opt.K)
	k             int32 // loads are truncated at k (math.MaxInt32 when unbounded)
	seed          int64
	verify, check bool // opt.VerifyGames, opt.CheckInvariants

	serverOf   []int32
	load       []int32
	unassigned []int32
	custRng    []uint64 // TieRandom streams; nil under TieFirstPort
	servRng    []uint64
	propServer []int32

	// Reused per-phase scratch. acceptCust and token are -1 and false
	// between phases: the accept pass sets the acceptors' entries and
	// step 6 resets them.
	acceptCust   []int32
	bids         []int32 // per-server proposal counts of the accept pass
	token        []bool
	gameLevel    []int32
	eptr         []int32
	ends         []int32
	heads        []int32
	gameCustomer []int32
	include      []bool // per customer: in the next phase's game
	loadsBefore  []int32
	sol          hypergame.FlatResult
	res          ShardedResult
	loop         core.PhaseLoop[Snapshot]

	propose func(sh, lo, hi int)
}

// Close releases the scratch's engine session and drops its workspace, so
// a closed scratch — and a result still pointing into it — pins neither;
// a later solve starts both afresh. Close is idempotent.
func (sc *SolveScratch) Close() {
	if sc.sess != nil {
		sc.sess.Close()
	}
	sc.sess, sc.gws = nil, nil
}

// ensureKernels builds the proposal kernel and the phase loop on first
// use. The kernel runs on the engine session's parked workers
// (Session.ParallelFor) and reads all state through the scratch pointer,
// so one closure serves every solve the scratch sees.
func (sc *SolveScratch) ensureKernels() {
	if sc.propose != nil {
		return
	}

	// Step 1: every unassigned customer proposes to the adjacent server
	// with the smallest effective load (ties to the smaller id, or
	// seeded-random) — independent per customer, sharded over the
	// unassigned list.
	sc.propose = func(sh, lo, hi int) {
		csr, nl := sc.fb.C, int32(sc.fb.NumLeft)
		for _, c := range sc.unassigned[lo:hi] {
			alo, ahi := csr.ArcRange(int(c))
			var rng *uint64
			if sc.tie == core.TieRandom {
				rng = &sc.custRng[c]
			}
			sc.propServer[c], _ = leastLoaded(csr.Col[alo:ahi], nl, sc.load, sc.k, rng)
		}
	}

	sc.loop = core.PhaseLoop[Snapshot]{Layer: "assign", Lemma: "Lemma 7.2", Param: "C·S", Body: phases{sc}}
}

// phases is the core.PhaseBody of a scratch's loop, on the scratch's
// arrays; its snapshot hooks are in snapshot.go.
type phases struct{ *SolveScratch }

func (p phases) Done() bool { return len(p.unassigned) == 0 }

// Badness returns the maximum badness over customers [lo, hi) and marks
// the ones of badness exactly 1, the next phase's hyperedges.
func (p phases) Badness(lo, hi int) int32 {
	return flatMaxBadness(p.fb, p.serverOf, p.load, p.k, lo, hi, p.include)
}

// SolveSharded runs the Theorem 7.3 algorithm (Theorem 7.5 when
// opt.K > 0) on fb using the sharded flat runtime for every phase's
// hypergraph token dropping subgame. Under either tie rule the run is
// bit-identical to Solve on the same network (same phase log, rounds, and
// final assignment).
func SolveSharded(fb *graph.CSRBipartite, opt ShardedOptions) (*ShardedResult, error) {
	k, err := loadCap(opt.K)
	if err != nil {
		return nil, err
	}
	csr := fb.C
	nl, ns := fb.NumLeft, fb.NumServers()
	for c := 0; c < nl; c++ {
		if csr.Degree(c) == 0 {
			return nil, fmt.Errorf("assign: customer %d has no adjacent server", c)
		}
	}
	cs := fb.MaxCustomerDegree() * fb.MaxServerDegree() // Lemma 7.2 bounds the phases by C·S + 1

	sc := opt.Scratch
	if sc == nil {
		sc = new(SolveScratch)
		defer sc.Close()
	}
	sc.fb = fb
	sc.tie = opt.Tie
	sc.kOpt, sc.k = opt.K, k
	sc.seed = opt.Seed
	sc.verify, sc.check = opt.VerifyGames, opt.CheckInvariants
	sc.ensureKernels()

	sc.serverOf = reuse.Grown(sc.serverOf, nl)
	sc.unassigned = reuse.Grown(sc.unassigned, nl)
	for c := range sc.serverOf {
		sc.serverOf[c] = -1
		sc.unassigned[c] = int32(c)
	}
	sc.load = reuse.Grown(sc.load, ns)
	clear(sc.load)

	sc.res = ShardedResult{ServerOf: sc.serverOf, Load: sc.load, K: opt.K, fb: fb}
	res := &sc.res

	if opt.Tie == core.TieRandom {
		sc.custRng = reuse.Grown(sc.custRng, nl)
		for c := range sc.custRng {
			sc.custRng[c] = core.TieSeed(opt.Seed, c)
		}
		sc.servRng = reuse.Grown(sc.servRng, ns)
		for s := range sc.servRng {
			sc.servRng[s] = core.TieSeed(opt.Seed, nl+s)
		}
	} else {
		sc.custRng, sc.servRng = nil, nil
	}

	sc.propServer = reuse.Grown(sc.propServer, nl) // customer -> proposed-to server, this phase

	// Reused per-phase scratch; a solve that failed mid-phase may have
	// left accept entries behind.
	sc.acceptCust = reuse.Grown(sc.acceptCust, ns)
	for s := range sc.acceptCust {
		sc.acceptCust[s] = -1
	}
	if opt.Tie == core.TieRandom {
		sc.bids = reuse.Grown(sc.bids, ns)
	}
	sc.token = reuse.Grown(sc.token, ns)
	clear(sc.token)
	sc.gameLevel = reuse.Grown(sc.gameLevel, ns)
	sc.include = reuse.Grown(sc.include, nl)
	if opt.CheckInvariants {
		sc.loadsBefore = reuse.Grown(sc.loadsBefore, ns)
	}

	// The reusable execution layer: one engine session (persistent worker
	// pool and message buffers) plays every phase's hypergame, and one
	// workspace rebuilds the incidence network and the flat program state
	// in place per phase, so the steady-state phase loop performs no
	// engine or program allocations. Both live in the scratch, so callers
	// with many solves to run keep them across calls.
	if sc.sess == nil { // a new or closed scratch: Close drops both
		sc.sess = local.NewSession(opt.Shards)
		sc.gws = hypergame.NewWorkspace()
	}

	sc.loop.Bound, sc.loop.BadnessItems = cs, nl
	if err := sc.loop.Run(sc.sess, opt.Tie, opt.Checkpoint); err != nil {
		return nil, err
	}
	res.Phases, res.Rounds, res.PhaseLog = sc.loop.Phases, sc.loop.Rounds, sc.loop.Log
	return res, nil
}

// Step runs steps 1–6 of one phase.
func (p phases) Step(phase int, rec *PhaseRecord) error {
	sc := p.SolveScratch
	fb, res, sess, gws := sc.fb, &sc.res, sc.sess, sc.gws
	csr, nl := fb.C, fb.NumLeft
	serverOf, load := sc.serverOf, sc.load
	rec.Proposals = len(sc.unassigned)

	// Steps 1 and 2 — the proposals (sc.propose, on the kernels), then
	// the accepts in one pass over the proposers in ascending customer
	// order: each server accepts the smallest proposing id under
	// TieFirstPort, a uniform draw from its stream under TieRandom (the
	// order Solve draws in; see core.Bid). 2 communication rounds; in the
	// distributed reading the broadcast costs one load announcement per
	// customer-side arc, then one proposal and one acceptance notification
	// per participating customer.
	sess.ParallelFor(len(sc.unassigned), sc.propose)
	for _, c := range sc.unassigned {
		if s := sc.propServer[c]; core.Bid(sc.acceptCust, sc.bids, sc.servRng, int(s), c) {
			sc.token[s] = true
			rec.Accepted++
		}
	}
	res.Messages += int64(csr.Row[nl]) + int64(rec.Proposals) + int64(rec.Accepted)

	// Step 3 — the virtual token hypergraph: server levels = effective
	// loads, hyperedges = the assigned customers of badness exactly 1
	// (heads = their servers), tokens at acceptors. The loop's badness
	// pass marked those customers after the previous phase (Badness),
	// from the loads and servers that steps 1 and 2 leave alone; the
	// insertion is a sequential scan of the marks, because customer-id
	// insertion order with adjacency-order endpoints is what reproduces
	// the object network's port numbering (see the file comment).
	for s, l := range load {
		sc.gameLevel[s] = min(l, sc.k)
	}
	sc.eptr = append(sc.eptr[:0], 0)
	sc.ends = sc.ends[:0]
	sc.heads = sc.heads[:0]
	sc.gameCustomer = sc.gameCustomer[:0]
	for c, in := range sc.include {
		if !in {
			continue
		}
		lo, hi := csr.ArcRange(c)
		for i := lo; i < hi; i++ {
			sc.ends = append(sc.ends, csr.Col[i]-int32(nl))
		}
		sc.eptr = append(sc.eptr, int32(len(sc.ends)))
		sc.heads = append(sc.heads, serverOf[c])
		sc.gameCustomer = append(sc.gameCustomer, int32(c))
	}
	fi, err := gws.NewFlatInstance(sc.gameLevel, sc.token, sc.eptr, sc.ends, sc.heads)
	if err != nil {
		return fmt.Errorf("phase %d produced an invalid game: %w", phase, err)
	}
	rec.GameEdges = len(sc.heads)

	// Step 4 — play the game on the sharded engine; a k-bounded game of
	// at most three levels runs on the three-level solver, as in Solve.
	solveGame := hypergame.SolveProposalShardedInto
	if sc.kOpt > 0 && fi.Height() <= hypergame.ThreeLevelMaxLevel {
		solveGame = hypergame.SolveThreeLevelShardedInto
	}
	if err := solveGame(fi, hypergame.ShardedSolveOptions{
		Tie:       sc.tie,
		Seed:      sc.seed + int64(phase)*1_000_003,
		MaxRounds: 1 << 20,
		Session:   sess,
		Workspace: gws,
	}, &sc.sol); err != nil {
		return fmt.Errorf("phase %d game failed: %w", phase, err)
	}
	sol := &sc.sol
	if sc.verify {
		if err := hypergame.Verify(sol.Solution(fi.Instance())); err != nil {
			return fmt.Errorf("phase %d game unverified: %w", phase, err)
		}
	}
	if sc.check {
		if err := core.CheckPotential(sc.gameLevel, sc.token, sol.Final, len(sol.Moves)); err != nil {
			return fmt.Errorf("phase %d %w", phase, err)
		}
		copy(sc.loadsBefore, load)
	}
	rec.GameRounds = sol.Stats.Rounds
	res.Messages += sol.Stats.Messages

	// Step 5 — apply the moves: a token passed from u to v through
	// customer e moves e's head from u to v (reassignment).
	for _, mv := range sol.Moves {
		c := sc.gameCustomer[mv.Edge]
		load[serverOf[c]]--
		serverOf[c] = int32(mv.To)
		load[mv.To]++
		rec.TokensMoved++
	}
	// Step 6 — assign each accepted customer, which resets its server's
	// accept entry and token, and keep the rest, ascending, as the next
	// phase's proposers.
	kept := sc.unassigned[:0]
	for _, c := range sc.unassigned {
		s := sc.propServer[c]
		if sc.acceptCust[s] != c {
			kept = append(kept, c)
			continue
		}
		serverOf[c] = s
		load[s]++
		sc.acceptCust[s], sc.token[s] = -1, false
	}
	sc.unassigned = kept

	if sc.check {
		if err := checkFlatPhaseInvariants(fb, serverOf, load, sc.loadsBefore, sol.Final, sc.k); err != nil {
			return fmt.Errorf("phase %d: %w", phase, err)
		}
	}
	return nil
}

// recountLoads checks every assignment against the adjacency and the
// cached loads against a from-scratch recount.
func recountLoads(fb *graph.CSRBipartite, serverOf, load []int32) error {
	fresh := make([]int32, len(load))
	for c, so := range serverOf {
		if so < 0 {
			continue
		}
		found := false
		lo, hi := fb.C.ArcRange(c)
		for i := lo; i < hi; i++ {
			if int(fb.C.Col[i])-fb.NumLeft == int(so) {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("customer %d assigned to non-adjacent server %d", c, so)
		}
		fresh[so]++
	}
	for s := range fresh {
		if fresh[s] != load[s] {
			return fmt.Errorf("load of server %d drifted: recomputed %d, cached %d", s, fresh[s], load[s])
		}
	}
	return nil
}

// checkFlatPhaseInvariants enforces the Section 7.2 analogues of Lemmas
// 5.3 and 5.4: server loads grow by exactly one at token destinations
// (equivalently, where a token rests when the game ends) and stay put
// elsewhere, no assigned customer has badness (on loads truncated at k)
// above 1 at the end of a phase, and the cached loads match a
// from-scratch recount.
func checkFlatPhaseInvariants(fb *graph.CSRBipartite, serverOf, load, before []int32, finalToken []bool, k int32) error {
	if err := core.CheckLoadGrowth(before, load, finalToken, "lemma 5.3 analogue violated at server", fb.NumLeft); err != nil {
		return err
	}
	if err := recountLoads(fb, serverOf, load); err != nil {
		return err
	}
	if mb := flatMaxBadness(fb, serverOf, load, k, 0, fb.NumLeft, nil); mb > 1 {
		return fmt.Errorf("lemma 5.4 analogue violated: max badness %d", mb)
	}
	return nil
}
