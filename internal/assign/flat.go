package assign

import (
	"fmt"
	"math"

	"tokendrop/internal/core"
	"tokendrop/internal/graph"
	"tokendrop/internal/hypergame"
	"tokendrop/internal/local"
	"tokendrop/internal/reuse"
)

// This file ports the Theorem 7.3 stable-assignment algorithm to the
// sharded flat runtime, the last paper layer off the fast path: the
// seed-engine Solve above builds per-phase object hypergraphs and plays
// them goroutine-per-node, while SolveSharded keeps the whole phase loop in
// flat arrays over a graph.CSRBipartite and plays each phase's hypergraph
// token dropping subgame with hypergame.SolveProposalSharded — the
// struct-of-arrays port of the Theorem 7.1 relay protocol.
//
// Assignment state is two flat arrays: serverOf[c] (the assigned server
// index of customer c, -1 while unassigned) and load[s]. Per phase:
//
//   - proposals/accepts are computed directly from the shared load array
//     (the same simulation shortcut Solve uses: the load broadcast and the
//     acceptance notification are charged as 2 communication rounds but
//     evaluated centrally, since both sides apply one deterministic rule to
//     the same broadcast values). The central passes themselves run as
//     flat kernels on the engine session's parked workers
//     (local.Session.ParallelFor) in owner-computes form, so they shard
//     exactly like the subgame rounds and the results stay independent of
//     the worker count;
//   - the phase's virtual token hypergraph — assigned customers of badness
//     exactly 1 as hyperedges over the servers, levels = loads, tokens at
//     acceptors — is assembled as a flat hypergame.FlatInstance with
//     hyperedges in customer-id order and endpoints in adjacency order,
//     exactly the insertion order Solve hands hypergame.SolveProposal, so
//     the incidence network's port numbering matches the object solver's;
//   - traversed hyperedges reassign their customers, accepted customers
//     are assigned.
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
	// Tie selects the tie-breaking rule. TieFirstPort runs are
	// bit-identical to Solve with RandomTies false; TieRandom draws
	// engine-specific streams (per-vertex splitmix64 instead of the seed
	// engine's shared math/rand), so those runs are independent samples of
	// the protocol.
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
	return int(flatMaxBadness(r.fb, r.ServerOf, r.Load, math.MaxInt32))
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
	for _, s := range r.ServerOf {
		if s < 0 {
			return false
		}
	}
	return flatMaxBadness(r.fb, r.ServerOf, r.Load, k) <= 1
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

// flatMaxBadness returns the maximum badness over assigned customers on
// loads truncated at k (effective load of the assigned server minus the
// minimum adjacent effective load); k = math.MaxInt32 gives true badness.
func flatMaxBadness(fb *graph.CSRBipartite, serverOf, load []int32, k int32) int32 {
	csr := fb.C
	nl := fb.NumLeft
	max := int32(0)
	for c := 0; c < nl; c++ {
		so := serverOf[c]
		if so < 0 {
			continue
		}
		lo, hi := csr.ArcRange(c)
		least := int32(-1)
		for i := lo; i < hi; i++ {
			if l := min(load[int(csr.Col[i])-nl], k); least < 0 || l < least {
				least = l
			}
		}
		if b := min(load[so], k) - least; b > max {
			max = b
		}
	}
	return max
}

// SolveScratch owns the per-solve storage of SolveSharded: the engine
// session and hypergame workspace every phase runs on, the assignment
// arrays, the proposal/accept index, the per-phase subgame scratch, the
// subgame result, and the ShardedResult handed back. All of it is reused
// grow-only across solves, and the six central-pass kernels are built
// once per scratch (capturing only the scratch pointer), so a warmed
// solve performs no heap allocations at all. The zero value is ready to
// use: the first solve starts the session with its opt.Shards workers
// and creates the workspace. Close releases the session. Not safe for
// concurrent use.
type SolveScratch struct {
	sess *local.Session
	gws  *hypergame.Workspace

	// Per-solve bindings the kernels read through the scratch pointer.
	fb  *graph.CSRBipartite
	tie core.TieBreak
	k   int32 // loads are truncated at k (math.MaxInt32 when unbounded)

	serverOf   []int32
	load       []int32
	unassigned []int32
	custRng    []uint64 // engine-specific TieRandom streams
	servRng    []uint64
	servPtr    []int32
	servCust   []int32
	servCursor []int32
	propServer []int32

	// Reused per-phase scratch.
	acceptCust   []int32
	token        []bool
	gameLevel    []int32
	eptr         []int32
	ends         []int32
	heads        []int32
	gameCustomer []int32
	include      []byte
	loadsBefore  []int32
	partAccepted []int32
	partKept     []int32
	partMaxBad   []int32
	sol          hypergame.FlatResult
	res          ShardedResult
	snap         Snapshot // capture buffer, rewritten per capture

	propose, accept, mark, scatter, compact, badness func(sh, lo, hi int)
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

// ensureKernels builds the central per-phase kernels on first use. They
// run as flat kernels on the engine session's parked workers
// (Session.ParallelFor) and read all state through the scratch pointer,
// so one set of closures serves every solve the scratch sees.
func (sc *SolveScratch) ensureKernels() {
	if sc.propose != nil {
		return
	}

	// Step 1: every unassigned customer proposes to the adjacent server
	// with the smallest effective load (ties to the smaller id, or
	// seeded-random) — independent per customer, sharded over the
	// unassigned list.
	sc.propose = func(sh, lo, hi int) {
		csr, nl, load, k := sc.fb.C, sc.fb.NumLeft, sc.load, sc.k
		for idx := lo; idx < hi; idx++ {
			c := sc.unassigned[idx]
			alo, ahi := csr.ArcRange(int(c))
			best := int32(-1)
			bestLoad := int32(0)
			for i := alo; i < ahi; i++ {
				s := csr.Col[i] - int32(nl)
				if l := min(load[s], k); best < 0 || l < bestLoad || (l == bestLoad && s < best) {
					best, bestLoad = s, l
				}
			}
			if sc.tie == core.TieRandom {
				state := sc.custRng[c]
				count := 0
				for i := alo; i < ahi; i++ {
					s := csr.Col[i] - int32(nl)
					if min(load[s], k) != bestLoad {
						continue
					}
					count++
					var pick int
					state, pick = core.SplitMixIntn(state, count)
					if pick == 0 {
						best = s
					}
				}
				sc.custRng[c] = state
			}
			sc.propServer[c] = best
		}
	}

	// Step 2, owner-computes per server: accept one proposing customer —
	// the smallest id under TieFirstPort (the ascending incident scan
	// finds it first), a uniform draw in ascending customer order under
	// TieRandom. Stale propServer entries from earlier phases are
	// filtered by the serverOf test (an unassigned customer rewrote its
	// entry this phase).
	sc.accept = func(sh, lo, hi int) {
		serverOf, propServer := sc.serverOf, sc.propServer
		accepted := int32(0)
		for s := lo; s < hi; s++ {
			best := int32(-1)
			if sc.tie == core.TieRandom {
				state := sc.servRng[s]
				count := 0
				for j := sc.servPtr[s]; j < sc.servPtr[s+1]; j++ {
					c := sc.servCust[j]
					if serverOf[c] >= 0 || propServer[c] != int32(s) {
						continue
					}
					count++
					var pick int
					state, pick = core.SplitMixIntn(state, count)
					if pick == 0 {
						best = c
					}
				}
				sc.servRng[s] = state
			} else {
				for j := sc.servPtr[s]; j < sc.servPtr[s+1]; j++ {
					c := sc.servCust[j]
					if serverOf[c] < 0 && propServer[c] == int32(s) {
						best = c
						break
					}
				}
			}
			sc.acceptCust[s] = best
			sc.token[s] = best >= 0
			if best >= 0 {
				accepted++
			}
		}
		sc.partAccepted[sh] = accepted
	}

	// Step 3's filter over customers: the min-level adjacency scan is the
	// expensive part and runs on the kernels; the order-dependent
	// hyperedge insertion that follows is a sequential scan of the marks
	// (customer-id order is what matches the object network's ports).
	sc.mark = func(sh, lo, hi int) {
		csr, nl, level := sc.fb.C, sc.fb.NumLeft, sc.gameLevel
		for c := lo; c < hi; c++ {
			so := sc.serverOf[c]
			if so < 0 {
				sc.include[c] = 0
				continue
			}
			alo, ahi := csr.ArcRange(c)
			if ahi-alo < 2 {
				sc.include[c] = 0
				continue
			}
			least := int32(-1)
			for i := alo; i < ahi; i++ {
				if l := level[int(csr.Col[i])-nl]; least < 0 || l < least {
					least = l
				}
			}
			if level[so]-least == 1 {
				sc.include[c] = 1
			} else {
				sc.include[c] = 0
			}
		}
	}

	// Step 6's scatter: each accepting server assigns its customer.
	// Distinct servers accept distinct customers, so the writes never
	// collide.
	sc.scatter = func(sh, lo, hi int) {
		for s := lo; s < hi; s++ {
			if c := sc.acceptCust[s]; c >= 0 {
				sc.serverOf[c] = int32(s)
				sc.load[s]++
			}
		}
	}

	// The unassigned list's compaction: each shard compacts the
	// survivors of its own slice in place (the slices are disjoint and
	// writes stay at or below the read cursor); the coordinator then
	// concatenates the per-shard prefixes, preserving ascending order.
	sc.compact = func(sh, lo, hi int) {
		w := lo
		for i := lo; i < hi; i++ {
			if c := sc.unassigned[i]; sc.serverOf[c] < 0 {
				sc.unassigned[w] = c
				w++
			}
		}
		sc.partKept[sh] = int32(w - lo)
	}

	// The per-phase max-badness recount of the phase log (on effective
	// loads), as a max-reduction over customers.
	sc.badness = func(sh, lo, hi int) {
		csr, nl, load, k := sc.fb.C, sc.fb.NumLeft, sc.load, sc.k
		max := int32(0)
		for c := lo; c < hi; c++ {
			so := sc.serverOf[c]
			if so < 0 {
				continue
			}
			alo, ahi := csr.ArcRange(c)
			least := int32(-1)
			for i := alo; i < ahi; i++ {
				if l := min(load[int(csr.Col[i])-nl], k); least < 0 || l < least {
					least = l
				}
			}
			if b := min(load[so], k) - least; b > max {
				max = b
			}
		}
		sc.partMaxBad[sh] = max
	}
}

// SolveSharded runs the Theorem 7.3 algorithm (Theorem 7.5 when
// opt.K > 0) on fb using the sharded flat runtime for every phase's
// hypergraph token dropping subgame. Under TieFirstPort the run is
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
	// Lemma 7.2 bounds the phase count by C·S + 1; the loop aborts past
	// 4·C·S + 8, a margin that only non-termination crosses.
	cs := fb.MaxCustomerDegree() * fb.MaxServerDegree()

	sc := opt.Scratch
	if sc == nil {
		sc = new(SolveScratch)
		defer sc.Close()
	}
	sc.fb = fb
	sc.tie = opt.Tie
	sc.k = k
	sc.ensureKernels()

	sc.serverOf = reuse.Grown(sc.serverOf, nl)
	sc.unassigned = reuse.Grown(sc.unassigned, nl)
	serverOf := sc.serverOf
	for c := range serverOf {
		serverOf[c] = -1
		sc.unassigned[c] = int32(c)
	}
	sc.load = reuse.Grown(sc.load, ns)
	clear(sc.load)
	load := sc.load

	res := &sc.res
	res.ServerOf = serverOf
	res.Load = load
	res.K = opt.K
	res.Phases = 0
	res.Rounds = 0
	res.Messages = 0
	res.PhaseLog = res.PhaseLog[:0]
	res.fb = fb

	var custRng, servRng []uint64
	if opt.Tie == core.TieRandom {
		sc.custRng = reuse.Grown(sc.custRng, nl)
		custRng = sc.custRng
		for c := range custRng {
			custRng[c] = core.SplitMix64(uint64(opt.Seed) ^ uint64(c)*0x9e3779b97f4a7c15)
		}
		sc.servRng = reuse.Grown(sc.servRng, ns)
		servRng = sc.servRng
		for s := range servRng {
			servRng[s] = core.SplitMix64(uint64(opt.Seed) ^ uint64(nl+s)*0x9e3779b97f4a7c15)
		}
	}

	// Per-server incident customers in ascending customer order. The
	// central accept pass runs owner-computes on the kernel executor —
	// each server derives its own accepted customer — and this index
	// keeps that bit-identical to the unassigned-list loop it replaces: a
	// server's accept decision (and, under TieRandom, its per-server draw
	// stream) depends only on the subsequence of its proposing customers
	// in ascending customer order, which is exactly the order the
	// ascending unassigned list presented them in. The input CSR's
	// server-side port order may be arbitrary (CSR-native inputs), so
	// the index is built from the customer side.
	sc.servPtr = reuse.Grown(sc.servPtr, ns+1)
	servPtr := sc.servPtr
	clear(servPtr)
	custArcs := int(csr.Row[nl]) // arcs of the customer side
	for i := 0; i < custArcs; i++ {
		servPtr[int(csr.Col[i])-nl+1]++
	}
	for s := 0; s < ns; s++ {
		servPtr[s+1] += servPtr[s]
	}
	sc.servCust = reuse.Grown(sc.servCust, custArcs)
	sc.servCursor = reuse.Grown(sc.servCursor, ns)
	servCust, servCursor := sc.servCust, sc.servCursor
	copy(servCursor, servPtr[:ns])
	for c := 0; c < nl; c++ {
		lo, hi := csr.ArcRange(c)
		for i := lo; i < hi; i++ {
			s := int(csr.Col[i]) - nl
			servCust[servCursor[s]] = int32(c)
			servCursor[s]++
		}
	}
	sc.propServer = reuse.Grown(sc.propServer, nl) // customer -> proposed-to server, this phase
	for c := range sc.propServer {
		sc.propServer[c] = -1
	}

	// Reused per-phase scratch.
	sc.acceptCust = reuse.Grown(sc.acceptCust, ns)
	sc.token = reuse.Grown(sc.token, ns)
	sc.gameLevel = reuse.Grown(sc.gameLevel, ns)
	sc.include = reuse.Grown(sc.include, nl) // game-assembly marks, indexed by customer
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
	sess, gws := sc.sess, sc.gws

	// The central per-phase passes run as the kernels of ensureKernels on
	// the session's parked workers (Session.ParallelFor); their
	// per-shard reductions land here.
	shards := sess.Shards()
	sc.partAccepted = reuse.Grown(sc.partAccepted, shards)
	sc.partKept = reuse.Grown(sc.partKept, shards)
	sc.partMaxBad = reuse.Grown(sc.partMaxBad, shards)

	startPhase := 1
	if rs := opt.ResumeFrom; rs != nil {
		ua, err := restoreAssignSnapshot(rs, fb, opt.K, opt.Tie, serverOf, load, sc.unassigned, custRng, servRng)
		if err != nil {
			return nil, fmt.Errorf("assign: %w", err)
		}
		sc.unassigned = ua
		res.Rounds = rs.Rounds
		res.PhaseLog = append(res.PhaseLog, rs.PhaseLog...)
		res.Phases = rs.Phase
		startPhase = rs.Phase + 1
	}

	for phase := startPhase; len(sc.unassigned) > 0; phase++ {
		if phase > 4*cs+8 {
			return nil, fmt.Errorf("assign: phase %d exceeds the Lemma 7.2 budget (C·S=%d)", phase, cs)
		}
		rec := PhaseRecord{Phase: phase, Proposals: len(sc.unassigned)}

		// Steps 1 and 2 — the proposal and accept passes (see
		// ensureKernels). 2 communication rounds; in the distributed
		// reading the broadcast costs one load announcement per
		// customer-side arc, then one proposal and one acceptance
		// notification per participating customer.
		sess.ParallelFor(len(sc.unassigned), sc.propose)
		sess.ParallelFor(ns, sc.accept)
		for _, a := range sc.partAccepted {
			rec.Accepted += int(a)
		}
		res.Rounds += 2
		res.Messages += int64(custArcs) + int64(rec.Proposals) + int64(rec.Accepted)

		// Step 3 — the virtual token hypergraph: server levels = effective
		// loads, hyperedges = the assigned customers of badness exactly 1
		// (heads = their servers), tokens at acceptors. The badness filter
		// runs on the kernels (sc.mark); the insertion itself stays a
		// sequential scan of the marks, because customer-id insertion
		// order with adjacency-order endpoints is what reproduces the
		// object network's port numbering (see the file comment).
		for s, l := range load {
			sc.gameLevel[s] = min(l, k)
		}
		sess.ParallelFor(nl, sc.mark)
		sc.eptr = append(sc.eptr[:0], 0)
		sc.ends = sc.ends[:0]
		sc.heads = sc.heads[:0]
		sc.gameCustomer = sc.gameCustomer[:0]
		for c := 0; c < nl; c++ {
			if sc.include[c] == 0 {
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
			return nil, fmt.Errorf("assign: phase %d produced an invalid game: %w", phase, err)
		}
		rec.GameEdges = len(sc.heads)

		// Step 4 — play the game on the sharded engine; a k-bounded game of
		// at most three levels runs on the three-level solver, as in Solve.
		solveGame := hypergame.SolveProposalShardedInto
		if opt.K > 0 && fi.Height() <= hypergame.ThreeLevelMaxLevel {
			solveGame = hypergame.SolveThreeLevelShardedInto
		}
		if err := solveGame(fi, hypergame.ShardedSolveOptions{
			RandomTies: opt.Tie == core.TieRandom,
			Seed:       opt.Seed + int64(phase)*1_000_003,
			MaxRounds:  1 << 20,
			Session:    sess,
			Workspace:  gws,
		}, &sc.sol); err != nil {
			return nil, fmt.Errorf("assign: phase %d game failed: %w", phase, err)
		}
		sol := &sc.sol
		if opt.VerifyGames {
			if err := hypergame.Verify(sol.Solution(fi.Instance())); err != nil {
				return nil, fmt.Errorf("assign: phase %d game unverified: %w", phase, err)
			}
		}
		if opt.CheckInvariants {
			var finalPot int64
			for s, occ := range sol.Final {
				if occ {
					finalPot += int64(fi.Level(s))
				}
			}
			if got := fi.InitialPotential() - int64(len(sol.Moves)); got != finalPot {
				return nil, fmt.Errorf("assign: phase %d potential identity broken: %d != %d", phase, got, finalPot)
			}
			copy(sc.loadsBefore, load)
		}
		rec.GameRounds = sol.Stats.Rounds
		res.Rounds += sol.Stats.Rounds
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
		// Step 6 — assign the accepted customers (sc.scatter), then
		// compact the unassigned list (sc.compact + ordered concat of
		// the per-shard survivor prefixes, using ParallelFor's documented
		// slice split).
		sess.ParallelFor(ns, sc.scatter)
		u := len(sc.unassigned)
		sess.ParallelFor(u, sc.compact)
		kept := 0
		for sh := 0; sh < shards; sh++ {
			lo := u * sh / shards
			n := int(sc.partKept[sh])
			copy(sc.unassigned[kept:kept+n], sc.unassigned[lo:lo+n])
			kept += n
		}
		sc.unassigned = sc.unassigned[:kept]

		if opt.CheckInvariants {
			if err := checkFlatPhaseInvariants(fb, serverOf, load, sc.loadsBefore, sol.Final, k); err != nil {
				return nil, fmt.Errorf("assign: phase %d: %w", phase, err)
			}
		}
		sess.ParallelFor(nl, sc.badness)
		rec.MaxBadness = 0
		for _, b := range sc.partMaxBad {
			if int(b) > rec.MaxBadness {
				rec.MaxBadness = int(b)
			}
		}
		res.PhaseLog = append(res.PhaseLog, rec)
		res.Phases = phase

		if opt.Due(phase) {
			captureAssignSnapshot(&sc.snap, opt.K, phase, res.Rounds, serverOf, load, sc.unassigned, custRng, servRng, res.PhaseLog)
			if err := opt.OnSnapshot(&sc.snap); err != nil {
				return nil, fmt.Errorf("assign: snapshot at phase %d: %w", phase, err)
			}
		}
	}
	return res, nil
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
	for s, b := range before {
		want := b
		if finalToken[s] {
			want++
		}
		if load[s] != want {
			return fmt.Errorf("lemma 5.3 analogue violated at server %d: load %d -> %d, destination=%v",
				fb.NumLeft+s, b, load[s], finalToken[s])
		}
	}
	if err := recountLoads(fb, serverOf, load); err != nil {
		return err
	}
	if mb := flatMaxBadness(fb, serverOf, load, k); mb > 1 {
		return fmt.Errorf("lemma 5.4 analogue violated: max badness %d", mb)
	}
	return nil
}
