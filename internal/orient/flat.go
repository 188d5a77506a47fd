package orient

import (
	"cmp"
	"fmt"
	"slices"

	"tokendrop/internal/core"
	"tokendrop/internal/graph"
	"tokendrop/internal/local"
)

// This file ports the Theorem 5.1 stable-orientation algorithm to the
// sharded flat runtime: the seed-engine Solve above tops out near 10⁵
// vertices (per-phase object graphs, goroutine-per-node games), while
// SolveSharded keeps the whole phase loop in flat arrays over a
// graph.CSR and runs it on core.PhaseLoop, the frame it shares with the
// assignment layer. Orientation state is two flat arrays: head[id] (the
// head vertex of edge id, -1 while unoriented) and load[v] (the
// indegree). Per phase, the proposals and accepts are evaluated
// centrally from the shared loads (Solve's simulation shortcut, charged
// as 2 communication rounds) in one sequential pass over the unoriented
// edges, so they cost per proposal rather than per arc; the badness-1
// token graph is assembled in place from the marks the loop's badness
// pass left, and played with core.SolveProposalShardedInto on the engine
// session; then traversed edges flip and accepted edges orient toward
// their acceptors.
//
// Bit-identical parity with Solve, under either tie rule, rests on one
// construction detail: Solve builds each phase's game with SortAdjacency,
// so its port numbering is neighbor-ascending. Inserting the game edges
// into a CSRBuilder in lexicographic endpoint order (u, v) reproduces
// exactly that: for any vertex x, edges (p, x) with p < x precede edges
// (x, q) in the global order and are sorted by p, and the (x, q) edges
// follow sorted by q — so x's ports run over its neighbors in ascending
// order. With identical port numbering, levels, and tokens, the sharded
// subgame run is bit-identical to the object-engine run (the internal/core
// differential suite's guarantee), and therefore so are the phase log, the
// round counts, and the final orientation — which the differential suite
// in this package asserts on ~100 instances.

// ShardedOptions configure a SolveSharded run.
type ShardedOptions struct {
	// Tie selects the tie-breaking rule, as in Options. Runs are
	// bit-identical to Solve under either rule: TieRandom draws the
	// per-vertex core.TieSeed streams that Solve draws.
	Tie core.TieBreak
	// Seed drives all randomized tie-breaking.
	Seed int64
	// Shards is the worker count of the engine session that plays every
	// phase's subgame; 0 means runtime.GOMAXPROCS(0). The result does
	// not depend on it.
	Shards int
	// CheckInvariants replays the Lemma 5.3/5.4 checks, the subgame
	// potential identity, and a load recount after every phase. Linear per
	// phase; tests and experiments keep it on.
	CheckInvariants bool
	// VerifyGames additionally materializes every phase's subgame in
	// object form and runs core.Verify on its solution. Quadratic-ish in
	// allocations at scale — meant for tests, not million-node runs.
	VerifyGames bool
	// Checkpoint holds the snapshot cadence, hook and resume cursor
	// (phases; validated restore resume).
	core.Checkpoint[Snapshot]
}

// ShardedResult is the outcome of SolveSharded: the orientation in flat
// form plus the same accounting Result carries.
type ShardedResult struct {
	// Head holds the head vertex of every edge (-1 never occurs in a
	// completed run), indexed by CSR edge id.
	Head []int32
	// Load holds the final indegree of every vertex.
	Load   []int32
	Phases int
	// Rounds counts communication rounds on the adaptive schedule: two per
	// phase for the load broadcast and accept notification, plus the token
	// dropping rounds of each phase.
	Rounds int
	// WorstCaseRounds is the fixed-schedule (paper) bound; see
	// WorstCaseBound.
	WorstCaseRounds int
	PhaseLog        []PhaseRecord

	csr    *graph.CSR
	eu, ev []int32 // per edge: endpoints, eu < ev
}

// edgeTail returns the tail of oriented edge id.
func (r *ShardedResult) edgeTail(id int) int32 {
	if r.Head[id] == r.eu[id] {
		return r.ev[id]
	}
	return r.eu[id]
}

// MaxBadness returns the maximum badness over oriented edges (0 if there
// are none).
func (r *ShardedResult) MaxBadness() int {
	worst := int32(0)
	for id, h := range r.Head {
		if h >= 0 {
			worst = max(worst, r.Load[h]-r.Load[r.edgeTail(id)])
		}
	}
	return int(worst)
}

// Stable reports the stable-orientation condition of Section 1.1: every
// edge is oriented and happy (badness at most 1).
func (r *ShardedResult) Stable() bool {
	return !slices.Contains(r.Head, -1) && r.MaxBadness() <= 1
}

// Potential returns Σ load², the objective of the load-balancing view.
func (r *ShardedResult) Potential() int64 {
	var p int64
	for _, l := range r.Load {
		p += int64(l) * int64(l)
	}
	return p
}

// SemimatchingCost returns Σ load·(load+1)/2, the semi-matching objective
// of Section 1.3.
func (r *ShardedResult) SemimatchingCost() int64 {
	var c int64
	for _, l := range r.Load {
		c += int64(l) * int64(l+1) / 2
	}
	return c
}

// Orientation materializes the pointer-based orientation (same vertex and
// edge identifiers), for cross-checks against the seed engine and the
// structural tooling. It is O(n + m) object construction — test-sized.
func (r *ShardedResult) Orientation() *graph.Orientation {
	o := graph.NewOrientation(r.csr.ToGraph())
	for id, h := range r.Head {
		if h >= 0 {
			o.Orient(id, int(h))
		}
	}
	return o
}

// SolveSharded runs the Theorem 5.1 algorithm on c using the sharded flat
// runtime for every phase's token dropping subgame. Under either tie rule
// the run is bit-identical to Solve on the same graph (same phase log, rounds,
// and final orientation).
func SolveSharded(c *graph.CSR, opt ShardedOptions) (*ShardedResult, error) {
	n, m := c.N(), c.M()
	delta := c.MaxDegree() // Lemma 5.5 bounds the phase count by 2Δ

	// Per-edge endpoints (eu < ev, matching graph.Edge normalization), and
	// the edge ids in lexicographic endpoint order — the insertion order
	// that makes every phase-game CSR neighbor-sorted (see the file
	// comment): each vertex's edges to larger neighbors, sorted by that
	// neighbor, since CSR-native inputs may order a row's ports arbitrarily.
	eu := make([]int32, m)
	ev := make([]int32, m)
	lex := make([]int32, 0, m)
	byUpper := func(a, b int32) int { return cmp.Compare(ev[a], ev[b]) }
	for v := 0; v < n; v++ {
		start := len(lex)
		lo, hi := c.ArcRange(v)
		for i := lo; i < hi; i++ {
			if w := c.Col[i]; int32(v) < w {
				id := c.EID[i]
				eu[id], ev[id] = int32(v), w
				lex = append(lex, id)
			}
		}
		slices.SortFunc(lex[start:], byUpper)
	}

	head := make([]int32, m)
	for id := range head {
		head[id] = -1
	}
	load := make([]int32, n)
	res := &ShardedResult{
		Head: head, Load: load, WorstCaseRounds: WorstCaseBound(delta),
		csr: c, eu: eu, ev: ev,
	}

	var rngs []uint64 // per-vertex TieRandom accept streams
	var bids []int32  // per-vertex proposal counts of the accept pass
	if opt.Tie == core.TieRandom {
		rngs = make([]uint64, n)
		for v := range rngs {
			rngs[v] = core.TieSeed(opt.Seed, v)
		}
		bids = make([]int32, n)
	}

	// Reused per-phase scratch. acceptEdge and token are -1 and false
	// between phases: the accept pass sets the acceptors' entries and
	// step 6 resets them.
	acceptEdge := make([]int32, n) // vertex -> accepted proposing edge, -1
	for v := range acceptEdge {
		acceptEdge[v] = -1
	}
	token := make([]bool, n)
	gameLevel := make([]int32, n)
	tokOrigin := make([]int32, n) // traversal replay: vertex -> token origin
	for v := range tokOrigin {
		tokOrigin[v] = int32(v)
	}
	var loadsBefore []int32
	if opt.CheckInvariants {
		loadsBefore = make([]int32, n)
	}
	gameToOrig := make([]int32, 0, m)
	unoriented := make([]int32, m)
	for id := range unoriented {
		unoriented[id] = int32(id)
	}

	// The reusable execution layer: one engine session (persistent worker
	// pool and message buffers) plays every phase's subgame and runs the
	// loop's badness pass, one builder and CSR hold each phase's token
	// graph, and one solver workspace keeps the flat program's state — all
	// rebuilt in place per phase, so the steady-state phase loop performs
	// no engine or program allocations.
	sess := local.NewSession(opt.Shards)
	defer sess.Close()
	sws := core.NewSolverWorkspace()
	builder := graph.NewCSRBuilder(n, 0)
	var game graph.CSR

	var sol core.FlatResult // every phase's game outcome, reused
	body := &phases{res: res, rngs: rngs, lex: lex, include: make([]bool, m), unoriented: unoriented}
	body.step = func(phase int, rec *PhaseRecord) error {
		// Steps 1 and 2 — every unoriented edge proposes to its
		// smaller-load endpoint (ties toward the smaller vertex id, which
		// is eu), and each proposed-to vertex accepts one proposing edge,
		// in one pass over the proposers in ascending id order: the
		// smallest id under TieFirstPort, a uniform draw from the
		// per-vertex stream under TieRandom (the order Solve draws in; see
		// core.Bid). 2 communication rounds.
		rec.Proposals = len(body.unoriented)
		for _, id := range body.unoriented {
			t := eu[id]
			if load[ev[id]] < load[t] {
				t = ev[id]
			}
			if core.Bid(acceptEdge, bids, rngs, int(t), id) {
				token[t] = true
				rec.Accepted++
			}
		}

		// Step 3 — the virtual token graph: levels = loads, edges = the
		// oriented edges of badness exactly 1, tokens at acceptors (Lemma
		// 5.2 guarantees validity). The loop's badness pass marked those
		// edges after the previous phase (Badness), from the heads and
		// loads that steps 1 and 2 leave alone; the insertion is a
		// sequential scan of the marks, because lex insertion order is
		// what makes the builder's port numbering neighbor-ascending, as
		// in Solve.
		builder.Reset(n)
		gameToOrig = gameToOrig[:0]
		for j, in := range body.include {
			if !in {
				continue
			}
			id := lex[j]
			builder.AddEdge(int(eu[id]), int(ev[id]))
			gameToOrig = append(gameToOrig, id)
		}
		builder.BuildInto(&game)
		rec.GameEdges = game.M()
		copy(gameLevel, load)
		fi, err := sws.NewFlatInstanceCSR(&game, gameLevel, token)
		if err != nil {
			return fmt.Errorf("phase %d produced an invalid game: %w", phase, err)
		}

		// Step 4 — play the game on the sharded engine.
		if err := core.SolveProposalShardedInto(fi, core.ShardedSolveOptions{
			Tie:       opt.Tie,
			Seed:      opt.Seed + int64(phase)*1_000_003,
			MaxRounds: 1 << 20,
			Session:   sess,
			Workspace: sws,
		}, &sol); err != nil {
			return fmt.Errorf("phase %d game failed: %w", phase, err)
		}
		if opt.VerifyGames {
			if err := core.Verify(sol.Solution(fi.Instance())); err != nil {
				return fmt.Errorf("phase %d game unverified: %w", phase, err)
			}
		}
		if opt.CheckInvariants {
			if err := core.CheckPotential(gameLevel, token, sol.Final, len(sol.Moves)); err != nil {
				return fmt.Errorf("phase %d %w", phase, err)
			}
		}
		rec.GameRounds = sol.Stats.Rounds

		// Tokens that travelled at least one hop: a move out of a vertex
		// still holding its original token starts a fresh traversal; every
		// other move extends one. Moves are chronological (round-major), so
		// the replay is exact; the scratch map is restored afterwards.
		for _, mv := range sol.Moves {
			if tokOrigin[mv.From] == int32(mv.From) {
				rec.TokensMoved++
			}
			tokOrigin[mv.To] = tokOrigin[mv.From]
		}
		for _, mv := range sol.Moves {
			tokOrigin[mv.From] = int32(mv.From)
			tokOrigin[mv.To] = int32(mv.To)
		}

		if opt.CheckInvariants {
			copy(loadsBefore, load)
		}

		// Step 5 — flip every traversed edge (each consumed edge was
		// traversed exactly once, and every move consumes its edge).
		for _, mv := range sol.Moves {
			id := gameToOrig[mv.Edge]
			t := res.edgeTail(int(id))
			load[head[id]]--
			load[t]++
			head[id] = t
		}
		// Step 6 — orient each accepted edge toward its acceptor, which
		// resets its accept entry and token, and keep the rest as the next
		// phase's proposers. An edge proposed to one endpoint, so at most
		// one endpoint accepted it.
		kept := body.unoriented[:0]
		for _, id := range body.unoriented {
			v := eu[id]
			if acceptEdge[v] != id {
				if v = ev[id]; acceptEdge[v] != id {
					kept = append(kept, id)
					continue
				}
			}
			head[id] = v
			load[v]++
			acceptEdge[v], token[v] = -1, false
		}
		body.unoriented = kept

		if opt.CheckInvariants {
			if err := checkFlatPhaseInvariants(res, loadsBefore, sol.Final, m-len(kept)); err != nil {
				return fmt.Errorf("phase %d: %w", phase, err)
			}
		}
		return nil
	}
	loop := core.PhaseLoop[Snapshot]{
		Layer: "orient", Lemma: "Lemma 5.5", Param: "Δ", Bound: delta,
		Body: body, BadnessItems: m,
	}
	if err := loop.Run(sess, opt.Tie, opt.Checkpoint); err != nil {
		return nil, err
	}
	res.Phases, res.Rounds, res.PhaseLog = loop.Phases, loop.Rounds, loop.Log
	return res, nil
}

// phases is SolveSharded's core.PhaseBody. Steps 1–6 are step, a
// closure over the solve's flat state; the done test, the badness pass,
// and the snapshot hooks (snapshot.go) read the orientation.
type phases struct {
	res        *ShardedResult
	rngs       []uint64 // per-vertex TieRandom accept streams; nil under TieFirstPort
	lex        []int32  // edge ids in lexicographic endpoint order
	include    []bool   // per lex position: the edge is in the next phase's game
	unoriented []int32  // the unoriented edge ids, ascending: the next phase's proposers
	step       func(phase int, rec *PhaseRecord) error
}

func (p *phases) Done() bool                             { return len(p.unoriented) == 0 }
func (p *phases) Step(phase int, rec *PhaseRecord) error { return p.step(phase, rec) }

// Badness returns the maximum badness over the edges at lex positions
// [lo, hi) and marks the ones of badness exactly 1, the next phase's game
// edges.
func (p *phases) Badness(lo, hi int) int32 {
	r := p.res
	worst := int32(0)
	for j := lo; j < hi; j++ {
		id := p.lex[j]
		b := int32(0)
		if h := r.Head[id]; h >= 0 {
			b = r.Load[h] - r.Load[r.edgeTail(int(id))]
		}
		worst = max(worst, b)
		p.include[j] = b == 1
	}
	return worst
}

// checkFlatPhaseInvariants enforces Lemma 5.3 (the load of v grows by
// exactly 1 iff v is the destination of a token — equivalently, iff v
// holds a token when the game ends) and Lemma 5.4 (badness at most 1 after
// the phase), plus a from-scratch load recount.
func checkFlatPhaseInvariants(r *ShardedResult, before []int32, finalToken []bool, oriented int) error {
	if err := core.CheckLoadGrowth(before, r.Load, finalToken, "lemma 5.3 violated at node", 0); err != nil {
		return err
	}
	fresh := make([]int32, len(r.Load))
	count := 0
	for _, h := range r.Head {
		if h >= 0 {
			fresh[h]++
			count++
		}
	}
	if count != oriented {
		return fmt.Errorf("oriented-edge count drifted: counted %d, cached %d", count, oriented)
	}
	for v := range fresh {
		if fresh[v] != r.Load[v] {
			return fmt.Errorf("load of %d drifted: recomputed %d, cached %d", v, fresh[v], r.Load[v])
		}
	}
	for id, h := range r.Head {
		if h < 0 {
			continue
		}
		if b := r.Load[h] - r.Load[r.edgeTail(id)]; b > 1 {
			return fmt.Errorf("lemma 5.4 violated: edge %d has badness %d after phase", id, b)
		}
	}
	return nil
}
