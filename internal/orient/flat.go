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
// assignment layer. Orientation state is kept in lex order: position j
// holds the j-th edge in lexicographic endpoint order (smaller endpoint,
// then larger), with its edge id, its two endpoints and its head (-1
// while unoriented), next to load[v] (the indegree). The badness pass
// and the game assembly therefore read the state sequentially; heads
// are written back by edge id only when the solve returns and into each
// capture. Per phase, the proposals and accepts are evaluated centrally
// from the shared loads (Solve's simulation shortcut, charged as 2
// communication rounds) in one sequential pass over the unoriented
// edges, held as lex positions in ascending edge-id order, so they cost
// per proposal rather than per arc; the badness-1 token graph is
// assembled from the marks the loop's badness pass left, over only the
// vertices that have a game edge, and played with
// core.SolveProposalShardedInto on the engine session; then traversed
// edges flip and accepted edges orient toward their acceptors.
//
// Bit-identical parity with Solve, under either tie rule, rests on three
// construction details. Solve builds each phase's game with
// SortAdjacency, so its port numbering is neighbor-ascending. Inserting
// the game edges into a CSRBuilder in lex order reproduces exactly that:
// for any vertex x, edges (p, x) with p < x precede edges (x, q) in the
// global order and are sorted by p, and the (x, q) edges follow sorted by
// q — so x's ports run over its neighbors in ascending order. The game's
// vertices are numbered in ascending original id, which keeps that port
// order and the engine's (round, vertex) move order, and each draws the
// TieRandom stream of the original vertex it stands for (the owner map
// of SolverWorkspace.NewFlatInstanceCSR). The vertices left out have no
// game edge: they would start halted and keep their tokens, which is
// what the loop does with them directly. With identical port numbering,
// levels, and tokens, the sharded subgame run is bit-identical to the
// object-engine run (the internal/core differential suite's guarantee),
// and therefore so are the phase log, the round counts, and the final
// orientation — which the differential suite in this package asserts on
// ~100 instances.

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

	csr *graph.CSR
}

// MaxBadness returns the maximum badness over oriented edges (0 if there
// are none). It reads each oriented edge once, from its tail's arc.
func (r *ShardedResult) MaxBadness() int {
	c := r.csr
	worst := int32(0)
	for v := 0; v < c.N(); v++ {
		lo, hi := c.ArcRange(v)
		for i := lo; i < hi; i++ {
			if w := c.Col[i]; r.Head[c.EID[i]] == w {
				worst = max(worst, r.Load[w]-r.Load[v])
			}
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

	// The lex order: each vertex's edges to larger neighbors, sorted by
	// that neighbor, since CSR-native inputs may order a row's ports
	// arbitrarily. lex first collects arcs, then their edge ids.
	p := &phases{
		lex: make([]int32, 0, m), u: make([]int32, m), v: make([]int32, m), head: make([]int32, m),
		load: make([]int32, n), include: make([]bool, m), unoriented: make([]int32, m),
	}
	lex, eu, ev, head, load := p.lex, p.u, p.v, p.head, p.load
	byUpper := func(a, b int32) int { return cmp.Compare(c.Col[a], c.Col[b]) }
	for x := 0; x < n; x++ {
		start := len(lex)
		lo, hi := c.ArcRange(x)
		for i := lo; i < hi; i++ {
			if int32(x) < c.Col[i] {
				lex = append(lex, int32(i))
			}
		}
		slices.SortFunc(lex[start:], byUpper)
		for j := start; j < len(lex); j++ {
			i := lex[j]
			eu[j], ev[j], lex[j] = int32(x), c.Col[i], c.EID[i]
		}
	}
	p.lex = lex
	for j, id := range lex {
		head[j] = -1
		p.unoriented[id] = int32(j) // every edge, ascending by id
	}
	res := &ShardedResult{Load: load, WorstCaseRounds: WorstCaseBound(delta), csr: c}

	var bids []int32 // per-vertex proposal counts of the accept pass
	if opt.Tie == core.TieRandom {
		p.rngs = make([]uint64, n)
		for v := range p.rngs {
			p.rngs[v] = core.TieSeed(opt.Seed, v)
		}
		bids = make([]int32, n)
	}

	// Reused per-phase scratch. acceptEdge is -1 between phases: the
	// accept pass sets the acceptors' entries (so a vertex holds a token
	// iff its entry is set) and step 6 resets them. comp is -1 outside
	// the game being played.
	acceptEdge := make([]int32, n) // vertex -> accepted proposing edge (lex position), -1
	comp := make([]int32, n)       // vertex -> game vertex, -1
	for v := range acceptEdge {
		acceptEdge[v], comp[v] = -1, -1
	}
	var loadsBefore []int32
	var final []bool // per vertex: holds a token when the phase's game ends
	if opt.CheckInvariants {
		loadsBefore = make([]int32, n)
		final = make([]bool, n)
	}
	// Per game: edge -> lex position, and per game vertex its original
	// vertex, level and token, sized once for the largest possible game.
	edgeBuf := make([]int32, 0, m)
	ownerBuf := make([]int32, 0, n)
	levelBuf := make([]int32, n)
	tokenBuf := make([]bool, n)

	// The reusable execution layer: one engine session (persistent worker
	// pool and message buffers) plays every phase's subgame and runs the
	// loop's badness pass, one builder and CSR hold each phase's token
	// graph, and one solver workspace keeps the flat program's state — all
	// rebuilt in place per phase, so the steady-state phase loop performs
	// no engine or program allocations.
	sess := local.NewSession(opt.Shards)
	defer sess.Close()
	sws := core.NewSolverWorkspace()
	builder := graph.NewCSRBuilder(0, 0)
	var game graph.CSR

	var sol core.FlatResult // every phase's game outcome, reused
	p.step = func(phase int, rec *PhaseRecord) error {
		// Steps 1 and 2 — every unoriented edge proposes to its
		// smaller-load endpoint (ties toward the smaller vertex id, which
		// is eu), and each proposed-to vertex accepts one proposing edge,
		// in one pass over the proposers in ascending id order: the
		// smallest id under TieFirstPort, a uniform draw from the
		// per-vertex stream under TieRandom (the order Solve draws in; see
		// core.Bid, which sees only that order, not the lex positions the
		// accepts record). 2 communication rounds.
		rec.Proposals = len(p.unoriented)
		for _, j := range p.unoriented {
			t := eu[j]
			if load[ev[j]] < load[t] {
				t = ev[j]
			}
			if core.Bid(acceptEdge, bids, p.rngs, int(t), j) {
				rec.Accepted++
			}
		}

		// Step 3 — the virtual token graph: levels = loads, edges = the
		// oriented edges of badness exactly 1, tokens at acceptors (Lemma
		// 5.2 guarantees validity). The loop's badness pass marked those
		// edges after the previous phase (Badness), from the heads and
		// loads that steps 1 and 2 leave alone. The game holds only the
		// vertices with a game edge, numbered in ascending id, and the
		// edges go in in lex order, which is what makes the builder's
		// port numbering neighbor-ascending, as in Solve.
		gameToOrig := edgeBuf[:0]
		for j, in := range p.include {
			if in {
				gameToOrig = append(gameToOrig, int32(j))
				comp[eu[j]], comp[ev[j]] = 0, 0
			}
		}
		rec.GameEdges = len(gameToOrig)
		owner := ownerBuf[:0]
		sol.Moves = sol.Moves[:0]
		rec.GameRounds = 1 // a game without edges halts in its first round
		if len(gameToOrig) > 0 {
			for v, k := range comp {
				if k >= 0 {
					comp[v] = int32(len(owner))
					owner = append(owner, int32(v))
				}
			}
			builder.Reset(len(owner))
			for _, j := range gameToOrig {
				builder.AddEdge(int(comp[eu[j]]), int(comp[ev[j]]))
			}
			builder.BuildInto(&game)
			gameLevel, gameToken := levelBuf[:len(owner)], tokenBuf[:len(owner)]
			for k, v := range owner {
				gameLevel[k], gameToken[k] = load[v], acceptEdge[v] >= 0
				comp[v] = -1
			}
			fi, err := sws.NewFlatInstanceCSR(&game, gameLevel, gameToken, owner)
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
				if err := core.CheckPotential(gameLevel, gameToken, sol.Final, len(sol.Moves)); err != nil {
					return fmt.Errorf("phase %d %w", phase, err)
				}
			}
			rec.GameRounds = sol.Stats.Rounds

			// Tokens that travelled at least one hop. A vertex holds one
			// token at a time, and a token never returns to a vertex it
			// left (it drops a level per move), so each traversal starts
			// with the first move out of a vertex that held a token when
			// the game began; the marks are spent as they are counted.
			for _, mv := range sol.Moves {
				if gameToken[mv.From] {
					gameToken[mv.From] = false
					rec.TokensMoved++
				}
			}
		}

		if opt.CheckInvariants {
			copy(loadsBefore, load)
			for v, e := range acceptEdge {
				final[v] = e >= 0
			}
			for k, v := range owner {
				final[v] = sol.Final[k]
			}
		}

		// Step 5 — flip every traversed edge (each consumed edge was
		// traversed exactly once, and every move consumes its edge).
		for _, mv := range sol.Moves {
			j := gameToOrig[mv.Edge]
			t := p.tail(int(j))
			load[head[j]]--
			load[t]++
			head[j] = t
		}
		// Step 6 — orient each accepted edge toward its acceptor, which
		// resets its accept entry, and keep the rest as the next phase's
		// proposers. An edge proposed to one endpoint, so at most one
		// endpoint accepted it.
		kept := p.unoriented[:0]
		for _, j := range p.unoriented {
			v := eu[j]
			if acceptEdge[v] != j {
				if v = ev[j]; acceptEdge[v] != j {
					kept = append(kept, j)
					continue
				}
			}
			head[j] = v
			load[v]++
			acceptEdge[v] = -1
		}
		p.unoriented = kept

		if opt.CheckInvariants {
			if err := p.checkInvariants(loadsBefore, final, m-len(kept)); err != nil {
				return fmt.Errorf("phase %d: %w", phase, err)
			}
		}
		return nil
	}
	loop := core.PhaseLoop[Snapshot]{
		Layer: "orient", Lemma: "Lemma 5.5", Param: "Δ", Bound: delta,
		Body: p, BadnessItems: m,
	}
	if err := loop.Run(sess, opt.Tie, opt.Checkpoint); err != nil {
		return nil, err
	}
	// The unoriented list is empty now; its storage, one entry per edge,
	// takes the heads by edge id.
	res.Head = p.headsByID(p.unoriented[:m])
	res.Phases, res.Rounds, res.PhaseLog = loop.Phases, loop.Rounds, loop.Log
	return res, nil
}

// phases is SolveSharded's core.PhaseBody and its orientation state, in
// lex order. Steps 1–6 are step, a closure over the solve's flat state;
// the done test, the badness pass, and the snapshot hooks (snapshot.go)
// read the orientation.
type phases struct {
	lex        []int32  // per lex position: the edge id
	u, v       []int32  // per lex position: the endpoints, u < v
	head       []int32  // per lex position: the head, -1 while unoriented
	load       []int32  // per vertex: the indegree
	rngs       []uint64 // per-vertex TieRandom accept streams; nil under TieFirstPort
	include    []bool   // per lex position: the edge is in the next phase's game
	unoriented []int32  // lex positions of the unoriented edges, ascending by id: the next phase's proposers
	step       func(phase int, rec *PhaseRecord) error
}

func (p *phases) Done() bool                             { return len(p.unoriented) == 0 }
func (p *phases) Step(phase int, rec *PhaseRecord) error { return p.step(phase, rec) }

// tail returns the tail of the oriented edge at lex position j.
func (p *phases) tail(j int) int32 {
	if p.head[j] == p.u[j] {
		return p.v[j]
	}
	return p.u[j]
}

// badness returns the badness of the edge at lex position j, 0 while it
// is unoriented.
func (p *phases) badness(j int) int32 {
	h := p.head[j]
	if h < 0 {
		return 0
	}
	return p.load[h] - p.load[p.tail(j)]
}

// Badness returns the maximum badness over the edges at lex positions
// [lo, hi) and marks the ones of badness exactly 1, the next phase's game
// edges.
func (p *phases) Badness(lo, hi int) int32 {
	worst := int32(0)
	for j := lo; j < hi; j++ {
		b := p.badness(j)
		worst = max(worst, b)
		p.include[j] = b == 1
	}
	return worst
}

// headsByID writes the heads into dst, which holds one entry per edge,
// by edge id.
func (p *phases) headsByID(dst []int32) []int32 {
	for j, id := range p.lex {
		dst[id] = p.head[j]
	}
	return dst
}

// checkInvariants enforces Lemma 5.3 (the load of v grows by exactly 1
// iff v is the destination of a token — equivalently, iff v holds a
// token when the game ends) and Lemma 5.4 (badness at most 1 after the
// phase), plus a from-scratch load recount.
func (p *phases) checkInvariants(before []int32, finalToken []bool, oriented int) error {
	if err := core.CheckLoadGrowth(before, p.load, finalToken, "lemma 5.3 violated at node", 0); err != nil {
		return err
	}
	fresh := make([]int32, len(p.load))
	count := 0
	for _, h := range p.head {
		if h >= 0 {
			fresh[h]++
			count++
		}
	}
	if count != oriented {
		return fmt.Errorf("oriented-edge count drifted: counted %d, cached %d", count, oriented)
	}
	for v := range fresh {
		if fresh[v] != p.load[v] {
			return fmt.Errorf("load of %d drifted: recomputed %d, cached %d", v, fresh[v], p.load[v])
		}
	}
	for j, id := range p.lex {
		if b := p.badness(j); b > 1 {
			return fmt.Errorf("lemma 5.4 violated: edge %d has badness %d after phase", id, b)
		}
	}
	return nil
}
