package hypergame

import (
	"fmt"

	"tokendrop/internal/core"
	"tokendrop/internal/graph"
	"tokendrop/internal/local"
	"tokendrop/internal/reuse"
)

// This file defines the flat-encoded side of the package: a flat hypergraph
// game instance and the shared plumbing of the sharded solvers (the
// proposal program below and the three-level program in flatthreelevel.go).
// The protocols are word-for-word the ones of distributed.go and
// threelevel.go; only the representation changes — the incidence network
// becomes a graph.CSR, message structs become single words, and the
// per-node server/relay machines become one struct-of-arrays program for
// local.Session.Run whose behavior branches on whether the stepped vertex is
// a server (0..n-1) or a hyperedge relay (n..n+m-1).
//
// The incidence CSR inserts edges exactly as the object solvers build their
// network — hyperedges in id order, endpoints in hyperedge order — so port
// numbering matches and, under either tie rule, the flat and object
// engines execute identical runs (rounds, messages, move logs, final
// placement), which the differential tests in this package assert.

// Message words of the flat hypergame protocols (local.Word; 0 = no
// message). Each word doubles for the server→relay and relay→server
// direction of the corresponding object payload pair (sAnnounce/cAnnounce,
// sRequest/cRequest, …); the receiver knows which side it is on.
const (
	hwAnnFree    local.Word = 1 + iota // announce: head unoccupied
	hwAnnOcc                           // announce: head occupied
	hwRequest                          // child asks for the head's token
	hwGrant                            // token passes (hyperedge consumed)
	hwLeave                            // sender terminates
	hwOffer                            // 3-level: middle head offers its token
	hwAccept                           // 3-level: bottom accepts an offer
	hwAccepted                         // 3-level: relay confirms the acceptance
	hwNoChildren                       // 3-level: offered hyperedge ran out of children
)

// Per-arc state flags of the flat programs, packed into one byte. The role
// bits describe the channel from the arc tail's perspective: for a server
// arc, whether the server heads the hyperedge behind it or is a child one
// level below the head; for a relay arc, whether it leads to the relay's
// head endpoint or to a child endpoint. Bystander channels (role bits 0)
// are dead from the start, exactly as the object machines kill them in
// Init.
const (
	hRoleMask  uint8 = 3      // 0 = bystander
	hRoleHead  uint8 = 1      // channel to/of the hyperedge head
	hRoleChild uint8 = 2      // channel to/of a child endpoint
	hDead      uint8 = 1 << 2 // consumed, departed, or bystander
	hChanOcc   uint8 = 1 << 3 // server side: last relayed head occupancy
)

// Packed per-vertex live-channel counters: three 21-bit fields in one word.
// Servers track live head channels, live child channels, and live child
// channels whose relayed occupancy is true; relays only use the child
// field (their single head channel's liveness is a flag bit on its arc).
const (
	hcntBits  = 21
	hcntMask  = 1<<hcntBits - 1
	hcntChild = 1 << hcntBits
	hcntOcc   = 1 << (2 * hcntBits)
)

// FlatInstance is a hypergraph token dropping game in flat form: int32
// levels, hyperedges as one packed endpoint array with offsets, and the
// incidence network (servers 0..n-1, relays n..n+m-1) prebuilt as a CSR.
// It is the hypergraph counterpart of core.FlatInstance, sized so the
// per-phase games of the sharded assignment runtime are a handful of
// allocations.
type FlatInstance struct {
	level []int32
	token []bool
	eptr  []int32 // len m+1: hyperedge id -> offset into ends
	ends  []int32 // packed endpoint lists
	head  []int32 // per hyperedge: the head endpoint
	inc   *graph.CSR
}

// NewFlatInstance validates the level structure — every hyperedge must
// have rank at least 2, distinct in-range endpoints, a head among its
// endpoints with ℓ(head) = min over other endpoints + 1, and no negative
// level — and builds the incidence network. The slices are retained, not
// copied; callers must not mutate them while the instance is in use.
// Loops building one instance per phase should use Workspace.NewFlatInstance,
// which rebuilds the incidence network and the instance shell in place.
func NewFlatInstance(level []int32, token []bool, eptr, ends, head []int32) (*FlatInstance, error) {
	if err := validateFlatInstance(level, token, eptr, ends, head, make([]int32, len(level))); err != nil {
		return nil, err
	}
	b := graph.NewCSRBuilder(len(level)+len(head), len(ends))
	addIncidence(b, len(level), eptr, ends)
	inc := b.Build()
	if err := checkIncidenceDegree(inc); err != nil {
		return nil, err
	}
	return &FlatInstance{level: level, token: token, eptr: eptr, ends: ends, head: head, inc: inc}, nil
}

// validateFlatInstance runs NewFlatInstance's structural checks. stamp is
// endpoint-duplicate scratch: len(level) entries, all zero on entry.
func validateFlatInstance(level []int32, token []bool, eptr, ends, head, stamp []int32) error {
	if len(level) != len(token) {
		return fmt.Errorf("hypergame: %d levels for %d token slots", len(level), len(token))
	}
	m := len(head)
	if len(eptr) != m+1 {
		return fmt.Errorf("hypergame: %d hyperedge offsets for %d heads", len(eptr), m)
	}
	if m > 0 && (eptr[0] != 0 || int(eptr[m]) != len(ends)) {
		return fmt.Errorf("hypergame: hyperedge offsets do not cover the endpoint array")
	}
	n := len(level)
	for v, l := range level {
		if l < 0 {
			return fmt.Errorf("hypergame: vertex %d has negative level", v)
		}
	}
	for id := 0; id < m; id++ {
		lo, hi := eptr[id], eptr[id+1]
		if hi-lo < 2 {
			return fmt.Errorf("hypergame: hyperedge %d has rank %d < 2", id, hi-lo)
		}
		headSeen := false
		minOther := int32(-1)
		for k := lo; k < hi; k++ {
			v := ends[k]
			if v < 0 || int(v) >= n {
				return fmt.Errorf("hypergame: hyperedge %d endpoint %d out of range", id, v)
			}
			if stamp[v] == int32(id)+1 {
				return fmt.Errorf("hypergame: hyperedge %d repeats endpoint %d", id, v)
			}
			stamp[v] = int32(id) + 1
			if v == head[id] {
				headSeen = true
				continue
			}
			if minOther < 0 || level[v] < minOther {
				minOther = level[v]
			}
		}
		if !headSeen {
			return fmt.Errorf("hypergame: head %d of hyperedge %d is not an endpoint", head[id], id)
		}
		if level[head[id]] != minOther+1 {
			return fmt.Errorf("hypergame: hyperedge %d head level %d != min other %d + 1",
				id, level[head[id]], minOther)
		}
	}
	return nil
}

// addIncidence inserts the incidence network exactly as SolveProposal
// builds it: hyperedges in id order, endpoints in hyperedge order — which
// makes the CSR's port numbering identical to the object network's.
func addIncidence(b *graph.CSRBuilder, n int, eptr, ends []int32) {
	for id := 0; id+1 < len(eptr); id++ {
		for k := eptr[id]; k < eptr[id+1]; k++ {
			b.AddEdge(int(ends[k]), n+id)
		}
	}
}

// checkIncidenceDegree rejects incidence degrees that would silently
// overflow the flat programs' packed 21-bit live-channel counts (a server
// in two million hyperedges, or a hyperedge of two million endpoints).
func checkIncidenceDegree(inc *graph.CSR) error {
	if d := inc.MaxDegree(); d >= 1<<hcntBits {
		return fmt.Errorf("hypergame: incidence degree %d exceeds the flat solver's counter range (2^%d - 1)",
			d, hcntBits)
	}
	return nil
}

// Workspace holds the reusable per-solve state of the sharded hypergame
// solvers: the incidence builder and CSR, the FlatInstance shell, the
// validation scratch, and the struct-of-arrays program state of both the
// proposal and the three-level programs. Everything is grown
// monotonically and rebuilt in place, so a phase loop that assembles and
// solves one hypergraph game per phase through a single workspace — the
// sharded assignment runtimes — stops allocating once its largest game
// has been seen. A workspace must not be shared by concurrent solves.
type Workspace struct {
	b     *graph.CSRBuilder
	inc   graph.CSR
	fi    FlatInstance
	stamp []int32
	st    flatHyperState
	prop  flatHyperProposal
	p3    flatHyper3
}

// NewWorkspace returns an empty workspace; the first instance sizes it.
func NewWorkspace() *Workspace {
	w := &Workspace{b: graph.NewCSRBuilder(0, 0)}
	w.prop.flatHyperState = &w.st
	w.p3.flatHyperState = &w.st
	return w
}

// NewFlatInstance is NewFlatInstance rebuilt in the workspace: the
// incidence network, the duplicate-endpoint scratch, and the instance
// shell are reused in place. As with the package function the input
// slices are retained, not copied. The returned instance — and any solve
// result whose construction borrows it — is valid only until the next
// NewFlatInstance call on the same workspace.
func (w *Workspace) NewFlatInstance(level []int32, token []bool, eptr, ends, head []int32) (*FlatInstance, error) {
	n, m := len(level), len(head)
	w.stamp = reuse.Grown(w.stamp, n)
	clear(w.stamp)
	if err := validateFlatInstance(level, token, eptr, ends, head, w.stamp); err != nil {
		return nil, err
	}
	w.b.Reset(n + m)
	addIncidence(w.b, n, eptr, ends)
	w.b.BuildInto(&w.inc)
	if err := checkIncidenceDegree(&w.inc); err != nil {
		return nil, err
	}
	w.fi = FlatInstance{level: level, token: token, eptr: eptr, ends: ends, head: head, inc: &w.inc}
	return &w.fi, nil
}

// NewFlatInstanceFromInstance converts a pointer-based Instance to flat
// form (same vertex ids, hyperedge ids, and incidence port order).
func NewFlatInstanceFromInstance(inst *Instance) *FlatInstance {
	n, m := inst.N(), inst.M()
	level := make([]int32, n)
	for v := 0; v < n; v++ {
		level[v] = int32(inst.Level(v))
	}
	token := make([]bool, n)
	eptr := make([]int32, m+1)
	head := make([]int32, m)
	total := 0
	for id := 0; id < m; id++ {
		total += len(inst.Edge(id))
	}
	ends := make([]int32, 0, total)
	for v := 0; v < n; v++ {
		token[v] = inst.Token(v)
	}
	for id := 0; id < m; id++ {
		for _, v := range inst.Edge(id) {
			ends = append(ends, int32(v))
		}
		eptr[id+1] = int32(len(ends))
		head[id] = int32(inst.Head(id))
	}
	fi, err := NewFlatInstance(level, token, eptr, ends, head)
	if err != nil {
		panic(err)
	}
	return fi
}

// N returns the number of vertices.
func (fi *FlatInstance) N() int { return len(fi.level) }

// M returns the number of hyperedges.
func (fi *FlatInstance) M() int { return len(fi.head) }

// Level returns the level of vertex v.
func (fi *FlatInstance) Level(v int) int { return int(fi.level[v]) }

// Token reports whether v initially holds a token.
func (fi *FlatInstance) Token(v int) bool { return fi.token[v] }

// Height returns the maximum level.
func (fi *FlatInstance) Height() int {
	h := int32(0)
	for _, l := range fi.level {
		if l > h {
			h = l
		}
	}
	return int(h)
}

// Instance materializes the pointer-based Instance (same vertex and
// hyperedge identifiers), for verification with the standard oracle.
func (fi *FlatInstance) Instance() *Instance {
	n, m := fi.N(), fi.M()
	level := make([]int, n)
	for v := range level {
		level[v] = int(fi.level[v])
	}
	edges := make([][]int, m)
	head := make([]int, m)
	for id := 0; id < m; id++ {
		e := make([]int, 0, fi.eptr[id+1]-fi.eptr[id])
		for k := fi.eptr[id]; k < fi.eptr[id+1]; k++ {
			e = append(e, int(fi.ends[k]))
		}
		edges[id] = e
		head[id] = int(fi.head[id])
	}
	return MustInstance(level, append([]bool(nil), fi.token...), edges, head)
}

// ShardedSolveOptions configure the sharded flat solvers. Runs are
// bit-identical to the object solvers under either tie rule: TieRandom
// draws the per-vertex core.TieSeed streams the object machines draw.
type ShardedSolveOptions struct {
	Tie       core.TieBreak
	Seed      int64
	MaxRounds int
	Shards    int // worker count of the solve's own session; 0 = runtime.GOMAXPROCS(0)
	// Session, if non-nil, plays the game on this persistent engine
	// session; its worker count overrides Shards. Without one the solve
	// starts its own session and closes it on return. The assignment
	// phase loops keep one session alive across all their subgames so
	// the worker pool and message buffers are built once.
	Session *local.Session
	// Workspace, if non-nil, rebuilds the program's struct-of-arrays
	// state in place instead of allocating it per solve (see Workspace).
	Workspace *Workspace
}

// FlatResult is the outcome of a sharded hypergame solve: the final token
// placement over the servers, the chronological move log, and statistics.
type FlatResult struct {
	Final []bool
	Moves []Move
	Stats DistStats
}

// Solution wraps the result for Verify. inst must describe the same game
// (use FlatInstance.Instance(), or the Instance the FlatInstance was
// converted from).
func (r *FlatResult) Solution(inst *Instance) *Solution {
	consumed := make([]bool, inst.M())
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

// flatHyperState is the state shared by the two flat hypergame programs:
// one struct-of-arrays encoding of the server and relay machines over the
// incidence CSR.
type flatHyperState struct {
	fi   *FlatInstance
	tie  core.TieBreak
	rngs []uint64

	occ      []bool   // servers: occupied; relays: last announced head occupancy
	reqArc   []int32  // servers: outstanding request arc; relays: pending child request arc
	counters []uint64 // packed liveHead/liveChild/occChild (servers), liveChild (relays)
	headArc  []int32  // relays: the arc to the head endpoint (-1 for servers)
	active   []int32  // servers: request attempts (Lemma 4.4 analogue)
	aflags   []uint8  // per arc: role | hDead | hChanOcc

	// unch[v] counts consecutive outbox-event-free rounds of v, -1 after
	// an event: the quiescent-outbox skip of core's flat programs,
	// ported to the relay protocols. A vertex whose outgoing words are
	// provably what the double buffer already holds (no outbox-relevant
	// event for two consecutive rounds, so outbox(r) == outbox(r-2))
	// skips its stores entirely. In steady state most servers and relays
	// repeat the same announcement, so this removes the bulk of the
	// scattered stores; receivers still read the retained words, so runs
	// are bit-identical with the skip on or off.
	unch []int8

	shardMoves [][]Move
	shardMsgs  []int64
}

// reset rebuilds the shared program state for a fresh solve of fi in
// place, growing the arrays only when fi outgrows them — a warmed state
// (same-sized or shrinking games) resets without allocating. Used by the
// per-solve Workspace of the assignment phase loops.
func (st *flatHyperState) reset(fi *FlatInstance, opt ShardedSolveOptions) {
	n, m := fi.N(), fi.M()
	inc := fi.inc
	st.fi = fi
	st.occ = reuse.Grown(st.occ, n+m)
	st.reqArc = reuse.Grown(st.reqArc, n+m)
	st.counters = reuse.Grown(st.counters, n+m)
	st.headArc = reuse.Grown(st.headArc, n+m)
	st.active = reuse.Grown(st.active, n)
	st.aflags = reuse.Grown(st.aflags, inc.NumArcs())
	st.unch = reuse.Grown(st.unch, n+m)
	st.tie = opt.Tie
	if opt.Tie == core.TieRandom {
		st.rngs = reuse.Grown(st.rngs, n+m)
		for v := range st.rngs {
			st.rngs[v] = core.TieSeed(opt.Seed, v)
		}
	} else {
		st.rngs = nil
	}
	clear(st.active)
	clear(st.occ)
	for v := range st.reqArc {
		st.reqArc[v] = -1
		st.headArc[v] = -1
		st.unch[v] = -1
	}
	copy(st.occ, fi.token)
	// Arc roles. For a server arc the relay behind it identifies the
	// hyperedge; for a relay arc the endpoint's level against the head's
	// decides. Bystander channels start dead on both sides, as in the
	// object machines' Init.
	for v := 0; v < n; v++ {
		lo, hi := inc.ArcRange(v)
		var cnt uint64
		for i := lo; i < hi; i++ {
			id := int(inc.Col[i]) - n
			switch {
			case fi.head[id] == int32(v):
				st.aflags[i] = hRoleHead
				cnt++
			case fi.level[v] == fi.level[fi.head[id]]-1:
				st.aflags[i] = hRoleChild
				cnt += hcntChild
			default:
				st.aflags[i] = hDead
			}
		}
		st.counters[v] = cnt
	}
	for id := 0; id < m; id++ {
		r := n + id
		lo, hi := inc.ArcRange(r)
		hl := fi.level[fi.head[id]]
		var cnt uint64
		for i := lo; i < hi; i++ {
			u := inc.Col[i]
			switch {
			case u == fi.head[id]:
				st.aflags[i] = hRoleHead
				st.headArc[r] = int32(i)
			case fi.level[u] == hl-1:
				st.aflags[i] = hRoleChild
				cnt += hcntChild
			default:
				st.aflags[i] = hDead
			}
		}
		if st.headArc[r] < 0 {
			panic("hypergame: relay lost its head")
		}
		st.counters[r] = cnt
	}
}

// InitShards implements local.FlatProgram. The per-shard logs are grown
// in place, so repeat solves on a warmed program allocate nothing.
func (st *flatHyperState) InitShards(bounds []int) {
	shards := len(bounds) - 1
	if cap(st.shardMoves) < shards {
		st.shardMoves = make([][]Move, shards)
	} else {
		st.shardMoves = st.shardMoves[:shards]
	}
	for s := range st.shardMoves {
		st.shardMoves[s] = st.shardMoves[s][:0]
	}
	st.shardMsgs = reuse.Grown(st.shardMsgs, shards)
	clear(st.shardMsgs)
}

// killArc marks arc i dead and updates the tail vertex's packed counters,
// idempotently (the object machines recount live ports from portDead every
// round; the counters maintain the same quantity incrementally).
func (st *flatHyperState) killArc(i int, cnt uint64) uint64 {
	f := st.aflags[i]
	if f&hDead != 0 {
		return cnt
	}
	switch f & hRoleMask {
	case hRoleHead:
		cnt--
	case hRoleChild:
		cnt -= hcntChild
		if f&hChanOcc != 0 {
			cnt -= hcntOcc
		}
	}
	st.aflags[i] = (f | hDead) &^ hChanOcc
	return cnt
}

// pickFirst returns the first arc in [a0,a1) passing the eligibility mask
// test, or -1 — the flat form of the machines' first-port pick.
func (st *flatHyperState) pickFirst(a0, a1 int, mask, want uint8) int {
	for i := a0; i < a1; i++ {
		if st.aflags[i]&mask == want {
			return i
		}
	}
	return -1
}

// pickRandom reservoir-samples uniformly over the eligible arcs using the
// vertex's TieRandom stream.
func (st *flatHyperState) pickRandom(v, a0, a1 int, mask, want uint8) int {
	count, choice := 0, -1
	for i := a0; i < a1; i++ {
		if st.aflags[i]&mask != want {
			continue
		}
		if count++; core.TieKeep(&st.rngs[v], count) {
			choice = i
		}
	}
	return choice
}

// resultInto writes the run's outcome into out, reusing its slices
// grow-only, so callers that solve many games through one workspace (the
// assignment phase loop) allocate nothing per game.
func (st *flatHyperState) resultInto(stats local.ShardedStats, out *FlatResult) {
	n := st.fi.N()
	total := 0
	for _, ms := range st.shardMoves {
		total += len(ms)
	}
	// Within a shard, moves are appended round-major with relay vertices
	// ascending; shards partition the vertex range in order, so the merge
	// by round reproduces the object engine's (round, hyperedge id) order.
	out.Moves = reuse.Grown(out.Moves, total)[:0]
	core.MergeByRound(st.shardMoves, moveRound, func(ms []Move) {
		out.Moves = append(out.Moves, ms...)
	})
	var messages int64
	for _, ms := range st.shardMsgs {
		messages += ms
	}
	maxActive := 0
	for _, a := range st.active {
		if int(a) > maxActive {
			maxActive = int(a)
		}
	}
	out.Final = reuse.Grown(out.Final, n)
	copy(out.Final, st.occ[:n])
	out.Stats = DistStats{Rounds: stats.Rounds, Messages: messages, MaxActiveRounds: maxActive}
}

// moveRound is the round key of core.MergeByRound over move logs.
func moveRound(m Move) int { return m.Round }

// flatHyperProposal is the generic proposal solver of Theorem 7.1
// (distributed.go) in struct-of-arrays form. stepServer and stepRelay
// mirror serverMachine.Step and relayMachine.Step case for case; any
// semantic divergence is caught by the differential tests, which demand
// bit-identical runs under either tie rule.
type flatHyperProposal struct {
	*flatHyperState
}

// StepShard implements local.FlatProgram.
func (pr *flatHyperProposal) StepShard(round, shard int, verts []int32, recv, send []local.Word, halted []bool) {
	n := pr.fi.N()
	moves := pr.shardMoves[shard]
	var delivered int64
	for _, v32 := range verts {
		v := int(v32)
		if v < n {
			delivered += pr.stepServer(round, v, recv, send, halted)
		} else {
			var d int64
			moves, d = pr.stepRelay(round, v, recv, send, halted, moves)
			delivered += d
		}
	}
	pr.shardMoves[shard] = moves
	pr.shardMsgs[shard] += delivered
}

func (pr *flatHyperProposal) stepServer(round, v int, recv, send []local.Word, halted []bool) int64 {
	inc := pr.fi.inc
	a0, a1 := inc.ArcRange(v)
	aflags := pr.aflags
	occ := pr.occ[v]
	wasOcc := occ
	cnt := pr.counters[v]
	req := int(pr.reqArc[v])
	var delivered int64
	portDied := false
	reqFirst, reqSeen := -1, 0
	for i := a0; i < a1; i++ {
		msg := recv[i]
		if msg == 0 {
			continue
		}
		delivered++
		f := aflags[i]
		switch msg {
		case hwLeave:
			if f&hDead == 0 {
				portDied = true
			}
			cnt = pr.killArc(i, cnt)
		case hwAnnFree, hwAnnOcc:
			if f&hRoleMask != hRoleChild {
				panic(fmt.Sprintf("hypergame: server %d got a child announce on a non-child channel", v))
			}
			if f&hDead != 0 {
				break // stale announcement on a dead channel; occupancy is moot
			}
			if msg == hwAnnOcc {
				if f&hChanOcc == 0 {
					aflags[i] = f | hChanOcc
					cnt += hcntOcc
				}
			} else if f&hChanOcc != 0 {
				aflags[i] = f &^ hChanOcc
				cnt -= hcntOcc
			}
		case hwGrant:
			if occ {
				panic(fmt.Sprintf("hypergame: server %d received a second token", v))
			}
			if i != req {
				panic(fmt.Sprintf("hypergame: server %d granted through a channel it never requested", v))
			}
			occ = true
			if aflags[i]&hDead == 0 {
				portDied = true
			}
			cnt = pr.killArc(i, cnt)
		case hwRequest:
			if f&hRoleMask != hRoleHead {
				panic(fmt.Sprintf("hypergame: server %d got a request on a non-head channel", v))
			}
			if f&hDead == 0 {
				if reqFirst < 0 {
					reqFirst = i
				}
				reqSeen++
			}
		default:
			panic(fmt.Sprintf("hypergame: server %d got unexpected word %d", v, msg))
		}
	}

	// Resolve the outstanding request: token arrived, channel died, or the
	// channel's relayed occupancy turned false (see distributed.go).
	if req >= 0 && (occ || aflags[req]&hDead != 0 || aflags[req]&hChanOcc == 0) {
		req = -1
	}

	// Grant: only a token held since the previous round can be granted.
	grantArc := -1
	if wasOcc && reqSeen > 0 {
		if pr.tie == core.TieFirstPort || reqSeen == 1 {
			grantArc = reqFirst
		} else {
			cn := 0
			for i := reqFirst; i < a1; i++ {
				if recv[i] == hwRequest && aflags[i]&hDead == 0 {
					if cn++; core.TieKeep(&pr.rngs[v], cn) {
						grantArc = i
					}
					if cn == reqSeen {
						break
					}
				}
			}
		}
	}
	if grantArc >= 0 {
		occ = false
		cnt = pr.killArc(grantArc, cnt)
	}

	// Request: unoccupied, nothing in flight, and some live child channel
	// relays an occupied head (the occChild counter tracks the eligible
	// set).
	requestArc := -1
	if !occ && req < 0 && cnt>>(2*hcntBits) > 0 {
		const mask = hRoleMask | hDead | hChanOcc
		const want = hRoleChild | hChanOcc
		if pr.tie == core.TieFirstPort {
			requestArc = pr.pickFirst(a0, a1, mask, want)
		} else {
			requestArc = pr.pickRandom(v, a0, a1, mask, want)
		}
		req = requestArc
		pr.active[v]++
	}

	liveHead := cnt & hcntMask
	liveChild := (cnt >> hcntBits) & hcntMask
	halt := (occ && liveHead == 0) || (!occ && liveChild == 0 && req < 0)

	// Quiescent-outbox skip (see flatHyperState.unch): the outbox is a
	// function of (occ, halt, grantArc, requestArc, dead ports); an
	// event-free round whose two predecessors were also event-free finds
	// its words already in the double buffer and skips the stores.
	changed := grantArc >= 0 || requestArc >= 0 || halt || occ != wasOcc || portDied
	un := pr.unch[v]
	if changed {
		un = -1
	} else if un < 2 {
		un++
	}
	if un < 2 {
		rev := inc.Rev
		for i := a0; i < a1; i++ {
			var word local.Word
			switch {
			case i == grantArc:
				word = hwGrant
			case aflags[i]&hDead != 0:
				// dead channel: nothing
			case halt:
				word = hwLeave
			case i == requestArc:
				word = hwRequest
			case aflags[i]&hRoleMask == hRoleHead:
				if occ {
					word = hwAnnOcc
				} else {
					word = hwAnnFree
				}
			}
			send[rev[i]] = word
		}
	}
	pr.unch[v] = un

	pr.occ[v] = occ
	pr.reqArc[v] = int32(req)
	pr.counters[v] = cnt
	if halt {
		halted[v] = true
	}
	return delivered
}

func (pr *flatHyperProposal) stepRelay(round, v int, recv, send []local.Word, halted []bool, moves []Move) ([]Move, int64) {
	inc := pr.fi.inc
	n := pr.fi.N()
	a0, a1 := inc.ArcRange(v)
	aflags := pr.aflags
	hArc := int(pr.headArc[v])
	headOcc := pr.occ[v]
	wasOcc := headOcc
	pend := int(pr.reqArc[v])
	hadPend := pend >= 0
	cnt := pr.counters[v]
	var delivered int64
	granted := false
	portDied := false
	for i := a0; i < a1; i++ {
		msg := recv[i]
		if msg == 0 {
			continue
		}
		delivered++
		switch msg {
		case hwLeave:
			if pr.aflags[i]&hDead == 0 {
				portDied = true
			}
			cnt = pr.killArc(i, cnt)
		case hwAnnFree, hwAnnOcc:
			if i != hArc {
				panic(fmt.Sprintf("hypergame: relay %d got an announce from a non-head", v-n))
			}
			headOcc = msg == hwAnnOcc
		case hwRequest:
			if aflags[i]&hDead != 0 {
				break
			}
			if pend < 0 {
				pend = i
			}
		case hwGrant:
			if i != hArc {
				panic(fmt.Sprintf("hypergame: relay %d got a grant from a non-head", v-n))
			}
			if pend < 0 || aflags[pend]&hDead != 0 {
				panic(fmt.Sprintf("hypergame: relay %d got a grant with no pending child", v-n))
			}
			granted = true
		default:
			panic(fmt.Sprintf("hypergame: relay %d got unexpected word %d", v-n, msg))
		}
	}

	rev := inc.Rev
	if granted {
		// Route the token and dissolve: the hyperedge is consumed.
		moves = append(moves, Move{
			Edge:  v - n,
			From:  int(inc.Col[hArc]),
			To:    int(inc.Col[pend]),
			Round: round,
		})
		for i := a0; i < a1; i++ {
			var word local.Word
			switch {
			case aflags[i]&hDead != 0:
			case i == pend:
				word = hwGrant
			default:
				word = hwLeave
			}
			send[rev[i]] = word
		}
		pr.occ[v] = headOcc
		pr.reqArc[v] = int32(pend)
		pr.counters[v] = cnt
		halted[v] = true
		return moves, delivered
	}

	// Drop a pending request that can no longer be answered: the child
	// left, or the head's latest word is "unoccupied".
	if pend >= 0 && (aflags[pend]&hDead != 0 || !headOcc) {
		pend = -1
	}

	liveChildren := (cnt >> hcntBits) & hcntMask
	halt := aflags[hArc]&hDead != 0 || liveChildren == 0

	// Quiescent-outbox skip (see flatHyperState.unch): the relay outbox
	// is a function of (headOcc, pend-presence, halt, dead ports).
	changed := halt || portDied || headOcc != wasOcc || (pend >= 0) != hadPend
	un := pr.unch[v]
	if changed {
		un = -1
	} else if un < 2 {
		un++
	}
	if un < 2 {
		for i := a0; i < a1; i++ {
			var word local.Word
			switch {
			case aflags[i]&hDead != 0:
			case halt:
				word = hwLeave
			case i == hArc:
				if pend >= 0 {
					word = hwRequest
				}
			default:
				if headOcc {
					word = hwAnnOcc
				} else {
					word = hwAnnFree
				}
			}
			send[rev[i]] = word
		}
	}
	pr.unch[v] = un

	pr.occ[v] = headOcc
	pr.reqArc[v] = int32(pend)
	pr.counters[v] = cnt
	if halt {
		halted[v] = true
	}
	return moves, delivered
}

var _ local.FlatProgram = (*flatHyperProposal)(nil)

// SolveProposalSharded runs the distributed proposal algorithm for
// hypergraph token dropping (Theorem 7.1) on the sharded flat engine.
// Under either tie rule the run is bit-identical to SolveProposal on the
// same game (same rounds, messages, moves, and final placement). With
// opt.Session and opt.Workspace set, the engine and the program state are
// rebuilt in place across solves (see Workspace); without a session the
// solve runs on one of its own.
func SolveProposalSharded(fi *FlatInstance, opt ShardedSolveOptions) (*FlatResult, error) {
	out := new(FlatResult)
	if err := SolveProposalShardedInto(fi, opt, out); err != nil {
		return nil, err
	}
	return out, nil
}

// SolveProposalShardedInto is SolveProposalSharded writing its outcome
// into out (slices reused grow-only): with a warmed Session and Workspace
// the whole solve performs no heap allocations, which is what the
// assignment phase loop's own zero-allocation contract is built on.
func SolveProposalShardedInto(fi *FlatInstance, opt ShardedSolveOptions, out *FlatResult) error {
	return solveInto(fi, opt, out, func(w *Workspace, fi *FlatInstance, opt ShardedSolveOptions) local.FlatProgram {
		w.prop.reset(fi, opt)
		return &w.prop
	})
}

// solveInto is the one body of the sharded hypergame solvers: on the
// options' session (or one of its own, started here and closed on
// return) it runs the program prog resets in the options' workspace (or
// a fresh one) and writes the outcome into out.
func solveInto(fi *FlatInstance, opt ShardedSolveOptions, out *FlatResult,
	prog func(*Workspace, *FlatInstance, ShardedSolveOptions) local.FlatProgram) error {
	if opt.Workspace == nil {
		opt.Workspace = NewWorkspace()
	}
	if opt.Session == nil {
		opt.Session = local.NewSession(opt.Shards)
		defer opt.Session.Close()
	}
	stats, err := opt.Session.Run(fi.inc, prog(opt.Workspace, fi, opt), local.ShardedOptions{MaxRounds: opt.MaxRounds})
	if err != nil {
		return err
	}
	opt.Workspace.st.resultInto(stats, out)
	return nil
}
