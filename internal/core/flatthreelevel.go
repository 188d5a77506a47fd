package core

import (
	"fmt"

	"tokendrop/internal/local"
	"tokendrop/internal/reuse"
)

// flatThreeLevel is the Theorem 4.7 algorithm (threelevel.go) in
// struct-of-arrays form for the sharded engine, mirroring
// ThreeLevelMachine's three role behaviours case for case. In-flight
// handshake targets (requestedTo, proposedTo) are stored as absolute arc
// indices, -1 when none.
type flatThreeLevel struct {
	fi   *FlatInstance
	tie  TieBreak
	seed int64
	rngs []uint64

	// initKernel is the bound initVertices method, created once so that
	// warmed resets through a session dispatch without allocating.
	initKernel local.Kernel

	occupied    []bool
	waitGrant   []uint8
	waitAccept  []uint8
	requestedTo []int32
	proposedTo  []int32
	active      []int32

	isParent  []bool
	portDead  []bool
	parentOcc []bool

	shardMoves [][]Move
	shardMsgs  []int64
}

// reset rebuilds the program state for a fresh solve of fi in place,
// growing the arrays only when fi outgrows them, with the per-vertex
// rebuild sharded on the session (see flatProposal.reset).
func (pr *flatThreeLevel) reset(fi *FlatInstance, tie TieBreak, seed int64, sess *local.Session) {
	n := fi.N()
	arcs := fi.csr.NumArcs()
	pr.fi = fi
	pr.tie = tie
	pr.seed = seed
	pr.occupied = reuse.Grown(pr.occupied, n)
	pr.waitGrant = reuse.Grown(pr.waitGrant, n)
	pr.waitAccept = reuse.Grown(pr.waitAccept, n)
	pr.requestedTo = reuse.Grown(pr.requestedTo, n)
	pr.proposedTo = reuse.Grown(pr.proposedTo, n)
	pr.active = reuse.Grown(pr.active, n)
	pr.isParent = reuse.Grown(pr.isParent, arcs)
	pr.portDead = reuse.Grown(pr.portDead, arcs)
	pr.parentOcc = reuse.Grown(pr.parentOcc, arcs)
	if tie == TieRandom {
		pr.rngs = reuse.Grown(pr.rngs, n)
	} else {
		pr.rngs = nil
	}
	if pr.initKernel == nil {
		pr.initKernel = pr.initVertices
	}
	sess.ParallelFor(n, pr.initKernel)
}

// initVertices is the reset kernel: it rederives all per-vertex state
// and the per-arc tables of the vertices' own arcs for [lo, hi).
func (pr *flatThreeLevel) initVertices(sh, lo, hi int) {
	fi := pr.fi
	csr := fi.csr
	for v := lo; v < hi; v++ {
		pr.occupied[v] = fi.token[v]
		pr.waitGrant[v] = 0
		pr.waitAccept[v] = 0
		pr.requestedTo[v] = -1
		pr.proposedTo[v] = -1
		pr.active[v] = 0
		alo, ahi := csr.ArcRange(v)
		for i := alo; i < ahi; i++ {
			pr.isParent[i] = fi.level[csr.Col[i]] > fi.level[v]
			pr.portDead[i] = false
			pr.parentOcc[i] = false
		}
		if pr.rngs != nil {
			pr.rngs[v] = TieSeed(pr.seed, v)
		}
	}
}

// InitShards implements local.FlatProgram. The per-shard logs are grown
// in place, so repeat solves on a warmed program allocate nothing.
func (pr *flatThreeLevel) InitShards(bounds []int) {
	shards := len(bounds) - 1
	if cap(pr.shardMoves) < shards {
		pr.shardMoves = make([][]Move, shards)
	} else {
		pr.shardMoves = pr.shardMoves[:shards]
	}
	for s := range pr.shardMoves {
		pr.shardMoves[s] = pr.shardMoves[s][:0]
	}
	pr.shardMsgs = reuse.Grown(pr.shardMsgs, shards)
	clear(pr.shardMsgs)
}

// pickWord selects among the arcs of [a0, a1) whose incoming word equals
// want and which are not port-dead, per the tie-break rule; it mirrors
// PickPort over the recorded message sets of the object machine (which
// records a request/proposal only when the port is alive).
func (pr *flatThreeLevel) pickWord(v, a0, a1 int, recv []local.Word, want local.Word) int {
	if pr.tie == TieFirstPort {
		for i := a0; i < a1; i++ {
			if !pr.portDead[i] && recv[i] == want {
				return i
			}
		}
		return -1
	}
	choice, cnt := -1, 0
	for i := a0; i < a1; i++ {
		if !pr.portDead[i] && recv[i] == want {
			if cnt++; TieKeep(&pr.rngs[v], cnt) {
				choice = i
			}
		}
	}
	return choice
}

// StepShard implements local.FlatProgram.
func (pr *flatThreeLevel) StepShard(round, shard int, verts []int32, recv, send []local.Word, halted []bool) {
	for _, v32 := range verts {
		v := int(v32)
		var halt bool
		switch pr.fi.level[v] {
		case 0:
			halt = pr.stepBottom(round, shard, v, recv, send)
		case 1:
			halt = pr.stepMiddle(round, shard, v, recv, send)
		case 2:
			halt = pr.stepTop(round, shard, v, recv, send)
		default:
			panic(fmt.Sprintf("core: three-level program on level %d", pr.fi.level[v]))
		}
		if halt {
			halted[v] = true
		}
	}
}

// stepTop: level-2 behaviour (see ThreeLevelMachine.stepTop).
func (pr *flatThreeLevel) stepTop(round, shard, v int, recv, send []local.Word) bool {
	csr := pr.fi.csr
	a0, a1 := csr.ArcRange(v)
	occ := pr.occupied[v]
	anyReq := false
	for i := a0; i < a1; i++ {
		msg := recv[i]
		if msg == 0 {
			continue
		}
		pr.shardMsgs[shard]++
		switch msg {
		case fLeaveFree, fLeaveOcc:
			pr.portDead[i] = true
		case fRequest:
			if !pr.portDead[i] {
				anyReq = true
			}
		default:
			panic(fmt.Sprintf("core: level-2 vertex %d got unexpected word %d", v, msg))
		}
	}
	grantArc := -1
	if occ && anyReq {
		grantArc = pr.pickWord(v, a0, a1, recv, fRequest)
	}
	if grantArc >= 0 {
		occ = false
		pr.portDead[grantArc] = true
		pr.shardMoves[shard] = append(pr.shardMoves[shard],
			Move{Edge: int(csr.EID[grantArc]), From: v, To: int(csr.Col[grantArc]), Round: round})
	}
	liveChildren := 0
	for i := a0; i < a1; i++ {
		if !pr.portDead[i] {
			liveChildren++
		}
	}
	halt := !occ || liveChildren == 0
	for i := a0; i < a1; i++ {
		var word local.Word
		switch {
		case i == grantArc:
			word = fGrant
		case pr.portDead[i]:
		case halt:
			if occ {
				word = fLeaveOcc
			} else {
				word = fLeaveFree
			}
		default:
			if occ {
				word = fAnnounceOcc
			} else {
				word = fAnnounceFree
			}
		}
		send[csr.Rev[i]] = word
	}
	pr.occupied[v] = occ
	return halt
}

// stepBottom: level-0 behaviour (see ThreeLevelMachine.stepBottom).
func (pr *flatThreeLevel) stepBottom(round, shard, v int, recv, send []local.Word) bool {
	csr := pr.fi.csr
	a0, a1 := csr.ArcRange(v)
	occ := pr.occupied[v]
	anyProp := false
	for i := a0; i < a1; i++ {
		msg := recv[i]
		if msg == 0 {
			continue
		}
		pr.shardMsgs[shard]++
		switch msg {
		case fLeaveFree, fLeaveOcc:
			pr.portDead[i] = true
		case fPropose:
			if !pr.portDead[i] {
				anyProp = true
			}
		default:
			panic(fmt.Sprintf("core: level-0 vertex %d got unexpected word %d", v, msg))
		}
	}
	acceptArc := -1
	if !occ && anyProp {
		acceptArc = pr.pickWord(v, a0, a1, recv, fPropose)
	}
	if acceptArc >= 0 {
		occ = true
		pr.portDead[acceptArc] = true
	}
	liveParents := 0
	for i := a0; i < a1; i++ {
		if !pr.portDead[i] {
			liveParents++
		}
	}
	halt := occ || liveParents == 0
	for i := a0; i < a1; i++ {
		var word local.Word
		switch {
		case i == acceptArc:
			word = fAccept
		case pr.portDead[i]:
		case halt:
			if occ {
				word = fLeaveOcc
			} else {
				word = fLeaveFree
			}
		}
		send[csr.Rev[i]] = word
	}
	pr.occupied[v] = occ
	return halt
}

// stepMiddle: level-1 behaviour (see ThreeLevelMachine.stepMiddle).
func (pr *flatThreeLevel) stepMiddle(round, shard, v int, recv, send []local.Word) bool {
	csr := pr.fi.csr
	a0, a1 := csr.ArcRange(v)
	col, rev := csr.Col, csr.Rev
	isParent := pr.isParent
	occ := pr.occupied[v]
	wg, wa := pr.waitGrant[v], pr.waitAccept[v]
	if wg > 0 {
		wg--
	}
	if wa > 0 {
		wa--
	}
	reqTo, propTo := pr.requestedTo[v], pr.proposedTo[v]
	for i := a0; i < a1; i++ {
		msg := recv[i]
		if msg == 0 {
			continue
		}
		pr.shardMsgs[shard]++
		switch msg {
		case fLeaveFree, fLeaveOcc:
			pr.portDead[i] = true
			pr.parentOcc[i] = false
		case fAnnounceFree, fAnnounceOcc:
			if !isParent[i] {
				panic(fmt.Sprintf("core: level-1 vertex %d got an announcement from below", v))
			}
			pr.parentOcc[i] = msg == fAnnounceOcc
		case fGrant:
			if occ {
				panic(fmt.Sprintf("core: level-1 vertex %d received a second token", v))
			}
			occ = true
			pr.portDead[i] = true
			pr.parentOcc[i] = false
			wg = 0
			reqTo = -1
		case fAccept:
			if int32(i) != propTo {
				panic(fmt.Sprintf("core: level-1 vertex %d got an accept it never asked for", v))
			}
			occ = false
			pr.portDead[i] = true
			pr.shardMoves[shard] = append(pr.shardMoves[shard],
				Move{Edge: int(csr.EID[i]), From: v, To: int(col[i]), Round: round})
			wa = 0
			propTo = -1
		default:
			panic(fmt.Sprintf("core: level-1 vertex %d got unexpected word %d", v, msg))
		}
	}
	// Expire resolved handshakes.
	if reqTo >= 0 && (pr.portDead[reqTo] || wg == 0) {
		reqTo = -1
	}
	if propTo >= 0 && (pr.portDead[propTo] || wa == 0) {
		propTo = -1
	}

	reqArc, propArc := -1, -1
	liveParents, liveChildren := 0, 0
	wantReq := !occ && reqTo < 0
	wantProp := occ && propTo < 0
	reqCnt, propCnt := 0, 0
	for i := a0; i < a1; i++ {
		if pr.portDead[i] {
			continue
		}
		if isParent[i] {
			liveParents++
			if wantReq && pr.parentOcc[i] {
				reqCnt++
				if pr.tie == TieFirstPort {
					if reqArc < 0 {
						reqArc = i
					}
				} else if TieKeep(&pr.rngs[v], reqCnt) {
					reqArc = i
				}
			}
		} else {
			liveChildren++
			if wantProp {
				propCnt++
				if pr.tie == TieFirstPort {
					if propArc < 0 {
						propArc = i
					}
				} else if TieKeep(&pr.rngs[v], propCnt) {
					propArc = i
				}
			}
		}
	}
	if reqArc >= 0 {
		reqTo = int32(reqArc)
		wg = 2
		pr.active[v]++
	}
	if propArc >= 0 {
		propTo = int32(propArc)
		wa = 2
	}

	halt := (occ && liveChildren == 0) || (!occ && liveParents == 0 && reqTo < 0)
	for i := a0; i < a1; i++ {
		var word local.Word
		switch {
		case pr.portDead[i]:
		case halt:
			if occ {
				word = fLeaveOcc
			} else {
				word = fLeaveFree
			}
		case i == reqArc:
			word = fRequest
		case i == propArc:
			word = fPropose
		}
		send[rev[i]] = word
	}
	pr.occupied[v] = occ
	pr.waitGrant[v] = wg
	pr.waitAccept[v] = wa
	pr.requestedTo[v] = reqTo
	pr.proposedTo[v] = propTo
	return halt
}

// resultInto writes the run's outcome into out.
func (pr *flatThreeLevel) resultInto(stats local.ShardedStats, out *FlatResult) {
	out.Final = reuse.Grown(out.Final, len(pr.occupied))
	copy(out.Final, pr.occupied)
	total := 0
	for _, ms := range pr.shardMoves {
		total += len(ms)
	}
	out.Moves = reuse.Grown(out.Moves, total)[:0]
	MergeByRound(pr.shardMoves, moveRound, func(ms []Move) {
		out.Moves = append(out.Moves, ms...)
	})
	finishFlatResult(out, stats, pr.active, pr.shardMsgs)
}

var _ flatGame = (*flatThreeLevel)(nil)

// SolveThreeLevelSharded runs the Theorem 4.7 algorithm on the sharded
// flat engine; it errors on games of height greater than
// ThreeLevelMaxLevel. Under either tie rule the run is bit-identical to
// SolveThreeLevel on the same game. With opt.Session and opt.Workspace
// set, the engine and the program state are rebuilt in place across
// solves (see SolverWorkspace); without a session the solve runs on one
// of its own.
func SolveThreeLevelSharded(fi *FlatInstance, opt ShardedSolveOptions) (*FlatResult, error) {
	out := new(FlatResult)
	if err := SolveThreeLevelShardedInto(fi, opt, out); err != nil {
		return nil, err
	}
	return out, nil
}

// SolveThreeLevelShardedInto is SolveThreeLevelSharded writing its
// outcome into out (slices reused grow-only), allocation-free on a
// warmed Session and Workspace like SolveProposalShardedInto.
func SolveThreeLevelShardedInto(fi *FlatInstance, opt ShardedSolveOptions, out *FlatResult) error {
	if h := fi.Height(); h > ThreeLevelMaxLevel {
		return fmt.Errorf("core: three-level solver got height %d > %d", h, ThreeLevelMaxLevel)
	}
	return solveShardedInto(fi, opt, out, func(ws *SolverWorkspace) flatGame { return &ws.three })
}
