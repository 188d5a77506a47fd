package core

import (
	"fmt"

	"tokendrop/internal/local"
	"tokendrop/internal/reuse"
)

// Per-arc state flags of the flat programs, packed into one byte so the
// hot loops read a single sequential stream.
const (
	aParent uint8 = 1 << iota // head is one level above the tail
	aDead                     // consumed, or neighbor left
	aPOcc                     // last announced occupancy (parent arcs)
)

// Packed per-vertex live-port counters of flatProposal: three 21-bit
// fields in one word, so the steady-state loop touches one cache line
// per vertex instead of three.
const (
	cntBits  = 21
	cntMask  = 1<<cntBits - 1
	cntChild = 1 << cntBits       // liveChild increment
	cntOcc   = 1 << (2 * cntBits) // occPar increment
)

// Packed per-vertex flags/small fields of flatProposal (vstate array):
// bit 0 occupied, bits 1-2 waiting (0..2), bits 3-4 unchanged+1 (0..3),
// bits 5-6 the event ring [had-event(r-1), had-event(r-2)].
const (
	vOcc       uint8 = 1
	vWaitShift       = 1
	vWaitMask  uint8 = 3 << vWaitShift
	vUnShift         = 3
	vUnMask    uint8 = 3 << vUnShift
	vEvShift         = 5
	vEvMask    uint8 = 3 << vEvShift
)

// flatProposal is the proposal algorithm of Theorem 4.1 (proposal.go) in
// struct-of-arrays form for the sharded engine. Per-node fields of
// ProposalMachine become per-vertex arrays; per-port fields become
// arc-indexed flag bytes; message structs become the f* words. The step
// logic mirrors ProposalMachine.Step case for case — any semantic
// divergence is caught by the differential suite, which demands
// bit-identical runs under either tie rule.
//
// Two representation-level optimizations (invisible in the protocol):
//
//   - live-port counts and the number of live occupied parents are
//     maintained incrementally in the packed counters array — a port
//     dies exactly once — instead of recounted every round;
//   - a vertex whose outgoing words provably equal what the double
//     buffer already holds (nothing outbox-relevant changed for two
//     consecutive rounds) skips its stores entirely. In steady state
//     most vertices are occupied nodes repeating the same announcement,
//     so this removes the bulk of the scattered stores.
type flatProposal struct {
	fi   *FlatInstance
	tie  TieBreak
	seed int64
	rngs []uint64 // per-vertex TieRandom state; nil under TieFirstPort

	// initKernel is the bound initVertices method, created once so that
	// warmed resets through a session dispatch without allocating.
	initKernel local.Kernel

	vstate   []uint8  // packed occupied/waiting/unchanged/event ring
	counters []uint64 // packed livePar/liveChild/occPar
	active   []int32  // rounds spent active & unoccupied (Lemma 4.4)
	aflags   []uint8  // per arc: aParent | aDead | aPOcc

	// childEnd[v] is the end of v's leading child-arc prefix when v's
	// child arcs form a prefix of its arc range (CSR-native generators
	// and layer-major sorted adjacencies have this shape), else -1.
	// Announcements only travel to child arcs and requests/leaves only
	// appear in event rounds, so an event-free round whose two
	// predecessors were also event-free (event ring clear) needs stores
	// to the child prefix only — and none at all on childless vertices.
	childEnd []int32

	// Per-shard grant logs, packed as arc<<32|round. Resolving a grant
	// to a Move needs cold array reads (EID, Col, Rev) plus a 32-byte
	// store; deferring that to resultInto keeps the round loop lean.
	shardGrants [][]int64
	shardMsgs   []int64
}

// reset rebuilds the program state for a fresh solve of fi in place,
// growing the arrays only when fi outgrows them — a warmed program
// (same-sized or shrinking games) resets without allocating. Used by the
// per-solve workspaces of the phase loops. The per-vertex rebuild runs
// sharded on the session's parked workers, like the rounds; the kernel
// only writes per-vertex and own-arc state, so the result cannot depend
// on the split.
func (pr *flatProposal) reset(fi *FlatInstance, tie TieBreak, seed int64, sess *local.Session) {
	n := fi.N()
	pr.fi = fi
	pr.tie = tie
	pr.seed = seed
	pr.vstate = reuse.Grown(pr.vstate, n)
	pr.counters = reuse.Grown(pr.counters, n)
	pr.active = reuse.Grown(pr.active, n)
	pr.aflags = reuse.Grown(pr.aflags, fi.csr.NumArcs())
	pr.childEnd = reuse.Grown(pr.childEnd, n)
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
// and the flag bytes of the vertices' own arcs for [lo, hi).
func (pr *flatProposal) initVertices(sh, lo, hi int) {
	fi := pr.fi
	csr := fi.csr
	for v := lo; v < hi; v++ {
		pr.active[v] = 0
		// unchanged = -1 (stored as un+1 = 0), waiting = 0, and the event
		// ring starts dirty (the pre-round buffers count as unknown).
		s := vEvMask
		if fi.token[v] {
			s |= vOcc
		}
		pr.vstate[v] = s
		alo, ahi := csr.ArcRange(v)
		var c uint64
		ce := int32(alo)
		grouped := true
		for i := alo; i < ahi; i++ {
			if fi.level[csr.Col[i]] > fi.level[v] {
				pr.aflags[i] = aParent
				c++
			} else {
				pr.aflags[i] = 0
				c += cntChild
				if int32(i) != ce {
					grouped = false // a parent arc precedes this child arc
				}
				ce++
			}
		}
		if !grouped {
			ce = -1
		}
		pr.childEnd[v] = ce
		pr.counters[v] = c
		if pr.rngs != nil {
			pr.rngs[v] = TieSeed(pr.seed, v)
		}
	}
}

// InitShards implements local.FlatProgram. The per-shard logs are grown
// in place, so repeat solves on a warmed program allocate nothing.
func (pr *flatProposal) InitShards(bounds []int) {
	shards := len(bounds) - 1
	if cap(pr.shardGrants) < shards {
		pr.shardGrants = make([][]int64, shards)
	} else {
		pr.shardGrants = pr.shardGrants[:shards]
	}
	pr.shardMsgs = reuse.Grown(pr.shardMsgs, shards)
	for s := 0; s < shards; s++ {
		pr.shardMsgs[s] = 0
		// Every move grants a token away, and each vertex holds at most
		// one token at a time, so tokens-in-shard is a good starting
		// capacity for the shard's grant log.
		tokens := 0
		for v := bounds[s]; v < bounds[s+1]; v++ {
			if pr.fi.token[v] {
				tokens++
			}
		}
		if g := pr.shardGrants[s]; cap(g) >= tokens {
			pr.shardGrants[s] = g[:0]
		} else {
			pr.shardGrants[s] = make([]int64, 0, tokens)
		}
	}
}

// StepShard implements local.FlatProgram; see ProposalMachine.Step for the
// protocol this mirrors.
func (pr *flatProposal) StepShard(round, shard int, verts []int32, recv, send []local.Word, halted []bool) {
	csr := pr.fi.csr
	row, rev := csr.Row, csr.Rev
	aflags := pr.aflags
	grants := pr.shardGrants[shard]
	var delivered int64
	for _, v32 := range verts {
		v := int(v32)
		a0, a1 := int(row[v]), int(row[v+1])
		vs := pr.vstate[v]
		ring := (vs & vEvMask) >> vEvShift
		w := (vs & vWaitMask) >> vWaitShift
		if w > 0 {
			w--
		}
		occ := vs&vOcc != 0
		prevOcc := occ
		cnt := pr.counters[v]
		gotGrant := false
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
			case fAnnounceFree, fAnnounceOcc:
				if f&aParent == 0 {
					panic(fmt.Sprintf("core: vertex %d got an announcement from child arc %d", v, i))
				}
				if f&aDead != 0 {
					break // stale announcement on a consumed port; occupancy is moot
				}
				if msg == fAnnounceOcc {
					if f&aPOcc == 0 {
						aflags[i] = f | aPOcc
						cnt += cntOcc
					}
				} else if f&aPOcc != 0 {
					aflags[i] = f &^ aPOcc
					cnt -= cntOcc
				}
			case fLeaveFree, fLeaveOcc:
				if f&aDead == 0 {
					if f&aParent != 0 {
						cnt--
						if f&aPOcc != 0 {
							cnt -= cntOcc
						}
					} else {
						cnt -= cntChild
					}
					aflags[i] = (f | aDead) &^ aPOcc
					portDied = true
				}
			case fGrant:
				if occ {
					panic(fmt.Sprintf("core: vertex %d received a second token in round %d", v, round))
				}
				occ = true
				gotGrant = true
				w = 0
				if f&aDead == 0 {
					cnt--
					if f&aPOcc != 0 {
						cnt -= cntOcc
					}
					aflags[i] = (f | aDead) &^ aPOcc
					portDied = true
				}
			case fRequest:
				if reqFirst < 0 {
					reqFirst = i
				}
				reqSeen++
			default:
				panic(fmt.Sprintf("core: vertex %d got unexpected word %d", v, msg))
			}
		}

		// Grant: only a token held since the previous round can be granted
		// (a token that arrived this round was absent when the requests
		// were aimed); see ProposalMachine's heldSinceLastRound.
		grantArc := -1
		if reqSeen > 0 && occ && !gotGrant {
			if pr.tie == TieFirstPort || reqSeen == 1 {
				grantArc = reqFirst
			} else {
				n := 0
				for i := reqFirst; i < a1; i++ {
					if recv[i] == fRequest {
						if n++; TieKeep(&pr.rngs[v], n) {
							grantArc = i
						}
						if n == reqSeen {
							break
						}
					}
				}
			}
		}
		if grantArc >= 0 {
			occ = false
			if aflags[grantArc]&aDead == 0 {
				cnt -= cntChild
				aflags[grantArc] |= aDead
			}
			grants = append(grants, int64(grantArc)<<32|int64(round))
		}

		// Request: unoccupied, nothing in flight, and some live parent
		// announced a token (the occPar counter tracks exactly the
		// eligible set).
		reqArc := -1
		occPar := cnt >> (2 * cntBits)
		if !occ && w == 0 && occPar > 0 {
			const eligibleMask = aParent | aDead | aPOcc
			const eligible = aParent | aPOcc
			if pr.tie == TieFirstPort {
				for i := a0; i < a1; i++ {
					if aflags[i]&eligibleMask == eligible {
						reqArc = i
						break
					}
				}
			} else {
				n := 0
				for i := a0; i < a1; i++ {
					if aflags[i]&eligibleMask == eligible {
						if n++; TieKeep(&pr.rngs[v], n) {
							reqArc = i
						}
						if uint64(n) == occPar {
							break
						}
					}
				}
			}
			w = 2
			pr.active[v]++
		}

		// Termination condition of Section 4.1, then the outbox. The
		// outbox is a function of (occ, halt, grantArc, reqArc, dead
		// ports). A "special" round (any of those changed) resets the
		// unchanged counter to -1: the event's words appear this round and
		// disappear the next, so two writes must happen before skipping is
		// sound again. unchanged >= 2 means three consecutive event-free
		// rounds, hence outbox(r) == outbox(r-2) == what the double buffer
		// already holds, and the stores are skipped.
		livePar := cnt & cntMask
		liveChild := (cnt >> cntBits) & cntMask
		halt := (occ && liveChild == 0) || (!occ && livePar == 0 && w == 0)
		changed := grantArc >= 0 || reqArc >= 0 || halt || occ != prevOcc || portDied
		un := int8((vs&vUnMask)>>vUnShift) - 1
		if changed {
			un = -1
		} else if un < 2 {
			un++
		}
		if un < 2 {
			if grantArc < 0 && reqArc < 0 && !halt {
				// Common case: only announcements (to live child ports).
				// When the child arcs form a prefix and the buffer's parent
				// slots are known zero (no event two rounds ago), the store
				// range shrinks to that prefix.
				hi := a1
				if ring&2 == 0 {
					if ce := pr.childEnd[v]; ce >= 0 {
						hi = int(ce)
					}
				}
				ann := fAnnounceFree
				if occ {
					ann = fAnnounceOcc
				}
				for i := a0; i < hi; i++ {
					var word local.Word
					if aflags[i]&(aDead|aParent) == 0 {
						word = ann
					}
					send[rev[i]] = word
				}
			} else {
				for i := a0; i < a1; i++ {
					var word local.Word
					switch {
					case i == grantArc:
						word = fGrant
					case aflags[i]&aDead != 0:
						// consumed or departed: nothing
					case halt:
						if occ {
							word = fLeaveOcc
						} else {
							word = fLeaveFree
						}
					case i == reqArc:
						word = fRequest
					case aflags[i]&aParent == 0:
						if occ {
							word = fAnnounceOcc
						} else {
							word = fAnnounceFree
						}
					}
					send[rev[i]] = word
				}
			}
		}

		ring = ring << 1 & 3
		if changed {
			ring |= 1
		}
		vs = ring<<vEvShift | uint8(un+1)<<vUnShift | w<<vWaitShift
		if occ {
			vs |= vOcc
		}
		pr.vstate[v] = vs
		pr.counters[v] = cnt
		if halt {
			halted[v] = true
		}
	}
	pr.shardGrants[shard] = grants
	pr.shardMsgs[shard] += delivered
}

// resultInto writes the run's outcome into out, resolving the packed
// grant logs to moves.
func (pr *flatProposal) resultInto(stats local.ShardedStats, out *FlatResult) {
	out.Final = reuse.Grown(out.Final, len(pr.vstate))
	for v, s := range pr.vstate {
		out.Final[v] = s&vOcc != 0
	}
	total := 0
	for _, g := range pr.shardGrants {
		total += len(g)
	}
	csr := pr.fi.csr
	out.Moves = reuse.Grown(out.Moves, total)[:0]
	MergeByRound(pr.shardGrants, grantRound, func(g []int64) {
		for _, packed := range g {
			arc := int(packed >> 32)
			out.Moves = append(out.Moves, Move{
				Edge:  int(csr.EID[arc]),
				From:  int(csr.Col[csr.Rev[arc]]), // the reverse arc's head is the granting vertex
				To:    int(csr.Col[arc]),
				Round: grantRound(packed),
			})
		}
	})
	finishFlatResult(out, stats, pr.active, pr.shardMsgs)
}

// grantRound is the round of a packed grant.
func grantRound(packed int64) int { return int(int32(packed)) }

var _ flatGame = (*flatProposal)(nil)

// SolveProposalSharded runs the distributed proposal algorithm of
// Theorem 4.1 on the sharded flat engine. Under either tie rule the run
// is bit-identical to SolveProposal on the same game (same rounds,
// messages, moves, and final placement). Use FlatResult.Solution to
// verify the outcome. With opt.Session and opt.Workspace set, the engine
// and the program state are rebuilt in place across solves (see
// SolverWorkspace); without a session the solve runs on one of its own.
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
// orientation phase loop runs every phase's game on.
func SolveProposalShardedInto(fi *FlatInstance, opt ShardedSolveOptions, out *FlatResult) error {
	return solveShardedInto(fi, opt, out, func(ws *SolverWorkspace) flatGame { return &ws.prop })
}
