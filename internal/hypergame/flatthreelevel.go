package hypergame

import (
	"fmt"

	"tokendrop/internal/core"
	"tokendrop/internal/local"
	"tokendrop/internal/reuse"
)

// flatHyper3 is the specialized three-level solver of Theorem 7.5
// (threelevel.go) in struct-of-arrays form. As on the seed engine,
// level-2 servers and the relays of hyperedges headed on level 2 run the
// proposal steps (flatHyperState.stepServer and stepRelay). Level-0
// servers accept (stepBottom), level-1 servers pull from above and push
// below (stepMiddle), and the relays of hyperedges headed on level 1 walk
// the head's offer over their children (stepPushRelay); these mirror
// server3Machine.Step and relay3Machine.Step case for case. The
// differential tests demand bit-identical runs under either tie rule.
type flatHyper3 struct {
	*flatHyperState
	offArc   []int32 // middles: offered arc; relays: current offer target arc
	offering []bool  // relays: head has offered (latched until resolved)
	push     []bool  // relays: head on level 1 (push mode)
}

// reset3 rebuilds the three-level program state for a fresh solve of fi
// in place (see flatHyperState.reset).
func (p3 *flatHyper3) reset3(fi *FlatInstance, opt ShardedSolveOptions) {
	p3.flatHyperState.reset(fi, opt)
	n, m := fi.N(), fi.M()
	p3.offArc = reuse.Grown(p3.offArc, n+m)
	p3.offering = reuse.Grown(p3.offering, n+m)
	p3.push = reuse.Grown(p3.push, n+m)
	clear(p3.offering)
	clear(p3.push)
	for v := range p3.offArc {
		p3.offArc[v] = -1
	}
	for id := 0; id < m; id++ {
		p3.push[n+id] = fi.level[fi.head[id]] == 1
	}
}

// StepShard implements local.FlatProgram.
func (pr *flatHyper3) StepShard(round, shard int, verts []int32, recv, send []local.Word, halted []bool) {
	n := pr.fi.N()
	moves := pr.shardMoves[shard]
	var delivered int64
	for _, v32 := range verts {
		v := int(v32)
		var d int64
		switch {
		case v >= n && pr.push[v]:
			moves, d = pr.stepPushRelay(round, v, recv, send, halted, moves)
		case v >= n:
			moves, d = pr.stepRelay(round, v, recv, send, halted, moves)
		case pr.fi.level[v] == 0:
			d = pr.stepBottom(v, recv, send, halted)
		case pr.fi.level[v] == 1:
			d = pr.stepMiddle(v, recv, send, halted)
		default:
			d = pr.stepServer(v, recv, send, halted)
		}
		delivered += d
	}
	pr.shardMoves[shard] = moves
	pr.shardMsgs[shard] += delivered
}

// stepBottom: level-0 servers accept one relayed offer and leave.
func (pr *flatHyper3) stepBottom(v int, recv, send []local.Word, halted []bool) int64 {
	inc := pr.fi.inc
	a0, a1 := inc.ArcRange(v)
	occ := pr.occ[v]
	wasOcc := occ
	cnt := pr.counters[v]
	var delivered int64
	portDied := false
	offFirst, offSeen := -1, 0
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
		case hwOffer:
			if pr.aflags[i]&hDead == 0 {
				if offFirst < 0 {
					offFirst = i
				}
				offSeen++
			}
		default:
			panic(fmt.Sprintf("hypergame: level-0 server %d got unexpected word %d", v, msg))
		}
	}
	acceptArc := -1
	if !occ && offSeen > 0 {
		if pr.tie == core.TieFirstPort || offSeen == 1 {
			acceptArc = offFirst
		} else {
			acceptArc = pr.rescanPick(v, offFirst, a1, offSeen, hwOffer, recv)
		}
	}
	if acceptArc >= 0 {
		occ = true
		cnt = pr.killArc(acceptArc, cnt)
	}
	halt := occ || (cnt>>hcntBits)&hcntMask == 0
	// Quiescent-outbox skip (see flatHyperState.unch).
	changed := acceptArc >= 0 || halt || portDied || occ != wasOcc
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
			case i == acceptArc:
				word = hwAccept
			case pr.aflags[i]&hDead != 0:
			case halt:
				word = hwLeave
			}
			send[rev[i]] = word
		}
	}
	pr.unch[v] = un
	pr.occ[v] = occ
	pr.counters[v] = cnt
	if halt {
		halted[v] = true
	}
	return delivered
}

// stepMiddle: level-1 servers pull from above while unoccupied and push
// below while occupied.
func (pr *flatHyper3) stepMiddle(v int, recv, send []local.Word, halted []bool) int64 {
	inc := pr.fi.inc
	a0, a1 := inc.ArcRange(v)
	aflags := pr.aflags
	occ := pr.occ[v]
	wasOcc := occ
	cnt := pr.counters[v]
	req := int(pr.reqArc[v])
	off := int(pr.offArc[v])
	var delivered int64
	portDied := false
	for i := a0; i < a1; i++ {
		msg := recv[i]
		if msg == 0 {
			continue
		}
		delivered++
		f := aflags[i]
		switch msg {
		case hwLeave, hwNoChildren:
			// cNoChildren kills the offered channel just like a departure.
			if f&hDead == 0 {
				portDied = true
			}
			cnt = pr.killArc(i, cnt)
		case hwAnnFree, hwAnnOcc:
			if f&hRoleMask != hRoleChild {
				panic(fmt.Sprintf("hypergame: level-1 server %d got announce on non-child channel", v))
			}
			if f&hDead != 0 {
				break
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
				panic(fmt.Sprintf("hypergame: level-1 server %d received a second token", v))
			}
			if i != req {
				panic(fmt.Sprintf("hypergame: level-1 server %d granted through unrequested channel", v))
			}
			occ = true
			cnt = pr.killArc(i, cnt)
		case hwAccepted:
			if i != off {
				panic(fmt.Sprintf("hypergame: level-1 server %d accepted on unoffered channel", v))
			}
			occ = false
			cnt = pr.killArc(i, cnt)
			off = -1
		default:
			panic(fmt.Sprintf("hypergame: level-1 server %d got unexpected word %d", v, msg))
		}
	}
	if req >= 0 && (occ || aflags[req]&hDead != 0 || aflags[req]&hChanOcc == 0) {
		req = -1
	}
	if off >= 0 && aflags[off]&hDead != 0 {
		off = -1
	}

	requestArc, offerArc := -1, -1
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
	if occ && off < 0 && cnt&hcntMask > 0 {
		const mask = hRoleMask | hDead
		const want = hRoleHead
		if pr.tie == core.TieFirstPort {
			offerArc = pr.pickFirst(a0, a1, mask, want)
		} else {
			offerArc = pr.pickRandom(v, a0, a1, mask, want)
		}
		off = offerArc
	}

	halt := (occ && cnt&hcntMask == 0) || (!occ && (cnt>>hcntBits)&hcntMask == 0 && req < 0)
	// Quiescent-outbox skip (see flatHyperState.unch).
	changed := requestArc >= 0 || offerArc >= 0 || halt || portDied || occ != wasOcc
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
			case aflags[i]&hDead != 0:
			case halt:
				word = hwLeave
			case i == requestArc:
				word = hwRequest
			case i == offerArc:
				word = hwOffer
			}
			send[rev[i]] = word
		}
	}
	pr.unch[v] = un
	pr.occ[v] = occ
	pr.reqArc[v] = int32(req)
	pr.offArc[v] = int32(off)
	pr.counters[v] = cnt
	if halt {
		halted[v] = true
	}
	return delivered
}

// stepPushRelay relays for a hyperedge headed on level 1: it walks the
// head's offer over the live children until one accepts.
func (pr *flatHyper3) stepPushRelay(round, v int, recv, send []local.Word, halted []bool, moves []Move) ([]Move, int64) {
	inc := pr.fi.inc
	n := pr.fi.N()
	a0, a1 := inc.ArcRange(v)
	aflags := pr.aflags
	hArc := int(pr.headArc[v])
	offChild := int(pr.offArc[v])
	wasOffChild := offChild
	offering := pr.offering[v]
	wasOffering := offering
	cnt := pr.counters[v]
	var delivered int64
	accepted := false
	portDied := false
	for i := a0; i < a1; i++ {
		msg := recv[i]
		if msg == 0 {
			continue
		}
		delivered++
		switch msg {
		case hwLeave:
			if aflags[i]&hDead == 0 {
				portDied = true
			}
			cnt = pr.killArc(i, cnt)
		case hwOffer:
			if i != hArc {
				panic(fmt.Sprintf("hypergame: relay %d got an offer from a non-head", v-n))
			}
			offering = true
		case hwAccept:
			if i != offChild {
				panic(fmt.Sprintf("hypergame: relay %d got an accept from an unoffered child", v-n))
			}
			accepted = true
		default:
			panic(fmt.Sprintf("hypergame: relay %d got unexpected word %d", v-n, msg))
		}
	}

	rev := inc.Rev
	if accepted {
		moves = append(moves, Move{Edge: v - n, From: int(inc.Col[hArc]), To: int(inc.Col[offChild]), Round: round})
		for i := a0; i < a1; i++ {
			var word local.Word
			switch {
			case aflags[i]&hDead != 0:
			case i == hArc:
				word = hwAccepted
			default:
				word = hwLeave
			}
			send[rev[i]] = word
		}
		pr.counters[v] = cnt
		halted[v] = true
		return moves, delivered
	}

	// Walk the offer to the next live child when the previous target died
	// without accepting.
	if offering && (offChild < 0 || aflags[offChild]&hDead != 0) {
		offChild = pr.pickFirst(a0, a1, hRoleMask|hDead, hRoleChild)
	}
	halt := aflags[hArc]&hDead != 0 || (cnt>>hcntBits)&hcntMask == 0

	// Quiescent-outbox skip (see flatHyperState.unch): the outbox is a
	// function of (offering, offChild, halt, dead ports).
	changed := halt || portDied || offChild != wasOffChild || offering != wasOffering
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
			case halt && offering && i == hArc:
				word = hwNoChildren
			case halt:
				word = hwLeave
			case offering && i == offChild:
				word = hwOffer
			}
			send[rev[i]] = word
		}
	}
	pr.unch[v] = un
	pr.offArc[v] = int32(offChild)
	pr.offering[v] = offering
	pr.counters[v] = cnt
	if halt {
		halted[v] = true
	}
	return moves, delivered
}

var _ local.FlatProgram = (*flatHyper3)(nil)

// SolveThreeLevelSharded runs the specialized three-level solver on the
// sharded flat engine; games taller than ThreeLevelMaxLevel are an error.
// Under either tie rule the run is bit-identical to SolveThreeLevel on
// the same game. With opt.Session and opt.Workspace set, the engine and
// the program state are rebuilt in place across solves (see Workspace);
// without a session the solve runs on one of its own.
func SolveThreeLevelSharded(fi *FlatInstance, opt ShardedSolveOptions) (*FlatResult, error) {
	out := new(FlatResult)
	if err := SolveThreeLevelShardedInto(fi, opt, out); err != nil {
		return nil, err
	}
	return out, nil
}

// SolveThreeLevelShardedInto is SolveThreeLevelSharded writing its
// outcome into out (slices reused grow-only), allocation-free with a
// warmed Session and Workspace like SolveProposalShardedInto.
func SolveThreeLevelShardedInto(fi *FlatInstance, opt ShardedSolveOptions, out *FlatResult) error {
	if h := fi.Height(); h > ThreeLevelMaxLevel {
		return fmt.Errorf("hypergame: 3-level solver got height %d > %d", h, ThreeLevelMaxLevel)
	}
	return solveInto(fi, opt, out, func(w *Workspace, fi *FlatInstance, opt ShardedSolveOptions) local.FlatProgram {
		w.p3.reset3(fi, opt)
		return &w.p3
	})
}
