package core

import (
	"fmt"

	"tokendrop/internal/local"
)

// This file implements the specialized algorithm of Section 4.3
// (Theorem 4.7) for games on levels {0, 1, 2}: the middle layer drives all
// movement, and the analysis shows that a level-1 node loses one neighbor
// per handshake, giving O(Δ) rounds instead of the generic O(L·Δ²).
//
// Protocol, at single-communication-round granularity:
//
//   - level-2 nodes announce their occupancy downwards every round; upon
//     receiving requests they grant their token to exactly one requester
//     and immediately terminate (they are unoccupied and level 2 nodes
//     never re-acquire tokens); an initially unoccupied or childless
//     level-2 node terminates right away,
//   - unoccupied level-1 nodes request a token from an occupied parent
//     (two-round handshake, at most one request in flight); occupied
//     level-1 nodes propose their token to one live child (two-round
//     handshake, at most one proposal in flight),
//   - level-0 nodes accept exactly one of the proposals that reach them,
//     become occupied and terminate; a level-0 node with no live parents
//     left also terminates. Live level-0 nodes are therefore always
//     unoccupied, which is why level-1 proposers need no occupancy view of
//     the bottom layer,
//   - every termination says goodbye on all live ports (msgLeave), which
//     removes the node and its edges from the game.

type msgPropose struct{}
type msgAccept struct{}

// ThreeLevelMaxLevel is the largest Height (max level) the specialized
// solver accepts: levels {0, 1, 2}, the paper's "3-level" game.
const ThreeLevelMaxLevel = 2

// ThreeLevelMachine is the per-node state machine of the Theorem 4.7
// algorithm. The role is fixed by the node's level, which is part of the
// local input for this algorithm (the generic proposal algorithm does not
// need it; the specialized one does, as in the paper).
type ThreeLevelMachine struct {
	vertex   int
	level    int
	isParent []bool
	edgeID   []int
	tie      TieBreak
	stream   uint64 // TieRandom stream

	occupied    bool
	portDead    []bool
	parentOcc   []bool
	waitGrant   int // level-1: in-flight request window
	waitAccept  int // level-1: in-flight proposal window
	proposedTo  int // port of the in-flight proposal, -1 if none
	requestedTo int // port of the in-flight request, -1 if none

	moves  []Move
	active int
}

// NewThreeLevelMachine builds the machine for vertex v of inst.
func NewThreeLevelMachine(inst *Instance, v int, tie TieBreak, seed int64) *ThreeLevelMachine {
	adj := inst.Graph().Adj(v)
	m := &ThreeLevelMachine{
		vertex:      v,
		level:       inst.Level(v),
		isParent:    make([]bool, len(adj)),
		edgeID:      make([]int, len(adj)),
		tie:         tie,
		occupied:    inst.Token(v),
		proposedTo:  -1,
		requestedTo: -1,
	}
	for p, a := range adj {
		m.isParent[p] = inst.IsParentArc(v, a)
		m.edgeID[p] = a.Edge
	}
	if tie == TieRandom {
		m.stream = TieSeed(seed, v)
	}
	return m
}

// Init implements local.Machine.
func (m *ThreeLevelMachine) Init(info local.NodeInfo) {
	m.portDead = make([]bool, info.Degree)
	m.parentOcc = make([]bool, info.Degree)
}

// pick draws from the first candidate on, even for a grant or an accept
// over received messages: flatThreeLevel.pickWord counts no inbox.
func (m *ThreeLevelMachine) pick(eligible []bool) int {
	return PickPort(eligible, m.tie, &m.stream)
}

func (m *ThreeLevelMachine) liveCounts() (parents, children int) {
	for p, dead := range m.portDead {
		if dead {
			continue
		}
		if m.isParent[p] {
			parents++
		} else {
			children++
		}
	}
	return
}

// Step implements local.Machine.
func (m *ThreeLevelMachine) Step(round int, in []local.Payload, out []local.Payload) bool {
	switch m.level {
	case 0:
		return m.stepBottom(round, in, out)
	case 1:
		return m.stepMiddle(round, in, out)
	case 2:
		return m.stepTop(round, in, out)
	}
	panic(fmt.Sprintf("core: three-level machine on level %d", m.level))
}

// stepTop: level-2 behaviour.
func (m *ThreeLevelMachine) stepTop(round int, in []local.Payload, out []local.Payload) bool {
	var requests []bool
	for p, raw := range in {
		if raw == nil {
			continue
		}
		switch raw.(type) {
		case msgLeave:
			m.portDead[p] = true
		case msgRequest:
			if requests == nil {
				requests = make([]bool, len(in))
			}
			requests[p] = !m.portDead[p]
		default:
			panic(fmt.Sprintf("core: level-2 vertex %d got unexpected payload %T", m.vertex, raw))
		}
	}
	grantPort := -1
	if m.occupied && requests != nil {
		grantPort = m.pick(requests)
	}
	if grantPort >= 0 {
		m.occupied = false
		m.portDead[grantPort] = true
		m.moves = append(m.moves, Move{Edge: m.edgeID[grantPort], From: m.vertex, Round: round})
	}
	_, liveChildren := m.liveCounts()
	halt := !m.occupied || liveChildren == 0
	for p := range out {
		if m.portDead[p] && p != grantPort {
			continue
		}
		switch {
		case p == grantPort:
			out[p] = msgGrant{}
		case halt:
			out[p] = msgLeave{Occupied: m.occupied}
		default:
			out[p] = msgAnnounce{Occupied: m.occupied}
		}
	}
	return halt
}

// stepBottom: level-0 behaviour.
func (m *ThreeLevelMachine) stepBottom(round int, in []local.Payload, out []local.Payload) bool {
	var proposals []bool
	for p, raw := range in {
		if raw == nil {
			continue
		}
		switch raw.(type) {
		case msgLeave:
			m.portDead[p] = true
		case msgPropose:
			if proposals == nil {
				proposals = make([]bool, len(in))
			}
			proposals[p] = !m.portDead[p]
		default:
			panic(fmt.Sprintf("core: level-0 vertex %d got unexpected payload %T", m.vertex, raw))
		}
	}
	acceptPort := -1
	if !m.occupied && proposals != nil {
		acceptPort = m.pick(proposals)
	}
	if acceptPort >= 0 {
		m.occupied = true
		m.portDead[acceptPort] = true
	}
	liveParents, _ := m.liveCounts()
	halt := m.occupied || liveParents == 0
	for p := range out {
		if m.portDead[p] && p != acceptPort {
			continue
		}
		switch {
		case p == acceptPort:
			out[p] = msgAccept{}
		case halt:
			out[p] = msgLeave{Occupied: m.occupied}
		}
	}
	return halt
}

// stepMiddle: level-1 behaviour, alternating between pulling a token from
// above and pushing it below.
func (m *ThreeLevelMachine) stepMiddle(round int, in []local.Payload, out []local.Payload) bool {
	if m.waitGrant > 0 {
		m.waitGrant--
	}
	if m.waitAccept > 0 {
		m.waitAccept--
	}
	for p, raw := range in {
		if raw == nil {
			continue
		}
		switch msg := raw.(type) {
		case msgLeave:
			m.portDead[p] = true
			m.parentOcc[p] = false
		case msgAnnounce:
			if !m.isParent[p] {
				panic(fmt.Sprintf("core: level-1 vertex %d got an announcement from below", m.vertex))
			}
			m.parentOcc[p] = msg.Occupied
		case msgGrant:
			if m.occupied {
				panic(fmt.Sprintf("core: level-1 vertex %d received a second token", m.vertex))
			}
			m.occupied = true
			m.portDead[p] = true
			m.parentOcc[p] = false
			m.waitGrant = 0
			m.requestedTo = -1
		case msgAccept:
			if p != m.proposedTo {
				panic(fmt.Sprintf("core: level-1 vertex %d got an accept it never asked for", m.vertex))
			}
			m.occupied = false
			m.portDead[p] = true
			m.moves = append(m.moves, Move{Edge: m.edgeID[p], From: m.vertex, Round: round})
			m.waitAccept = 0
			m.proposedTo = -1
		default:
			panic(fmt.Sprintf("core: level-1 vertex %d got unexpected payload %T", m.vertex, raw))
		}
	}
	// Expire resolved handshakes: a dead port or an elapsed window frees
	// the node for its next attempt.
	if m.requestedTo >= 0 && (m.portDead[m.requestedTo] || m.waitGrant == 0) {
		m.requestedTo = -1
	}
	if m.proposedTo >= 0 && (m.portDead[m.proposedTo] || m.waitAccept == 0) {
		m.proposedTo = -1
	}

	requestPort, proposePort := -1, -1
	if !m.occupied && m.requestedTo < 0 {
		eligible := make([]bool, len(in))
		any := false
		for p := range eligible {
			if m.isParent[p] && !m.portDead[p] && m.parentOcc[p] {
				eligible[p] = true
				any = true
			}
		}
		if any {
			requestPort = m.pick(eligible)
			m.requestedTo = requestPort
			m.waitGrant = 2
			m.active++
		}
	}
	if m.occupied && m.proposedTo < 0 {
		eligible := make([]bool, len(in))
		any := false
		for p := range eligible {
			if !m.isParent[p] && !m.portDead[p] {
				eligible[p] = true
				any = true
			}
		}
		if any {
			proposePort = m.pick(eligible)
			m.proposedTo = proposePort
			m.waitAccept = 2
		}
	}

	liveParents, liveChildren := m.liveCounts()
	halt := (m.occupied && liveChildren == 0) ||
		(!m.occupied && liveParents == 0 && m.requestedTo < 0)
	for p := range out {
		if m.portDead[p] {
			continue
		}
		switch {
		case halt:
			out[p] = msgLeave{Occupied: m.occupied}
		case p == requestPort:
			out[p] = msgRequest{}
		case p == proposePort:
			out[p] = msgPropose{}
		}
	}
	return halt
}

// Occupied reports whether the node holds a token (valid after the run).
func (m *ThreeLevelMachine) Occupied() bool { return m.occupied }

// Moves returns the passes this node performed (To filled in by the
// harness).
func (m *ThreeLevelMachine) Moves() []Move { return m.moves }

// ActiveRounds returns the number of pull attempts, the analogue of
// Lemma 4.4's quantity for the middle layer.
func (m *ThreeLevelMachine) ActiveRounds() int { return m.active }

// SolveThreeLevel runs the Theorem 4.7 algorithm. It returns an error if
// the instance has height greater than ThreeLevelMaxLevel.
func SolveThreeLevel(inst *Instance, opt SolveOptions) (*Solution, DistStats, error) {
	if h := inst.Height(); h > ThreeLevelMaxLevel {
		return nil, DistStats{}, fmt.Errorf("core: three-level solver got height %d > %d", h, ThreeLevelMaxLevel)
	}
	machines := make([]*ThreeLevelMachine, inst.N())
	nw := local.NewNetwork(inst.Graph(), func(v int) local.Machine {
		machines[v] = NewThreeLevelMachine(inst, v, opt.Tie, opt.Seed)
		return machines[v]
	})
	stats, err := nw.Run(local.Options{MaxRounds: opt.MaxRounds, Workers: opt.Workers, MeasureBits: opt.MeasureBits})
	if err != nil {
		return nil, DistStats{}, err
	}
	return assembleSolution(inst, stats, func(v int) ([]Move, bool, int) {
		m := machines[v]
		return m.Moves(), m.Occupied(), m.ActiveRounds()
	})
}

var _ local.Machine = (*ThreeLevelMachine)(nil)
