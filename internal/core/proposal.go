package core

import (
	"fmt"
	"sort"

	"tokendrop/internal/local"
)

// This file implements the proposal algorithm of Section 4.1 (Theorem 4.1)
// as a LOCAL-model state machine. The paper's presentation merges two
// communication rounds into one game round; here the protocol is written
// out at single-communication-round granularity:
//
//   - every awake node tells its children each round whether it holds a
//     token (msgAnnounce),
//   - an unoccupied node with an occupied parent sends msgRequest to one
//     such parent and then waits out the two-round round trip,
//   - an occupied node that receives requests grants its token to exactly
//     one simultaneous requester (msgGrant), consuming that edge,
//   - a node that satisfies a termination condition of Section 4.1
//     (occupied with no live children, or unoccupied with no live parents)
//     says goodbye on every live port (msgLeave) and halts, which removes
//     it — and its edges — from the game.
//
// The handshake is race-free by construction: a request is only ever sent
// to a parent that announced "occupied" one round earlier, a parent grants
// at most one token per round, and a node has at most one request in
// flight, so no node can ever receive two tokens or pass a token it does
// not hold. These claims are enforced as panics (they are invariants, not
// input errors) and exercised heavily by the tests.

type msgAnnounce struct{ Occupied bool }
type msgRequest struct{}
type msgGrant struct{}
type msgLeave struct{ Occupied bool }

// TieBreak selects among several eligible ports (which parent to request
// from, which child to grant to). The paper allows arbitrary choices;
// varying the rule is how experiments probe robustness of the bounds.
type TieBreak int

const (
	// TieFirstPort deterministically picks the lowest eligible port.
	TieFirstPort TieBreak = iota
	// TieRandom picks uniformly at random from the owner's seeded
	// stream (TieSeed), the same draws in both engines.
	TieRandom
)

// ProposalMachine is the per-node state machine of the proposal algorithm.
type ProposalMachine struct {
	// immutable after construction
	vertex   int    // vertex index in the instance (not the LOCAL ID)
	isParent []bool // per port: neighbor is one level above
	edgeID   []int  // per port: underlying edge identifier
	tie      TieBreak
	stream   *uint64 // TieRandom stream; nil under TieFirstPort

	// live state
	occupied  bool
	portDead  []bool // consumed, or neighbor left
	parentOcc []bool // last announced occupancy per parent port
	waiting   int    // rounds until an in-flight request resolves

	// instrumentation and output
	moves            []Move // grants performed by this node (From = this vertex)
	receivedRound    []int  // rounds at which a token arrived (via port)
	activeUnoccupied int    // rounds spent active & unoccupied (Lemma 4.4)
}

// NewProposalMachine builds the machine for a vertex of inst. The local
// inputs — which incident edges lead to parents, and the initial token —
// are exactly what the problem definition hands each node. seed seeds the
// node's TieRandom stream.
func NewProposalMachine(inst *Instance, v int, tie TieBreak, seed int64) *ProposalMachine {
	adj := inst.Graph().Adj(v)
	m := &ProposalMachine{
		vertex:   v,
		isParent: make([]bool, len(adj)),
		edgeID:   make([]int, len(adj)),
		tie:      tie,
		occupied: inst.Token(v),
	}
	for p, a := range adj {
		m.isParent[p] = inst.IsParentArc(v, a)
		m.edgeID[p] = a.Edge
	}
	if tie == TieRandom {
		s := TieSeed(seed, v)
		m.stream = &s
	}
	return m
}

// NewEmbeddedProposalMachine builds a proposal machine for use inside a
// composite protocol (the fixed-schedule stable-orientation machine runs
// one per phase): the caller supplies the per-port local inputs directly
// instead of a game instance. Ports with alive[p] == false take no part in
// the game (they correspond to edges outside the phase's badness-1
// subgraph) and are treated as already removed. The machine is initialized
// and ready to Step; the caller owns halting bookkeeping. Under TieRandom
// the machine draws from the caller's stream.
func NewEmbeddedProposalMachine(vertex int, isParent, alive []bool, edgeID []int, token bool, tie TieBreak, stream *uint64) *ProposalMachine {
	if len(isParent) != len(alive) || len(alive) != len(edgeID) {
		panic("core: embedded machine port slices disagree")
	}
	m := &ProposalMachine{
		vertex:    vertex,
		isParent:  append([]bool(nil), isParent...),
		edgeID:    append([]int(nil), edgeID...),
		tie:       tie,
		stream:    stream,
		occupied:  token,
		portDead:  make([]bool, len(alive)),
		parentOcc: make([]bool, len(alive)),
	}
	for p, a := range alive {
		m.portDead[p] = !a
	}
	return m
}

// Init implements local.Machine.
func (m *ProposalMachine) Init(info local.NodeInfo) {
	m.portDead = make([]bool, info.Degree)
	m.parentOcc = make([]bool, info.Degree)
}

// Step implements local.Machine; see the protocol description above.
func (m *ProposalMachine) Step(round int, in []local.Payload, out []local.Payload) bool {
	if m.waiting > 0 {
		m.waiting--
	}

	// Process the inbox: leaves first (they kill ports), then grants
	// (token arrivals), then requests; announcements just refresh state.
	var requests []bool
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
				panic(fmt.Sprintf("core: vertex %d got an announcement from child port %d", m.vertex, p))
			}
			m.parentOcc[p] = msg.Occupied
		case msgGrant:
			if m.occupied {
				panic(fmt.Sprintf("core: vertex %d received a second token on port %d in round %d", m.vertex, p, round))
			}
			m.occupied = true
			m.waiting = 0
			m.portDead[p] = true // the edge is consumed
			m.parentOcc[p] = false
			m.receivedRound = append(m.receivedRound, round)
		case msgRequest:
			if requests == nil {
				requests = make([]bool, len(in))
			}
			requests[p] = true
		default:
			panic(fmt.Sprintf("core: vertex %d got unexpected payload %T", m.vertex, raw))
		}
	}

	// Grant: only a token held since the previous round can be granted —
	// requests target nodes that announced "occupied" one round ago, and a
	// token that arrived this very round was necessarily absent then.
	// m.receivedRound's last entry detects that case.
	grantPort := -1
	heldSinceLastRound := m.occupied &&
		(len(m.receivedRound) == 0 || m.receivedRound[len(m.receivedRound)-1] < round)
	if requests != nil {
		if heldSinceLastRound {
			grantPort = PickReceived(requests, m.tie, m.stream)
		}
		// Otherwise the requests are stale (the token left within the last
		// two rounds); the requesters observe our "unoccupied" announce.
	}
	if grantPort >= 0 {
		m.occupied = false
		m.portDead[grantPort] = true
		m.moves = append(m.moves, Move{Edge: m.edgeID[grantPort], From: m.vertex, Round: round})
	}

	// Request: unoccupied, nothing in flight, and some live parent
	// announced a token.
	requestPort := -1
	if !m.occupied && m.waiting == 0 {
		eligible := make([]bool, len(in))
		any := false
		for p := range eligible {
			if m.isParent[p] && !m.portDead[p] && m.parentOcc[p] {
				eligible[p] = true
				any = true
			}
		}
		if any {
			requestPort = PickPort(eligible, m.tie, m.stream)
			m.waiting = 2
			m.activeUnoccupied++
		}
	}

	// Termination check (Section 4.1): "If a node u is occupied and has no
	// children or is unoccupied and has no parents, then u terminates."
	// Live ports only; dead ports are removed from the game.
	liveParents, liveChildren := 0, 0
	for p, dead := range m.portDead {
		if dead {
			continue
		}
		if m.isParent[p] {
			liveParents++
		} else {
			liveChildren++
		}
	}
	halt := (m.occupied && liveChildren == 0) || (!m.occupied && liveParents == 0 && m.waiting == 0)

	// Outbox. Announcements go to children every round; the grant replaces
	// the announcement on its port (a grant implies "now unoccupied").
	for p := range out {
		if m.portDead[p] && p != grantPort {
			continue
		}
		switch {
		case halt:
			out[p] = msgLeave{Occupied: m.occupied}
		case p == grantPort:
			out[p] = msgGrant{}
		case p == requestPort:
			out[p] = msgRequest{}
		case !m.isParent[p]:
			out[p] = msgAnnounce{Occupied: m.occupied}
		}
	}
	if halt && grantPort >= 0 {
		// A node can grant its token away and simultaneously discover it
		// can leave; the grant must still be sent. Overwrite the leave on
		// that port with the grant — a grant implies the edge dies anyway.
		out[grantPort] = msgGrant{}
	}
	return halt
}

// Occupied reports whether the node holds a token (valid after the run).
func (m *ProposalMachine) Occupied() bool { return m.occupied }

// Moves returns the grants this node performed, with To filled in by the
// harness (the machine only knows ports; the harness knows the graph).
func (m *ProposalMachine) Moves() []Move { return m.moves }

// ActiveUnoccupiedRounds returns how many rounds the node spent requesting
// while active and unoccupied — the quantity Lemma 4.4 bounds by O(Δ²).
func (m *ProposalMachine) ActiveUnoccupiedRounds() int { return m.activeUnoccupied }

// SolveOptions configure the distributed solvers.
type SolveOptions struct {
	Tie       TieBreak
	Seed      int64
	MaxRounds int
	Workers   int
	// MeasureBits tracks the largest message size delivered (the CONGEST
	// compatibility check of experiment E21).
	MeasureBits bool
}

// DistStats reports distributed-run measurements beyond the Solution.
type DistStats struct {
	Rounds              int   // communication rounds until all nodes halted
	Messages            int64 // total messages delivered
	MaxActiveUnoccupied int   // max over nodes of Lemma 4.4's quantity
	MaxMessageBits      int   // largest delivered payload (with MeasureBits)
}

// SolveProposal runs the distributed proposal algorithm on inst and
// returns the verified-shape Solution together with run statistics.
func SolveProposal(inst *Instance, opt SolveOptions) (*Solution, DistStats, error) {
	machines := make([]*ProposalMachine, inst.N())
	nw := local.NewNetwork(inst.Graph(), func(v int) local.Machine {
		machines[v] = NewProposalMachine(inst, v, opt.Tie, opt.Seed)
		return machines[v]
	})
	stats, err := nw.Run(local.Options{MaxRounds: opt.MaxRounds, Workers: opt.Workers, MeasureBits: opt.MeasureBits})
	if err != nil {
		return nil, DistStats{}, err
	}
	return assembleSolution(inst, stats, func(v int) ([]Move, bool, int) {
		m := machines[v]
		return m.Moves(), m.Occupied(), m.ActiveUnoccupiedRounds()
	})
}

// assembleSolution collects per-node move logs into a Solution, resolving
// each grant's destination via the edge table, and computes DistStats.
func assembleSolution(inst *Instance, stats local.Stats, get func(v int) ([]Move, bool, int)) (*Solution, DistStats, error) {
	var all []Move
	final := make([]bool, inst.N())
	maxActive := 0
	for v := 0; v < inst.N(); v++ {
		moves, occ, active := get(v)
		final[v] = occ
		if active > maxActive {
			maxActive = active
		}
		for _, m := range moves {
			e := inst.Graph().Edge(m.Edge)
			m.To = e.Other(m.From)
			all = append(all, m)
		}
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].Round < all[j].Round })
	consumed := make([]bool, inst.Graph().M())
	for _, m := range all {
		consumed[m.Edge] = true
	}
	sol := &Solution{
		Inst:     inst,
		Moves:    all,
		Final:    final,
		Consumed: consumed,
		Rounds:   stats.Rounds,
	}
	ds := DistStats{
		Rounds:              stats.Rounds,
		Messages:            stats.Messages,
		MaxActiveUnoccupied: maxActive,
		MaxMessageBits:      stats.MaxMessageBits,
	}
	return sol, ds, nil
}

var _ local.Machine = (*ProposalMachine)(nil)

// IsGameGrant reports whether a payload produced or consumed by a
// ProposalMachine is a token grant — composite protocols embedding the
// game use this to observe token transfers on their ports.
func IsGameGrant(p local.Payload) bool {
	_, ok := p.(msgGrant)
	return ok
}

// IsGamePayload reports whether a payload belongs to the game protocol's
// message set (announce, request, grant, leave); composite machines use it
// to route mixed inboxes.
func IsGamePayload(p local.Payload) bool {
	switch p.(type) {
	case msgAnnounce, msgRequest, msgGrant, msgLeave:
		return true
	}
	return false
}
