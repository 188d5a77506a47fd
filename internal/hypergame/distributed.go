package hypergame

import (
	"fmt"
	"sort"

	"tokendrop/internal/core"
	"tokendrop/internal/graph"
	"tokendrop/internal/local"
)

// Distributed solver for the hypergraph token dropping game (Section 7.1,
// Theorem 7.1). The LOCAL communication network is the incidence graph:
// every hyperedge becomes a relay node adjacent to its endpoints — exactly
// the customer/server network of the assignment problem, where a customer
// relays between the servers it is connected to.
//
// Protocol (single-communication-round granularity; compare the flat
// proposal algorithm in package core):
//
//   - a head server announces its occupancy to each hyperedge it heads
//     every round; the relay forwards the latest value to the hyperedge's
//     children every round (a two-round information lag),
//   - an unoccupied server with a live parent channel that relays
//     "occupied" sends a request up that channel and keeps it outstanding
//     until it resolves (at most one request in flight per server); the
//     request resolves when the token arrives or when the channel's
//     relayed occupancy turns false — the relay forwards requests only
//     while its view of the head is "occupied" and drops its pending
//     request the moment that view turns false, and the child's view lags
//     the relay's by exactly one round, so once the child observes
//     "unoccupied" no grant for the old request can exist anywhere,
//   - a relay forwards one pending child request to its head every round
//     until the request resolves: the head grants the hyperedge (the relay
//     routes the token to the pending child and the hyperedge is
//     consumed), or the head's relayed occupancy turns false,
//   - a head holding its token since the previous round grants it to
//     exactly one requesting hyperedge per round,
//   - servers terminate by the Section 4.1 rules lifted to hyperedges
//     (occupied with no live headed channel / unoccupied with no live
//     parent channel); relays terminate when consumed, when their head
//     leaves, or when all their children have left. Terminations say
//     goodbye on live ports, removing the node from the game.

type sAnnounce struct{ Occupied bool }
type sRequest struct{}
type sGrant struct{}
type sLeave struct{}
type cAnnounce struct{ Occupied bool }
type cRequest struct{}
type cGrant struct{}
type cLeave struct{}

type portRole int8

const (
	roleBystander portRole = iota
	roleHead               // server heads this hyperedge
	roleChild              // server is a child (one level below the head)
)

// serverMachine runs on an original game vertex.
type serverMachine struct {
	vertex int
	role   []portRole
	tie    core.TieBreak
	stream uint64 // TieRandom stream

	occupied  bool
	portDead  []bool
	chanOcc   []bool
	requested int // child port with an outstanding request, -1 if none
	active    int
}

// relayMachine runs on a hyperedge node.
type relayMachine struct {
	edgeID   int
	headPort int
	childPts []int
	vertexAt []int // per port: original vertex id

	headOcc  bool
	pending  int // child port of the pending request, -1 if none
	portDead []bool

	moves []Move
}

func (m *serverMachine) Init(info local.NodeInfo) {
	m.portDead = make([]bool, info.Degree)
	m.chanOcc = make([]bool, info.Degree)
	m.requested = -1
	for p, r := range m.role {
		if r == roleBystander {
			m.portDead[p] = true
		}
	}
}

func (m *serverMachine) Step(round int, in []local.Payload, out []local.Payload) bool {
	wasOccupied := m.occupied
	var requests []bool
	for p, raw := range in {
		if raw == nil {
			continue
		}
		switch msg := raw.(type) {
		case cLeave:
			m.portDead[p] = true
			m.chanOcc[p] = false
		case cAnnounce:
			if m.role[p] != roleChild {
				panic(fmt.Sprintf("hypergame: server %d got a child announce on a %d port", m.vertex, m.role[p]))
			}
			m.chanOcc[p] = msg.Occupied
		case cGrant:
			if m.occupied {
				panic(fmt.Sprintf("hypergame: server %d received a second token", m.vertex))
			}
			if p != m.requested {
				panic(fmt.Sprintf("hypergame: server %d granted through a channel it never requested", m.vertex))
			}
			m.occupied = true
			m.portDead[p] = true
			m.chanOcc[p] = false
		case cRequest:
			if m.role[p] != roleHead {
				panic(fmt.Sprintf("hypergame: server %d got a request on a non-head port", m.vertex))
			}
			if requests == nil {
				requests = make([]bool, len(in))
			}
			requests[p] = !m.portDead[p]
		default:
			panic(fmt.Sprintf("hypergame: server %d got unexpected payload %T", m.vertex, raw))
		}
	}

	// Resolve the outstanding request: token arrived, channel died, or the
	// channel's relayed occupancy turned false (after which no grant for
	// it can exist — see the package comment).
	if m.requested >= 0 && (m.occupied || m.portDead[m.requested] || !m.chanOcc[m.requested]) {
		m.requested = -1
	}

	grantPort := -1
	if wasOccupied && requests != nil {
		grantPort = core.PickReceived(requests, m.tie, &m.stream)
	}
	if grantPort >= 0 {
		m.occupied = false
		m.portDead[grantPort] = true
	}

	requestPort := -1
	if !m.occupied && m.requested < 0 {
		eligible := make([]bool, len(in))
		any := false
		for p := range eligible {
			if m.role[p] == roleChild && !m.portDead[p] && m.chanOcc[p] {
				eligible[p] = true
				any = true
			}
		}
		if any {
			requestPort = core.PickPort(eligible, m.tie, &m.stream)
			m.requested = requestPort
			m.active++
		}
	}

	halt := (m.occupied && m.liveByRole(roleHead) == 0) ||
		(!m.occupied && m.liveByRole(roleChild) == 0 && m.requested < 0)

	for p := range out {
		if m.portDead[p] && p != grantPort {
			continue
		}
		switch {
		case p == grantPort:
			out[p] = sGrant{}
		case halt:
			out[p] = sLeave{}
		case p == requestPort:
			out[p] = sRequest{}
		case m.role[p] == roleHead:
			out[p] = sAnnounce{Occupied: m.occupied}
		}
	}
	return halt
}

func (m *serverMachine) liveByRole(role portRole) int {
	n := 0
	for p, dead := range m.portDead {
		if !dead && m.role[p] == role {
			n++
		}
	}
	return n
}

func (m *relayMachine) Init(info local.NodeInfo) {
	m.portDead = make([]bool, info.Degree)
	// Bystander endpoints are not part of the game; their ports are dead
	// from the start.
	alive := make([]bool, info.Degree)
	alive[m.headPort] = true
	for _, p := range m.childPts {
		alive[p] = true
	}
	for p := range m.portDead {
		m.portDead[p] = !alive[p]
	}
	m.pending = -1
}

func (m *relayMachine) Step(round int, in []local.Payload, out []local.Payload) bool {
	granted := false
	for p, raw := range in {
		if raw == nil {
			continue
		}
		switch msg := raw.(type) {
		case sLeave:
			m.portDead[p] = true
		case sAnnounce:
			if p != m.headPort {
				panic(fmt.Sprintf("hypergame: relay %d got an announce from a non-head", m.edgeID))
			}
			m.headOcc = msg.Occupied
		case sRequest:
			if m.portDead[p] {
				continue
			}
			if m.pending < 0 {
				m.pending = p
			}
		case sGrant:
			if p != m.headPort {
				panic(fmt.Sprintf("hypergame: relay %d got a grant from a non-head", m.edgeID))
			}
			if m.pending < 0 || m.portDead[m.pending] {
				panic(fmt.Sprintf("hypergame: relay %d got a grant with no pending child", m.edgeID))
			}
			granted = true
		default:
			panic(fmt.Sprintf("hypergame: relay %d got unexpected payload %T", m.edgeID, raw))
		}
	}

	if granted {
		// Route the token and dissolve: the hyperedge is consumed.
		m.moves = append(m.moves, Move{
			Edge:  m.edgeID,
			From:  m.vertexAt[m.headPort],
			To:    m.vertexAt[m.pending],
			Round: round,
		})
		for p := range out {
			if m.portDead[p] {
				continue
			}
			if p == m.pending {
				out[p] = cGrant{}
			} else {
				out[p] = cLeave{}
			}
		}
		return true
	}

	// Drop a pending request that can no longer be answered: the child
	// left, or the head's latest word is "unoccupied" (any grant for our
	// pending request would have arrived together with or before that
	// announce — see the package comment).
	if m.pending >= 0 && (m.portDead[m.pending] || !m.headOcc) {
		m.pending = -1
	}

	halt := m.portDead[m.headPort] || m.liveChildren() == 0
	for p := range out {
		if m.portDead[p] {
			continue
		}
		switch {
		case halt:
			out[p] = cLeave{}
		case p == m.headPort:
			if m.pending >= 0 {
				out[p] = cRequest{}
			}
		default:
			out[p] = cAnnounce{Occupied: m.headOcc}
		}
	}
	return halt
}

func (m *relayMachine) liveChildren() int {
	n := 0
	for _, p := range m.childPts {
		if !m.portDead[p] {
			n++
		}
	}
	return n
}

var (
	_ local.Machine = (*serverMachine)(nil)
	_ local.Machine = (*relayMachine)(nil)
)

// SolveOptions configure the distributed solver.
type SolveOptions struct {
	Tie       core.TieBreak
	Seed      int64
	MaxRounds int
	Workers   int
	// MeasureBits tracks the largest message size delivered (the CONGEST
	// compatibility check of experiment E21).
	MeasureBits bool
}

// DistStats reports distributed-run measurements.
type DistStats struct {
	Rounds          int
	Messages        int64
	MaxActiveRounds int // max over servers of request attempts (Lemma 4.4 analogue)
	MaxMessageBits  int // largest delivered payload (with MeasureBits)
}

// SolveProposal runs the distributed proposal algorithm for hypergraph
// token dropping and returns the verified-shape solution and statistics.
func SolveProposal(inst *Instance, opt SolveOptions) (*Solution, DistStats, error) {
	return solveObject(inst, opt,
		func(sm *serverMachine) local.Machine { return sm },
		func(rm *relayMachine) local.Machine { return rm })
}

// solveObject runs both object solvers. It builds the incidence network
// of inst and a proposal machine for every server and relay, runs on each
// node the machine that server or relay returns for it (the proposal
// machine itself, or a machine that embeds it), and collects the solution
// from the proposal machines' state.
func solveObject(inst *Instance, opt SolveOptions,
	server func(*serverMachine) local.Machine, relay func(*relayMachine) local.Machine) (*Solution, DistStats, error) {
	if opt.MaxRounds == 0 {
		opt.MaxRounds = 1 << 20
	}
	n, m := inst.N(), inst.M()
	net := graph.New(n + m)
	for id, e := range inst.edges {
		for _, v := range e {
			net.AddEdge(v, n+id)
		}
	}
	// Note: no SortAdjacency — port p of relay id corresponds to
	// inst.edges[id][p], and server ports appear in hyperedge-id order,
	// both of which the machines rely on below.

	servers := make([]*serverMachine, n)
	relays := make([]*relayMachine, m)
	nw := local.NewNetwork(net, func(node int) local.Machine {
		if node < n {
			adj := net.Adj(node)
			sm := &serverMachine{
				vertex:   node,
				role:     make([]portRole, len(adj)),
				occupied: inst.Token(node),
				tie:      opt.Tie,
			}
			if opt.Tie == core.TieRandom {
				sm.stream = core.TieSeed(opt.Seed, node)
			}
			for p, a := range adj {
				edge := a.To - n
				switch {
				case inst.head[edge] == node:
					sm.role[p] = roleHead
				case inst.level[node] == inst.level[inst.head[edge]]-1:
					sm.role[p] = roleChild
				default:
					sm.role[p] = roleBystander
				}
			}
			servers[node] = sm
			return server(sm)
		}
		edge := node - n
		adj := net.Adj(node)
		rm := &relayMachine{edgeID: edge, headPort: -1, vertexAt: make([]int, len(adj))}
		for p, a := range adj {
			rm.vertexAt[p] = a.To
			if a.To == inst.head[edge] {
				rm.headPort = p
			} else if inst.level[a.To] == inst.level[inst.head[edge]]-1 {
				rm.childPts = append(rm.childPts, p)
			}
		}
		if rm.headPort < 0 {
			panic("hypergame: relay lost its head")
		}
		relays[edge] = rm
		return relay(rm)
	})
	stats, err := nw.Run(local.Options{MaxRounds: opt.MaxRounds, Workers: opt.Workers, MeasureBits: opt.MeasureBits})
	if err != nil {
		return nil, DistStats{}, err
	}

	var all []Move
	consumed := make([]bool, m)
	for _, rm := range relays {
		for _, mv := range rm.moves {
			all = append(all, mv)
			consumed[mv.Edge] = true
		}
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].Round < all[j].Round })
	final := make([]bool, n)
	maxActive := 0
	for v, sm := range servers {
		final[v] = sm.occupied
		if sm.active > maxActive {
			maxActive = sm.active
		}
	}
	sol := &Solution{Inst: inst, Moves: all, Final: final, Consumed: consumed, Rounds: stats.Rounds}
	ds := DistStats{Rounds: stats.Rounds, Messages: stats.Messages, MaxActiveRounds: maxActive, MaxMessageBits: stats.MaxMessageBits}
	return sol, ds, nil
}
