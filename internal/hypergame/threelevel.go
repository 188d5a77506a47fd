package hypergame

import (
	"fmt"

	"tokendrop/internal/core"
	"tokendrop/internal/local"
)

// Specialized solver for hypergraph games on levels {0, 1, 2} — the
// algorithm behind Theorem 7.5 (O(C·S²) for the 2-bounded stable
// assignment problem), which lifts the flat Theorem 4.7 algorithm to
// hyperedges: the middle layer drives all movement, pulling tokens down
// from level 2 through request/grant handshakes and pushing tokens to
// level 0 through offer/accept handshakes. Every resolved handshake
// removes a neighbor or a hyperedge from the game, which is what yields
// the O(Δ) = O(max(C,S)) round count per game.
//
// Pull channels (head on level 2) run the proposal protocol of
// distributed.go: level-2 servers are plain serverMachines (with no child
// channel, a proposal server only announces, grants and leaves) and the
// relays of hyperedges headed on level 2 are plain relayMachines. Level-0
// and level-1 servers (server3Machine) and the relays of hyperedges
// headed on level 1 (relay3Machine) embed those machines for their port
// state and run their own steps; a level-1 server's pull half requests
// from its level-2 channels exactly as a proposal server does. Push
// channels (head on level 1) work in the opposite direction: the occupied
// head offers its token to the relay, the relay walks its live children
// until one accepts (live level-0 nodes are always unoccupied and accept
// immediately), and the acceptance consumes the hyperedge.

type sOffer struct{}
type sAccept struct{}
type cOffer struct{}
type cAccepted struct{}
type cNoChildren struct{}

// ThreeLevelMaxLevel is the maximum height accepted by SolveThreeLevel.
const ThreeLevelMaxLevel = 2

// server3Machine is a level-0 or level-1 server of the specialized solver;
// level-2 servers run the proposal serverMachine unchanged.
type server3Machine struct {
	*serverMachine
	level   int
	offered int // outstanding push offer port (level 1)
}

func (m *server3Machine) Init(info local.NodeInfo) {
	m.serverMachine.Init(info)
	m.offered = -1
}

func (m *server3Machine) Step(round int, in []local.Payload, out []local.Payload) bool {
	if m.level == 0 {
		return m.stepBottom(in, out)
	}
	return m.stepMiddle(in, out)
}

// stepBottom: level-0 servers accept one relayed offer and leave.
func (m *server3Machine) stepBottom(in []local.Payload, out []local.Payload) bool {
	var offers []bool
	for p, raw := range in {
		if raw == nil {
			continue
		}
		switch raw.(type) {
		case cLeave:
			m.portDead[p] = true
		case cOffer:
			if offers == nil {
				offers = make([]bool, len(in))
			}
			offers[p] = !m.portDead[p]
		default:
			panic(fmt.Sprintf("hypergame: level-0 server %d got %T", m.vertex, raw))
		}
	}
	acceptPort := -1
	if !m.occupied && offers != nil {
		acceptPort = core.PickReceived(offers, m.tie, &m.stream)
	}
	if acceptPort >= 0 {
		m.occupied = true
		m.portDead[acceptPort] = true
	}
	halt := m.occupied || m.liveByRole(roleChild) == 0
	for p := range out {
		if m.portDead[p] && p != acceptPort {
			continue
		}
		switch {
		case p == acceptPort:
			out[p] = sAccept{}
		case halt:
			out[p] = sLeave{}
		}
	}
	return halt
}

// stepMiddle: level-1 servers pull from above while unoccupied and push
// below while occupied.
func (m *server3Machine) stepMiddle(in []local.Payload, out []local.Payload) bool {
	for p, raw := range in {
		if raw == nil {
			continue
		}
		switch msg := raw.(type) {
		case cLeave:
			m.portDead[p] = true
			m.chanOcc[p] = false
		case cNoChildren:
			// Our offered hyperedge ran out of children; it is dead.
			m.portDead[p] = true
		case cAnnounce:
			if m.role[p] != roleChild {
				panic(fmt.Sprintf("hypergame: level-1 server %d got announce on non-child port", m.vertex))
			}
			m.chanOcc[p] = msg.Occupied
		case cGrant:
			if m.occupied {
				panic(fmt.Sprintf("hypergame: level-1 server %d received a second token", m.vertex))
			}
			if p != m.requested {
				panic(fmt.Sprintf("hypergame: level-1 server %d granted through unrequested channel", m.vertex))
			}
			m.occupied = true
			m.portDead[p] = true
			m.chanOcc[p] = false
		case cAccepted:
			if p != m.offered {
				panic(fmt.Sprintf("hypergame: level-1 server %d accepted on unoffered channel", m.vertex))
			}
			m.occupied = false
			m.portDead[p] = true
			m.offered = -1
		default:
			panic(fmt.Sprintf("hypergame: level-1 server %d got %T", m.vertex, raw))
		}
	}
	if m.requested >= 0 && (m.occupied || m.portDead[m.requested] || !m.chanOcc[m.requested]) {
		m.requested = -1
	}
	if m.offered >= 0 && m.portDead[m.offered] {
		m.offered = -1
	}

	requestPort, offerPort := -1, -1
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
	if m.occupied && m.offered < 0 {
		eligible := make([]bool, len(in))
		any := false
		for p := range eligible {
			if m.role[p] == roleHead && !m.portDead[p] {
				eligible[p] = true
				any = true
			}
		}
		if any {
			offerPort = core.PickPort(eligible, m.tie, &m.stream)
			m.offered = offerPort
		}
	}

	halt := (m.occupied && m.liveByRole(roleHead) == 0) ||
		(!m.occupied && m.liveByRole(roleChild) == 0 && m.requested < 0)
	for p := range out {
		if m.portDead[p] {
			continue
		}
		switch {
		case halt:
			out[p] = sLeave{}
		case p == requestPort:
			out[p] = sRequest{}
		case p == offerPort && m.offered == p:
			out[p] = sOffer{}
		}
	}
	return halt
}

// relay3Machine relays for a hyperedge headed on level 1 (push mode): the
// head's offer walks the live children until one accepts. Hyperedges
// headed on level 2 run the proposal relayMachine unchanged.
type relay3Machine struct {
	*relayMachine
	offerChild int // child the current offer was forwarded to
	offering   bool
}

func (m *relay3Machine) Init(info local.NodeInfo) {
	m.relayMachine.Init(info)
	m.offerChild = -1
}

func (m *relay3Machine) nextLiveChild() int {
	for _, p := range m.childPts {
		if !m.portDead[p] {
			return p
		}
	}
	return -1
}

func (m *relay3Machine) Step(round int, in []local.Payload, out []local.Payload) bool {
	accepted := false
	for p, raw := range in {
		if raw == nil {
			continue
		}
		switch raw.(type) {
		case sLeave:
			m.portDead[p] = true
		case sOffer:
			if p != m.headPort {
				panic(fmt.Sprintf("hypergame: relay %d got an offer from a non-head", m.edgeID))
			}
			m.offering = true
		case sAccept:
			if p != m.offerChild {
				panic(fmt.Sprintf("hypergame: relay %d got an accept from an unoffered child", m.edgeID))
			}
			accepted = true
		default:
			panic(fmt.Sprintf("hypergame: relay %d got %T", m.edgeID, raw))
		}
	}

	if accepted {
		m.moves = append(m.moves, Move{
			Edge: m.edgeID, From: m.vertexAt[m.headPort], To: m.vertexAt[m.offerChild], Round: round,
		})
		for p := range out {
			if m.portDead[p] {
				continue
			}
			if p == m.headPort {
				out[p] = cAccepted{}
			} else {
				out[p] = cLeave{}
			}
		}
		return true
	}

	// Walk the offer to the next live child when the previous target died
	// without accepting.
	if m.offering && (m.offerChild < 0 || m.portDead[m.offerChild]) {
		m.offerChild = m.nextLiveChild()
	}

	halt := m.portDead[m.headPort] || m.liveChildren() == 0
	for p := range out {
		if m.portDead[p] {
			continue
		}
		switch {
		case halt && m.offering && p == m.headPort:
			out[p] = cNoChildren{}
		case halt:
			out[p] = cLeave{}
		case m.offering && p == m.offerChild:
			out[p] = cOffer{}
		}
	}
	return halt
}

var (
	_ local.Machine = (*server3Machine)(nil)
	_ local.Machine = (*relay3Machine)(nil)
)

// SolveThreeLevel runs the specialized solver on a game of height at most
// ThreeLevelMaxLevel. It returns an error on taller games.
func SolveThreeLevel(inst *Instance, opt SolveOptions) (*Solution, DistStats, error) {
	if h := inst.Height(); h > ThreeLevelMaxLevel {
		return nil, DistStats{}, fmt.Errorf("hypergame: 3-level solver got height %d > %d", h, ThreeLevelMaxLevel)
	}
	return solveObject(inst, opt,
		func(sm *serverMachine) local.Machine {
			if l := inst.level[sm.vertex]; l < ThreeLevelMaxLevel {
				return &server3Machine{serverMachine: sm, level: l}
			}
			return sm
		},
		func(rm *relayMachine) local.Machine {
			if inst.level[inst.head[rm.edgeID]] == 1 {
				return &relay3Machine{relayMachine: rm}
			}
			return rm
		})
}
