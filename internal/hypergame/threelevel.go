package hypergame

import (
	"fmt"
	"sort"

	"tokendrop/internal/core"
	"tokendrop/internal/graph"
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
// Pull channels (head on level 2) reuse the generic relay discipline of
// distributed.go; push channels (head on level 1) work in the opposite
// direction: the occupied head offers its token to the relay, the relay
// walks its live children until one accepts (live level-0 nodes are
// always unoccupied and accept immediately), and the acceptance consumes
// the hyperedge.

type sOffer struct{}
type sAccept struct{}
type cOffer struct{}
type cAccepted struct{}
type cNoChildren struct{}

// ThreeLevelMaxLevel is the maximum height accepted by SolveThreeLevel.
const ThreeLevelMaxLevel = 2

// server3Machine is the per-server machine of the specialized solver.
type server3Machine struct {
	vertex int
	level  int
	role   []portRole
	tie    core.TieBreak
	stream uint64 // TieRandom stream

	occupied  bool
	portDead  []bool
	chanOcc   []bool
	requested int // outstanding pull request port (level 1)
	offered   int // outstanding push offer port (level 1)
	active    int
}

func (m *server3Machine) Init(info local.NodeInfo) {
	m.portDead = make([]bool, info.Degree)
	m.chanOcc = make([]bool, info.Degree)
	m.requested = -1
	m.offered = -1
	for p, r := range m.role {
		if r == roleBystander {
			m.portDead[p] = true
		}
	}
}

func (m *server3Machine) liveByRole(role portRole) int {
	n := 0
	for p, dead := range m.portDead {
		if !dead && m.role[p] == role {
			n++
		}
	}
	return n
}

func (m *server3Machine) Step(round int, in []local.Payload, out []local.Payload) bool {
	switch m.level {
	case 0:
		return m.stepBottom(in, out)
	case 1:
		return m.stepMiddle(in, out)
	case 2:
		return m.stepTop(in, out)
	}
	panic(fmt.Sprintf("hypergame: 3-level server on level %d", m.level))
}

// stepTop: level-2 servers only head hyperedges; they announce, grant one
// relayed request, and leave as soon as they are unoccupied or isolated.
func (m *server3Machine) stepTop(in []local.Payload, out []local.Payload) bool {
	var requests []bool
	for p, raw := range in {
		if raw == nil {
			continue
		}
		switch raw.(type) {
		case cLeave:
			m.portDead[p] = true
		case cRequest:
			if requests == nil {
				requests = make([]bool, len(in))
			}
			requests[p] = !m.portDead[p]
		default:
			panic(fmt.Sprintf("hypergame: level-2 server %d got %T", m.vertex, raw))
		}
	}
	grantPort := -1
	if m.occupied && requests != nil {
		grantPort = core.PickReceived(requests, m.tie, &m.stream)
	}
	if grantPort >= 0 {
		m.occupied = false
		m.portDead[grantPort] = true
	}
	halt := !m.occupied || m.liveByRole(roleHead) == 0
	for p := range out {
		if m.portDead[p] && p != grantPort {
			continue
		}
		switch {
		case p == grantPort:
			out[p] = sGrant{}
		case halt:
			out[p] = sLeave{}
		case m.role[p] == roleHead:
			out[p] = sAnnounce{Occupied: m.occupied}
		}
	}
	return halt
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

// relay3Machine relays for one hyperedge: pull mode when its head is on
// level 2 (request/grant, as in distributed.go) and push mode when its
// head is on level 1 (offer walks the children until one accepts).
type relay3Machine struct {
	edgeID   int
	pushMode bool
	headPort int
	childPts []int
	vertexAt []int

	headOcc    bool
	pending    int // pull mode: pending child request port
	offerChild int // push mode: child the current offer was forwarded to
	offering   bool
	portDead   []bool

	moves []Move
}

func (m *relay3Machine) Init(info local.NodeInfo) {
	m.portDead = make([]bool, info.Degree)
	alive := make([]bool, info.Degree)
	alive[m.headPort] = true
	for _, p := range m.childPts {
		alive[p] = true
	}
	for p := range m.portDead {
		m.portDead[p] = !alive[p]
	}
	m.pending = -1
	m.offerChild = -1
}

func (m *relay3Machine) liveChildren() int {
	n := 0
	for _, p := range m.childPts {
		if !m.portDead[p] {
			n++
		}
	}
	return n
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
	granted, accepted := false, false
	for p, raw := range in {
		if raw == nil {
			continue
		}
		switch msg := raw.(type) {
		case sLeave:
			m.portDead[p] = true
		case sAnnounce:
			m.headOcc = msg.Occupied
		case sRequest:
			if m.pending < 0 && !m.portDead[p] {
				m.pending = p
			}
		case sGrant:
			if m.pending < 0 || m.portDead[m.pending] {
				panic(fmt.Sprintf("hypergame: relay %d granted with no pending child", m.edgeID))
			}
			granted = true
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

	if granted {
		m.moves = append(m.moves, Move{
			Edge: m.edgeID, From: m.vertexAt[m.headPort], To: m.vertexAt[m.pending], Round: round,
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

	if m.pending >= 0 && (m.portDead[m.pending] || !m.headOcc) {
		m.pending = -1
	}
	// Push mode: walk the offer to the next live child when the previous
	// target died without accepting.
	if m.offering && (m.offerChild < 0 || m.portDead[m.offerChild]) {
		m.offerChild = m.nextLiveChild()
	}

	if m.portDead[m.headPort] || m.liveChildren() == 0 {
		for p := range out {
			if m.portDead[p] {
				continue
			}
			if m.offering && p == m.headPort {
				out[p] = cNoChildren{}
			} else {
				out[p] = cLeave{}
			}
		}
		return true
	}

	for p := range out {
		if m.portDead[p] {
			continue
		}
		switch {
		case m.pushMode && m.offering && p == m.offerChild:
			out[p] = cOffer{}
		case !m.pushMode && p == m.headPort && m.pending >= 0:
			out[p] = cRequest{}
		case !m.pushMode && p != m.headPort:
			out[p] = cAnnounce{Occupied: m.headOcc}
		}
	}
	return false
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
	if opt.MaxRounds == 0 {
		opt.MaxRounds = 1 << 20
	}
	n, mm := inst.N(), inst.M()
	net := graph.New(n + mm)
	for id, e := range inst.edges {
		for _, v := range e {
			net.AddEdge(v, n+id)
		}
	}

	servers := make([]*server3Machine, n)
	relays := make([]*relay3Machine, mm)
	nw := local.NewNetwork(net, func(node int) local.Machine {
		if node < n {
			adj := net.Adj(node)
			sm := &server3Machine{
				vertex:   node,
				level:    inst.level[node],
				role:     make([]portRole, len(adj)),
				occupied: inst.Token(node),
			}
			if opt.RandomTies {
				sm.tie = core.TieRandom
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
			return sm
		}
		edge := node - n
		adj := net.Adj(node)
		rm := &relay3Machine{
			edgeID:   edge,
			pushMode: inst.level[inst.head[edge]] == 1,
			headPort: -1,
			vertexAt: make([]int, len(adj)),
		}
		for p, a := range adj {
			rm.vertexAt[p] = a.To
			if a.To == inst.head[edge] {
				rm.headPort = p
			} else if inst.level[a.To] == inst.level[inst.head[edge]]-1 {
				rm.childPts = append(rm.childPts, p)
			}
		}
		relays[edge] = rm
		return rm
	})
	stats, err := nw.Run(local.Options{MaxRounds: opt.MaxRounds, Workers: opt.Workers, MeasureBits: opt.MeasureBits})
	if err != nil {
		return nil, DistStats{}, err
	}

	var all []Move
	consumed := make([]bool, mm)
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
