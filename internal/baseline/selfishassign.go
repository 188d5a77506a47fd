package baseline

import (
	"fmt"
	"math/rand"

	"tokendrop/internal/graph"
	"tokendrop/internal/local"
)

// This file generalizes the selfish-flip comparator from orientations to
// bipartite customer/server assignment, so the same CHSW12-class design
// decision — start from an arbitrary complete assignment, shed the
// resulting unhappiness by local best responses — can race the paper's
// assignment layer inside internal/arena. The dynamic runs on the
// customer/server incidence network in 6-round cycles:
//
//	phase 0: every server applies the departures confirmed last cycle
//	         and broadcasts its load to its incident customers;
//	phase 1: every customer with badness ≥ 2 (its server's load exceeds
//	         its least-loaded alternative's by at least two) asks its
//	         current server for permission to leave;
//	phase 2: every server tosses a fair coin to be a PROPOSER or an
//	         ACCEPTOR this cycle; a proposer grants exactly one leave
//	         request (uniformly at random), an acceptor grants none;
//	phase 3: a granted customer sends a join request to a least-loaded
//	         adjacent server (uniform among minima);
//	phase 4: an acceptor server admits at most one join request
//	         (uniformly at random) and acknowledges it; proposers admit
//	         none, so an unlucky customer simply stays put;
//	phase 5: an admitted customer switches servers and sends its old
//	         server the departure notice phase 0 consumes.
//
// Moves executed in one cycle leave distinct proposer servers (each
// grants one departure and admits nothing) and enter distinct acceptor
// servers (each admits one arrival and releases nothing), and every
// load a decision reads is exact at the moment the move applies, so a
// move from load L to load T needs T ≤ L − 2 and decreases Σ load² by
// at least 2: the dynamic converges with probability 1. As with the
// other best-response comparators, nodes cannot detect global
// stability, so the simulator's termination oracle (local.Options.Stop)
// ends the run once every customer has badness at most 1 — exactly the
// stable-assignment predicate of Section 7. Messages are those of the
// unit-transfer dynamic (transfer.go).

// selfishCustomer is the per-customer machine of the dynamic.
type selfishCustomer struct {
	vertex  int
	rng     *rand.Rand
	cur     int // port of the current server
	nbrLoad []int
	target  int // port of the outstanding join request, -1 if none
	moves   int
}

func (m *selfishCustomer) Init(info local.NodeInfo) {
	m.nbrLoad = make([]int, info.Degree)
	for i := range m.nbrLoad {
		m.nbrLoad[i] = -1
	}
	m.target = -1
}

func (m *selfishCustomer) Step(round int, in []local.Payload, out []local.Payload) bool {
	switch (round - 1) % 6 {
	case 1: // read loads; unhappy customers ask to leave
		for p, raw := range in {
			if raw == nil {
				continue
			}
			msg, ok := raw.(loadMsg)
			if !ok {
				panic(fmt.Sprintf("baseline: customer %d expected loads, got %T", m.vertex, raw))
			}
			m.nbrLoad[p] = msg.load
		}
		min := m.nbrLoad[m.cur]
		for _, l := range m.nbrLoad {
			if l >= 0 && l < min {
				min = l
			}
		}
		if m.nbrLoad[m.cur] >= min+2 {
			out[m.cur] = offerMsg{}
		}
	case 3: // a granted customer targets a least-loaded alternative
		if in[m.cur] == nil {
			return false
		}
		if _, ok := in[m.cur].(ackMsg); !ok {
			panic(fmt.Sprintf("baseline: customer %d expected a leave grant, got %T", m.vertex, in[m.cur]))
		}
		min := -1
		for p, l := range m.nbrLoad {
			if p == m.cur || l < 0 {
				continue
			}
			if min < 0 || l < min {
				min = l
			}
		}
		if min > m.nbrLoad[m.cur]-2 {
			panic(fmt.Sprintf("baseline: customer %d granted a leave without a 2-cheaper alternative", m.vertex))
		}
		count := 0
		for p, l := range m.nbrLoad {
			if p == m.cur || l != min {
				continue
			}
			count++
			if m.rng.Intn(count) == 0 {
				m.target = p
			}
		}
		out[m.target] = offerMsg{}
	case 5: // an admitted customer switches and notifies its old server
		if m.target < 0 {
			return false
		}
		p := m.target
		m.target = -1
		if in[p] == nil {
			return false // rejected: the target was a proposer or admitted another
		}
		if _, ok := in[p].(ackMsg); !ok {
			panic(fmt.Sprintf("baseline: customer %d expected a join ack, got %T", m.vertex, in[p]))
		}
		old := m.cur
		m.cur = p
		m.moves++
		out[old] = ackMsg{}
	}
	return false
}

var _ local.Machine = (*selfishCustomer)(nil)

// selfishServer is the per-server machine of the dynamic.
type selfishServer struct {
	vertex   int
	rng      *rand.Rand
	load     int
	proposer bool // role this cycle, drawn at phase 2
}

func (m *selfishServer) Init(info local.NodeInfo) {}

func (m *selfishServer) Step(round int, in []local.Payload, out []local.Payload) bool {
	switch (round - 1) % 6 {
	case 0: // apply confirmed departures, broadcast load
		for _, raw := range in {
			if raw == nil {
				continue
			}
			if _, ok := raw.(ackMsg); !ok {
				panic(fmt.Sprintf("baseline: server %d expected departure notices, got %T", m.vertex, raw))
			}
			m.load--
		}
		for p := range out {
			out[p] = loadMsg{load: m.load}
		}
	case 2: // proposers grant exactly one leave request
		m.proposer = m.rng.Intn(2) == 1
		if !m.proposer {
			return false // acceptor this cycle: phase 4 may admit a join
		}
		pick, count := -1, 0
		for p, raw := range in {
			if raw == nil {
				continue
			}
			if _, ok := raw.(offerMsg); !ok {
				panic(fmt.Sprintf("baseline: server %d expected leave requests, got %T", m.vertex, raw))
			}
			count++
			if m.rng.Intn(count) == 0 {
				pick = p
			}
		}
		if pick >= 0 {
			out[pick] = ackMsg{}
		}
	case 4: // acceptors admit at most one join request
		if m.proposer {
			return false // granted a departure at phase 2; implicit reject
		}
		pick, count := -1, 0
		for p, raw := range in {
			if raw == nil {
				continue
			}
			if _, ok := raw.(offerMsg); !ok {
				panic(fmt.Sprintf("baseline: server %d expected join requests, got %T", m.vertex, raw))
			}
			count++
			if m.rng.Intn(count) == 0 {
				pick = p
			}
		}
		if pick >= 0 {
			m.load++
			out[pick] = ackMsg{}
		}
	}
	return false
}

var _ local.Machine = (*selfishServer)(nil)

// SelfishAssignResult reports a selfish-reassignment run.
type SelfishAssignResult struct {
	// ServerOf holds the final server index (in [0, NumServers)) of every
	// customer.
	ServerOf []int32
	// Load holds the final per-server-index load.
	Load []int32
	// Rounds is the communication rounds until global stability.
	Rounds int
	// Moves counts executed reassignments.
	Moves int
	// Messages counts delivered messages.
	Messages int64
}

// SelfishAssign runs the distributed selfish-reassignment dynamic on b
// until every customer has badness at most 1 (the Section 7 stability
// predicate), or maxRounds passes without convergence, which returns an
// error. initial, when non-nil, is the arbitrary starting assignment as
// a server index per customer (it must be adjacent); nil starts every
// customer on its first port — the canonical arbitrary choice. Every
// customer must have at least one adjacent server.
func SelfishAssign(b *graph.Bipartite, initial []int32, seed int64, maxRounds, workers int) (*SelfishAssignResult, error) {
	g := b.G
	nl := b.NumLeft
	if maxRounds == 0 {
		maxRounds = 1 << 20
	}
	if initial != nil && len(initial) != nl {
		return nil, fmt.Errorf("baseline: initial assignment has %d entries for %d customers", len(initial), nl)
	}
	customers := make([]*selfishCustomer, nl)
	servers := make([]*selfishServer, b.NumServers())
	nw := local.NewNetwork(g, func(v int) local.Machine {
		if v < nl {
			if g.Degree(v) == 0 {
				panic(fmt.Sprintf("baseline: customer %d has no adjacent server", v))
			}
			cur := 0
			if initial != nil {
				cur = -1
				for p, a := range g.Adj(v) {
					if a.To == nl+int(initial[v]) {
						cur = p
						break
					}
				}
				if cur < 0 {
					panic(fmt.Sprintf("baseline: initial assigns customer %d to non-adjacent server %d", v, initial[v]))
				}
			}
			customers[v] = &selfishCustomer{
				vertex: v,
				rng:    rand.New(rand.NewSource(seed ^ int64(v)*0x5bd1e995)),
				cur:    cur,
			}
			return customers[v]
		}
		servers[v-nl] = &selfishServer{
			vertex: v,
			rng:    rand.New(rand.NewSource(seed ^ int64(v)*0x632be5ab)),
		}
		return servers[v-nl]
	})
	// Seed the server loads from the initial assignment (the customers
	// know their ports; the servers must start with consistent counts).
	for c, m := range customers {
		servers[g.Adj(c)[m.cur].To-nl].load++
	}
	// Termination oracle: at the barrier after every phase-5 step the
	// customers' placements are final for the cycle (departure notices in
	// flight only affect server-side counters), so recount loads from the
	// customer mirrors and test the stability predicate directly.
	load := make([]int32, b.NumServers())
	stable := func(round int) bool {
		if (round-1)%6 != 5 {
			return false
		}
		for i := range load {
			load[i] = 0
		}
		for c, m := range customers {
			load[g.Adj(c)[m.cur].To-nl]++
		}
		for c, m := range customers {
			cur := load[g.Adj(c)[m.cur].To-nl]
			for _, a := range g.Adj(c) {
				if cur >= load[a.To-nl]+2 {
					return false
				}
			}
		}
		return true
	}
	stats, err := nw.Run(local.Options{MaxRounds: maxRounds, Workers: workers, Stop: stable})
	if err != nil {
		return nil, fmt.Errorf("baseline: selfish reassignment did not converge: %w", err)
	}
	res := &SelfishAssignResult{
		ServerOf: make([]int32, nl),
		Load:     make([]int32, b.NumServers()),
		Rounds:   stats.Rounds,
		Messages: stats.Messages,
	}
	for c, m := range customers {
		s := g.Adj(c)[m.cur].To - nl
		res.ServerOf[c] = int32(s)
		res.Load[s]++
		res.Moves += m.moves
	}
	return res, nil
}
