package orient

import (
	"fmt"

	"tokendrop/internal/core"
	"tokendrop/internal/graph"
	"tokendrop/internal/local"
)

// This file implements the Theorem 5.1 algorithm as a genuine LOCAL-model
// protocol: one state machine per node, no simulator-side phase barriers.
// Nodes know Δ (the standard assumption the paper's fixed phase schedule
// rests on) and agree on the schedule up front:
//
//	2Δ phases × (2 + budget(Δ)) rounds,
//	budget(Δ) = 8·(Δ+1)·Δ² + 40   (the proposal-algorithm budget for a
//	                               game of height ≤ Δ on degree ≤ Δ),
//
// which multiplies out to WorstCaseBound(Δ) = Θ(Δ⁴) rounds — the
// theorem's complexity, spent unconditionally. Within each phase:
//
//	offset 1:     broadcast the current load,
//	offset 2:     each unoriented edge implicitly proposes to its
//	              lower-load endpoint (ties to the smaller identifier —
//	              both endpoints compute the same target from the same
//	              broadcast); the target accepts one proposing edge and
//	              answers on that port,
//	offset 3..:   an embedded token dropping machine plays the game on
//	              the badness-1 edges with tokens at acceptors; grants
//	              observed on a port flip that edge,
//	phase end:    accepted edges are oriented toward their acceptors and
//	              the load is recounted.
//
// Solve (the adaptive-schedule driver in orient.go) runs the same
// computation with simulator barriers and therefore measures the rounds
// actually needed; SolveFixed is the existence proof that the algorithm
// truly runs in the LOCAL model with the advertised worst-case schedule.

type msgLoad struct{ Load int }
type msgAcceptEdge struct{}

// FixedOptions configure SolveFixed.
type FixedOptions struct {
	// Tie and Seed control tie-breaking, as in Options.
	Tie  core.TieBreak
	Seed int64
	// Workers for the LOCAL runtime.
	Workers int
	// PhaseBudget overrides the per-phase game budget (0 = budget(Δ)).
	// Tests shrink it to exercise the budget-overflow detection.
	PhaseBudget int
	// Phases overrides the phase count (0 = 2Δ).
	Phases int
}

// FixedResult is the outcome of SolveFixed.
type FixedResult struct {
	Orientation *graph.Orientation
	// Rounds is the full fixed schedule: every node runs it to the end.
	Rounds int
	// LastActiveRound is the last round in which any message was
	// delivered — the "actual work" hidden inside the fixed schedule.
	LastActiveRound int
	Phases          int
	PhaseLen        int
}

// fixedMachine is the per-node protocol.
type fixedMachine struct {
	vertex   int
	delta    int
	phases   int
	phaseLen int
	tie      core.TieBreak
	stream   uint64 // TieRandom stream, shared with the embedded games

	id       int
	nbrID    []int
	edgeID   []int
	oriented []bool
	headSelf []bool
	nbrLoad  []int
	load     int

	inner        *core.ProposalMachine
	innerHalted  bool
	acceptedPort int    // edge I accepted this phase (head = me), -1
	tailAccepts  []bool // ports whose neighbor accepted this phase (head = neighbor)
}

func (m *fixedMachine) Init(info local.NodeInfo) {
	m.id = info.ID
	m.nbrID = append([]int(nil), info.Neighbor...)
	m.oriented = make([]bool, info.Degree)
	m.headSelf = make([]bool, info.Degree)
	m.nbrLoad = make([]int, info.Degree)
	m.tailAccepts = make([]bool, info.Degree)
	m.acceptedPort = -1
}

// proposalTarget reports whether the unoriented edge on port p proposes to
// this node: the edge prefers the endpoint with the smaller load, ties to
// the smaller identifier. Both endpoints evaluate the same rule on the
// same broadcast loads, so they agree.
func (m *fixedMachine) proposalTarget(p int) bool {
	if m.load != m.nbrLoad[p] {
		return m.load < m.nbrLoad[p]
	}
	return m.id < m.nbrID[p]
}

func (m *fixedMachine) Step(round int, in []local.Payload, out []local.Payload) bool {
	phase := (round - 1) / m.phaseLen // 0-based
	offset := (round-1)%m.phaseLen + 1

	switch offset {
	case 1:
		m.guardStray(in, round)
		for p := range out {
			out[p] = msgLoad{Load: m.load}
		}
	case 2:
		m.guardStray(in, round)
		for p, raw := range in {
			if msg, ok := raw.(msgLoad); ok {
				m.nbrLoad[p] = msg.Load
			}
		}
		// Accept one of the edges proposing to me, if any.
		eligible := make([]bool, len(in))
		any := false
		for p := range eligible {
			if !m.oriented[p] && m.proposalTarget(p) {
				eligible[p] = true
				any = true
			}
		}
		if any {
			m.acceptedPort = core.PickPort(eligible, m.tie, &m.stream)
			out[m.acceptedPort] = msgAcceptEdge{}
		}
	case 3:
		for p, raw := range in {
			if _, ok := raw.(msgAcceptEdge); ok {
				m.tailAccepts[p] = true
			}
		}
		m.buildInner()
		m.stepInner(round, nil, out)
	default:
		gameIn := make([]local.Payload, len(in))
		for p, raw := range in {
			if raw != nil && core.IsGamePayload(raw) {
				gameIn[p] = raw
				if core.IsGameGrant(raw) {
					// A token arrived over port p: the edge flips toward
					// me (Section 5: flip every traversed edge).
					m.headSelf[p] = true
				}
			}
		}
		m.stepInner(round, gameIn, out)
	}

	if offset == m.phaseLen {
		m.endPhase()
		if phase == m.phases-1 {
			return true
		}
	}
	return false
}

// guardStray panics if game traffic leaks into the phase-bookkeeping
// rounds — that can only happen when a game overruns its budget, which
// voids the Lemma 5.4 invariant and must fail loudly.
func (m *fixedMachine) guardStray(in []local.Payload, round int) {
	for _, raw := range in {
		if raw != nil && core.IsGameGrant(raw) {
			panic(fmt.Sprintf("orient: vertex %d saw a grant in round %d outside the game window (phase budget too small)",
				m.vertex, round))
		}
	}
}

// buildInner assembles this phase's embedded game machine: alive ports are
// the oriented badness-1 edges, parents sit one load-level above, and the
// token marks an accepted proposal.
func (m *fixedMachine) buildInner() {
	n := len(m.oriented)
	isParent := make([]bool, n)
	alive := make([]bool, n)
	for p := 0; p < n; p++ {
		if !m.oriented[p] {
			continue
		}
		var badness int
		if m.headSelf[p] {
			badness = m.load - m.nbrLoad[p]
		} else {
			badness = m.nbrLoad[p] - m.load
		}
		if badness == 1 {
			alive[p] = true
			isParent[p] = !m.headSelf[p] // the head (higher load) is the parent
		}
	}
	m.inner = core.NewEmbeddedProposalMachine(m.vertex, isParent, alive, m.edgeID,
		m.acceptedPort >= 0, m.tie, &m.stream)
	m.innerHalted = false
}

func (m *fixedMachine) stepInner(round int, gameIn []local.Payload, out []local.Payload) {
	if m.innerHalted {
		return
	}
	if gameIn == nil {
		gameIn = make([]local.Payload, len(out))
	}
	m.innerHalted = m.inner.Step(round, gameIn, out)
	for p, raw := range out {
		if raw != nil && core.IsGameGrant(raw) {
			// I passed my token down over port p: the edge flips away.
			m.headSelf[p] = false
		}
	}
}

// endPhase orients the edges accepted this phase and recounts the load.
func (m *fixedMachine) endPhase() {
	if m.acceptedPort >= 0 {
		m.oriented[m.acceptedPort] = true
		m.headSelf[m.acceptedPort] = true
		m.acceptedPort = -1
	}
	for p, acc := range m.tailAccepts {
		if acc {
			m.oriented[p] = true
			m.headSelf[p] = false
			m.tailAccepts[p] = false
		}
	}
	load := 0
	for p, o := range m.oriented {
		if o && m.headSelf[p] {
			load++
		}
	}
	m.load = load
	m.inner = nil
	m.innerHalted = true
}

var _ local.Machine = (*fixedMachine)(nil)

// PhaseBudget returns the default per-phase game budget for maximum
// degree delta.
func PhaseBudget(delta int) int { return 8*(delta+1)*delta*delta + 40 }

// SolveFixed runs the fixed-schedule LOCAL protocol on g and extracts the
// stable orientation from the nodes' final states. It returns an error if
// the endpoints disagree, the orientation is incomplete, or it is not
// stable — all of which indicate a bug or an undersized budget, never an
// input property.
func SolveFixed(g *graph.Graph, opt FixedOptions) (*FixedResult, error) {
	delta := g.MaxDegree()
	if delta == 0 {
		return &FixedResult{Orientation: graph.NewOrientation(g)}, nil
	}
	budget := opt.PhaseBudget
	if budget == 0 {
		budget = PhaseBudget(delta)
	}
	phases := opt.Phases
	if phases == 0 {
		phases = 2 * delta
	}
	phaseLen := budget + 2

	machines := make([]*fixedMachine, g.N())
	nw := local.NewNetwork(g, func(v int) local.Machine {
		fm := &fixedMachine{
			vertex:   v,
			delta:    delta,
			phases:   phases,
			phaseLen: phaseLen,
			tie:      opt.Tie,
			edgeID:   make([]int, g.Degree(v)),
		}
		for p, a := range g.Adj(v) {
			fm.edgeID[p] = a.Edge
		}
		if opt.Tie == core.TieRandom {
			fm.stream = core.TieSeed(opt.Seed, v)
		}
		machines[v] = fm
		return fm
	})
	lastActive := 0
	stats, err := nw.Run(local.Options{
		MaxRounds: phases*phaseLen + 2,
		Workers:   opt.Workers,
		OnRound: func(round, delivered int) {
			if delivered > 0 {
				lastActive = round
			}
		},
	})
	if err != nil {
		return nil, err
	}

	// Extract and cross-check the orientation.
	o := graph.NewOrientation(g)
	for v, fm := range machines {
		for p, a := range g.Adj(v) {
			if !fm.oriented[p] {
				return nil, fmt.Errorf("orient: fixed schedule left edge %d unoriented at vertex %d", a.Edge, v)
			}
			if fm.headSelf[p] {
				if o.Oriented(a.Edge) {
					if o.Head(a.Edge) != v {
						return nil, fmt.Errorf("orient: endpoints disagree on edge %d", a.Edge)
					}
					continue
				}
				o.Orient(a.Edge, v)
			}
		}
	}
	if !o.Complete() {
		// Some edge had headSelf false on both sides.
		return nil, fmt.Errorf("orient: fixed schedule produced an incomplete orientation (%d of %d edges)",
			o.NumOriented(), g.M())
	}
	if !o.Stable() {
		return nil, fmt.Errorf("orient: fixed schedule produced an unstable orientation (max badness %d)", o.MaxBadness())
	}
	return &FixedResult{
		Orientation:     o,
		Rounds:          stats.Rounds,
		LastActiveRound: lastActive,
		Phases:          phases,
		PhaseLen:        phaseLen,
	}, nil
}
