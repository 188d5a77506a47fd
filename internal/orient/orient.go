// Package orient implements the paper's stable-orientation algorithm
// (Section 5, Theorem 5.1): starting from an unoriented graph, edges are
// oriented gradually over O(Δ) phases, and each phase repairs the one unit
// of fresh excess load per node by playing a token dropping game on the
// edges of badness exactly 1. The result is a complete orientation in
// which every edge is happy — indegree(head) ≤ indegree(tail) + 1 — in
// O(Δ⁴) communication rounds.
//
// Scheduling. The paper's algorithm pads every phase to the worst-case
// token-dropping bound (nodes know Δ, so they can agree on phase
// boundaries without communication). The implementation here runs the same
// per-phase communication on the LOCAL simulator but starts the next phase
// as soon as the game has quiesced ("adaptive schedule"): the computation,
// messages, and outputs are identical to the padded schedule — only idle
// rounds are skipped. Results report both the adaptive round count (rounds
// actually worked) and the analytic fixed-schedule bound.
package orient

import (
	"fmt"

	"tokendrop/internal/core"
	"tokendrop/internal/graph"
)

// Options configure a Solve run.
type Options struct {
	// Tie selects the tie-breaking rule inside the token dropping
	// subroutine and for accepting proposals.
	Tie core.TieBreak
	// Seed drives all randomized tie-breaking.
	Seed int64
	// Workers is passed through to the LOCAL runtime (0 = GOMAXPROCS).
	Workers int
	// CheckInvariants replays the Lemma 5.3/5.4 checks after every phase
	// and returns an error on violation. Cheap (linear per phase); tests
	// and experiments keep it on.
	CheckInvariants bool
}

// PhaseRecord captures one phase for experiments and invariant reports.
type PhaseRecord = core.PhaseRecord

// Result is the outcome of Solve.
type Result struct {
	Orientation *graph.Orientation
	Phases      int
	// Rounds counts communication rounds on the adaptive schedule: two
	// rounds per phase for the load broadcast and accept notification,
	// plus the token dropping rounds of each phase.
	Rounds int
	// WorstCaseRounds is the fixed-schedule (paper) bound for this graph:
	// phase budget × the Lemma 5.5 phase bound; see WorstCaseBound.
	WorstCaseRounds int
	PhaseLog        []PhaseRecord
}

// WorstCaseBound returns the analytic fixed-schedule round bound for
// maximum degree delta: (2Δ phases) × (2 + proposal-algorithm budget for a
// game of height Δ and degree Δ). The proposal-algorithm budget uses the
// same constants the tests validate empirically (8·(L+1)·Δ² + 40).
func WorstCaseBound(delta int) int {
	if delta == 0 {
		return 0
	}
	phaseBudget := 2 + 8*(delta+1)*delta*delta + 40
	return 2 * delta * phaseBudget
}

// Solve runs the Theorem 5.1 algorithm on g.
func Solve(g *graph.Graph, opt Options) (*Result, error) {
	// Lemma 5.5 bounds the phase count by 2Δ; the loop aborts past
	// 4·Δ + 8, a margin that only non-termination crosses.
	delta := g.MaxDegree()
	var streams []uint64 // per-vertex TieRandom accept streams
	if opt.Tie == core.TieRandom {
		streams = make([]uint64, g.N())
		for v := range streams {
			streams[v] = core.TieSeed(opt.Seed, v)
		}
	}

	o := graph.NewOrientation(g)
	res := &Result{Orientation: o, WorstCaseRounds: WorstCaseBound(delta)}

	for phase := 1; !o.Complete(); phase++ {
		if phase > 4*delta+8 {
			return nil, fmt.Errorf("orient: phase %d exceeds the Lemma 5.5 budget (Δ=%d)", phase, delta)
		}
		rec := PhaseRecord{Phase: phase}

		// Step 1 — proposals. Every unoriented edge proposes to its
		// endpoint with the smaller load (Section 5); ties break toward
		// the smaller vertex id, a rule both endpoints can evaluate after
		// the single load-broadcast round. Costs 1 communication round.
		proposalsTo := make([][]int, g.N()) // node -> proposing edge ids
		for id, e := range g.Edges() {
			if o.Oriented(id) {
				continue
			}
			target := e.U
			if o.Load(e.V) < o.Load(e.U) || (o.Load(e.V) == o.Load(e.U) && e.V < e.U) {
				target = e.V
			}
			proposalsTo[target] = append(proposalsTo[target], id)
			rec.Proposals++
		}

		// Step 2 — accept exactly one proposal per node; announcing the
		// acceptance costs 1 communication round. Under TieRandom the
		// node draws once per proposing edge, in ascending edge id.
		accepted := make([]int, 0, g.N()) // edge ids, in acceptor order
		acceptor := make(map[int]int)     // edge id -> accepting node
		token := make([]bool, g.N())
		for v, props := range proposalsTo {
			if len(props) == 0 {
				continue
			}
			pick := props[0]
			if streams != nil {
				for i, id := range props {
					if core.TieKeep(&streams[v], i+1) {
						pick = id
					}
				}
			}
			accepted = append(accepted, pick)
			acceptor[pick] = v
			token[v] = true
		}
		rec.Accepted = len(accepted)
		res.Rounds += 2

		// Step 3 — build the token dropping instance: all nodes, levels =
		// loads, edges = oriented edges of badness exactly 1, tokens at
		// acceptors (Lemma 5.2 guarantees validity).
		game := graph.New(g.N())
		gameToOrig := make([]int, 0, g.M())
		for id := range g.Edges() {
			if !o.Oriented(id) || o.Badness(id) != 1 {
				continue
			}
			e := g.Edge(id)
			game.AddEdge(e.U, e.V)
			gameToOrig = append(gameToOrig, id)
		}
		game.SortAdjacency()
		// SortAdjacency permutes ports, not edge ids; gameToOrig stays
		// indexed by game edge id, which AddEdge assigned in order.
		levels := make([]int, g.N())
		for v := range levels {
			levels[v] = o.Load(v)
		}
		inst, err := core.NewInstance(game, levels, token)
		if err != nil {
			return nil, fmt.Errorf("orient: phase %d produced an invalid game: %w", phase, err)
		}
		rec.GameEdges = game.M()

		// Step 4 — play the game.
		sol, stats, err := core.SolveProposal(inst, core.SolveOptions{
			Tie:       opt.Tie,
			Seed:      opt.Seed + int64(phase)*1_000_003,
			Workers:   opt.Workers,
			MaxRounds: 1 << 20,
		})
		if err != nil {
			return nil, fmt.Errorf("orient: phase %d game failed: %w", phase, err)
		}
		if opt.CheckInvariants {
			if err := core.Verify(sol); err != nil {
				return nil, fmt.Errorf("orient: phase %d game unverified: %w", phase, err)
			}
		}
		rec.GameRounds = stats.Rounds
		res.Rounds += stats.Rounds
		for _, tr := range sol.Traversals() {
			if len(tr.Path) > 1 {
				rec.TokensMoved++
			}
		}

		var loadsBefore []int
		if opt.CheckInvariants {
			loadsBefore = o.Loads()
		}

		// Step 5 — flip every edge present in a traversal (each consumed
		// edge was traversed exactly once).
		for gameID, origID := range gameToOrig {
			if sol.Consumed[gameID] {
				o.Flip(origID)
			}
		}
		// Step 6 — orient the accepted edges toward their acceptors.
		for _, id := range accepted {
			o.Orient(id, acceptor[id])
		}

		if opt.CheckInvariants {
			if err := checkPhaseInvariants(o, loadsBefore, sol); err != nil {
				return nil, fmt.Errorf("orient: phase %d: %w", phase, err)
			}
		}
		rec.MaxBadness = o.MaxBadness()
		res.PhaseLog = append(res.PhaseLog, rec)
		res.Phases = phase
	}
	return res, nil
}

// checkPhaseInvariants enforces Lemma 5.3 (the load of v grows by exactly
// 1 if v is the destination of a token, and is unchanged otherwise) and
// Lemma 5.4 (no directed edge has badness above 1 at the end of a phase).
func checkPhaseInvariants(o *graph.Orientation, loadsBefore []int, sol *core.Solution) error {
	isDest := make([]bool, len(loadsBefore))
	for _, tr := range sol.Traversals() {
		isDest[tr.Destination()] = true
	}
	for v, before := range loadsBefore {
		want := before
		if isDest[v] {
			want++
		}
		if o.Load(v) != want {
			return fmt.Errorf("lemma 5.3 violated at node %d: load %d -> %d, destination=%v",
				v, before, o.Load(v), isDest[v])
		}
	}
	if b := o.MaxBadness(); b > 1 {
		return fmt.Errorf("lemma 5.4 violated: max badness %d after phase", b)
	}
	if err := o.CheckLoads(); err != nil {
		return err
	}
	return nil
}
