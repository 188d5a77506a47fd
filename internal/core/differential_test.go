package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"tokendrop/internal/graph"
)

// The differential suite runs every solver — the centralized sequential
// oracle, the object-engine distributed solvers, and the sharded flat
// solvers — over a battery of ~200 seeded random layered instances and
// cross-checks them three ways:
//
//  1. every solution passes core.Verify (legal replay, unique
//     destinations, maximality),
//  2. every solution satisfies the potential identity
//     finalPotential == initialPotential - moves (each move drops one
//     token one level; token count is conserved),
//  3. the object engine and the sharded engine, running the same
//     protocol over the same port numbering, produce bit-identical runs
//     under either tie rule (under TieRandom both draw the same TieSeed
//     streams): same rounds, same message count, same move log, same
//     final placement — and therefore identical final potentials.
//
// Distinct maximal solutions of one instance may legitimately end at
// different potentials (the game is not potential-convex), so potential
// equality across *different* algorithms is checked only through the
// per-solver identity (2) and the engine-pair equality (3).

// diffCase derives a small random layered instance from a case index.
func diffCase(i int) (LayeredConfig, int64) {
	cfg := LayeredConfig{
		Levels:     1 + i%4,
		Width:      2 + (i/4)%7,
		TokenProb:  [...]float64{0.3, 0.6, 0.9}[i%3],
		FreeBottom: i%2 == 0,
	}
	cfg.ParentDeg = 1 + i%3
	if cfg.ParentDeg > cfg.Width {
		cfg.ParentDeg = cfg.Width
	}
	return cfg, int64(1000 + i)
}

func checkSolution(t *testing.T, tag string, inst *Instance, sol *Solution) {
	t.Helper()
	if err := Verify(sol); err != nil {
		t.Fatalf("%s: verification failed: %v", tag, err)
	}
	want := InstancePotential(inst) - int64(len(sol.Moves))
	if got := SolutionPotential(sol); got != want {
		t.Fatalf("%s: final potential %d, want initial %d - %d moves = %d",
			tag, got, InstancePotential(inst), len(sol.Moves), want)
	}
}

// enginePair names one protocol's solver on each engine.
type enginePair struct {
	name   string
	object func(*Instance, SolveOptions) (*Solution, DistStats, error)
	flat   func(*FlatInstance, ShardedSolveOptions) (*FlatResult, error)
}

var (
	proposalPair   = enginePair{"proposal", SolveProposal, SolveProposalSharded}
	threeLevelPair = enginePair{"threelevel", SolveThreeLevel, SolveThreeLevelSharded}
)

// checkEnginePair solves inst on both engines under tie, checks each
// solution, and demands bit-identical runs: rounds, messages, the Lemma
// 4.4 counter, the move log (reporting the first differing move), the
// final placement, and the final potential.
func checkEnginePair(t *testing.T, tag string, pair enginePair, inst *Instance, tie TieBreak, seed int64, shards int) {
	t.Helper()
	tag += " " + pair.name
	objSol, objStats, err := pair.object(inst, SolveOptions{Tie: tie, Seed: seed, MaxRounds: 1 << 16})
	if err != nil {
		t.Fatalf("%s: object engine: %v", tag, err)
	}
	checkSolution(t, tag+"/object", inst, objSol)
	res, err := pair.flat(NewFlatInstance(inst), ShardedSolveOptions{
		Tie: tie, Seed: seed, MaxRounds: 1 << 16, Shards: shards,
	})
	if err != nil {
		t.Fatalf("%s: sharded engine: %v", tag, err)
	}
	flatSol := res.Solution(inst)
	checkSolution(t, tag+"/sharded", inst, flatSol)

	if res.Stats.Rounds != objStats.Rounds {
		t.Fatalf("%s: rounds %d (sharded) != %d (object)", tag, res.Stats.Rounds, objStats.Rounds)
	}
	if res.Stats.Messages != objStats.Messages {
		t.Fatalf("%s: messages %d (sharded) != %d (object)", tag, res.Stats.Messages, objStats.Messages)
	}
	if res.Stats.MaxActiveUnoccupied != objStats.MaxActiveUnoccupied {
		t.Fatalf("%s: maxActive %d (sharded) != %d (object)",
			tag, res.Stats.MaxActiveUnoccupied, objStats.MaxActiveUnoccupied)
	}
	for i := 0; i < min(len(res.Moves), len(objSol.Moves)); i++ {
		if res.Moves[i] != objSol.Moves[i] {
			t.Fatalf("%s: move %d diverges: %+v (sharded) != %+v (object)", tag, i, res.Moves[i], objSol.Moves[i])
		}
	}
	if len(res.Moves) != len(objSol.Moves) {
		t.Fatalf("%s: %d moves (sharded) != %d (object)", tag, len(res.Moves), len(objSol.Moves))
	}
	if !slices.Equal(res.Final, objSol.Final) {
		t.Fatalf("%s: final placements diverge", tag)
	}
	if sp, op := SolutionPotential(flatSol), SolutionPotential(objSol); sp != op {
		t.Fatalf("%s: final potentials diverge: %d (sharded) != %d (object)", tag, sp, op)
	}
}

func TestDifferentialProposalEngines(t *testing.T) {
	const cases = 200
	for i := 0; i < cases; i++ {
		cfg, seed := diffCase(i)
		inst := RandomLayered(cfg, rand.New(rand.NewSource(seed)))
		tag := fmt.Sprintf("case %d (%+v)", i, cfg)

		// Oracle: the centralized sequential solver.
		checkSolution(t, tag+" sequential", inst, SolveSequential(inst, PolicyFirst, nil))

		// A shard count varying across cases exercises partition
		// boundaries.
		checkEnginePair(t, tag, proposalPair, inst, TieFirstPort, 0, 1+i%5)
	}
}

func TestDifferentialThreeLevelEngines(t *testing.T) {
	const cases = 200
	ran := 0
	for i := 0; i < cases; i++ {
		cfg, seed := diffCase(i)
		if cfg.Levels > ThreeLevelMaxLevel {
			continue
		}
		ran++
		inst := RandomLayered(cfg, rand.New(rand.NewSource(seed)))
		tag := fmt.Sprintf("case %d (%+v)", i, cfg)
		checkSolution(t, tag+" sequential", inst, SolveSequential(inst, PolicyFirst, nil))
		checkEnginePair(t, tag, threeLevelPair, inst, TieFirstPort, 0, 1+i%5)
	}
	if ran < 50 {
		t.Fatalf("only %d three-level cases ran", ran)
	}
}

// TestDifferentialTieRandom holds TieRandom runs to the same bit-identity
// as the TieFirstPort suites above: both engines draw every tie from the
// same per-vertex TieSeed streams in the same order, and every run must
// also verify and satisfy the potential identity.
func TestDifferentialTieRandom(t *testing.T) {
	for i := 0; i < 60; i++ {
		cfg, seed := diffCase(i)
		inst := RandomLayered(cfg, rand.New(rand.NewSource(seed)))
		tag := fmt.Sprintf("case %d (%+v) random", i, cfg)
		checkEnginePair(t, tag, proposalPair, inst, TieRandom, seed, 1+i%4)
		if cfg.Levels <= ThreeLevelMaxLevel {
			checkEnginePair(t, tag, threeLevelPair, inst, TieRandom, seed, 1+i%4)
		}
	}
}

// withArcless returns inst with two isolated vertices added on every
// level, one holding a token and one not, spread over the vertex ids so
// that every shard of a multi-shard run owns some. Edges keep their ids
// and their endpoints' relative order.
func withArcless(inst *Instance) *Instance {
	n, extra := inst.N(), 2*(inst.Height()+1)
	var level []int
	var token []bool
	id := make([]int, n)
	next := 0
	addArcless := func() {
		level = append(level, next/2)
		token = append(token, next%2 == 0)
		next++
	}
	for v := 0; v < n; v++ {
		if next < extra && v*extra >= next*n {
			addArcless()
		}
		id[v] = len(level)
		level = append(level, inst.Level(v))
		token = append(token, inst.Token(v))
	}
	for next < extra {
		addArcless()
	}
	g := graph.New(len(level))
	for _, e := range inst.Graph().Edges() {
		g.AddEdge(id[e.U], id[e.V])
	}
	g.SortAdjacency()
	return MustInstance(g, level, token)
}

// TestDifferentialArclessVertices holds both solvers to bit-identity
// under both tie rules on games with an isolated vertex, with and
// without a token, on every level, and on a game with no edges at all.
// The sharded engine never steps such a vertex (it starts halted), so
// the reset state of each flat program must be the state the object
// machine ends its one round in.
func TestDifferentialArclessVertices(t *testing.T) {
	insts := []*Instance{withArcless(MustInstance(graph.New(3), []int{0, 1, 2}, []bool{true, false, true}))}
	for i := 0; i < 40; i++ {
		cfg, seed := diffCase(i)
		insts = append(insts, withArcless(RandomLayered(cfg, rand.New(rand.NewSource(seed)))))
	}
	for i, inst := range insts {
		for _, tie := range []TieBreak{TieFirstPort, TieRandom} {
			tag := fmt.Sprintf("arc-less case %d (n=%d, m=%d) tie=%d", i, inst.N(), inst.Graph().M(), tie)
			checkEnginePair(t, tag, proposalPair, inst, tie, int64(i), 1+i%5)
			if inst.Height() <= ThreeLevelMaxLevel {
				checkEnginePair(t, tag, threeLevelPair, inst, tie, int64(i), 1+i%5)
			}
		}
	}
}

// TestShardedShardCountInvariance pins the schedule-independence claim:
// the same game solved with 1..8 shards produces the same run.
func TestShardedShardCountInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	inst := RandomLayered(LayeredConfig{Levels: 4, Width: 12, ParentDeg: 3, TokenProb: 0.7, FreeBottom: true}, rng)
	fi := NewFlatInstance(inst)
	base, err := SolveProposalSharded(fi, ShardedSolveOptions{Tie: TieFirstPort, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	for shards := 2; shards <= 8; shards++ {
		fi2 := NewFlatInstance(inst) // fresh state arrays
		res, err := SolveProposalSharded(fi2, ShardedSolveOptions{Tie: TieFirstPort, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.Rounds != base.Stats.Rounds || !slices.Equal(res.Moves, base.Moves) || !slices.Equal(res.Final, base.Final) {
			t.Fatalf("shards=%d diverges from shards=1", shards)
		}
	}
}

// TestShardedStressTinyGraphs drives the sharded engine across many tiny
// instances with shard counts far above the vertex count; run under
// -race this flushes barrier and partition bugs (satellite of the
// sharded-engine issue).
func TestShardedStressTinyGraphs(t *testing.T) {
	for i := 0; i < 120; i++ {
		cfg := LayeredConfig{
			Levels:     1 + i%3,
			Width:      1 + i%5,
			ParentDeg:  1,
			TokenProb:  0.8,
			FreeBottom: i%2 == 0,
		}
		rng := rand.New(rand.NewSource(int64(i)))
		inst := RandomLayered(cfg, rng)
		fi := NewFlatInstance(inst)
		res, err := SolveProposalSharded(fi, ShardedSolveOptions{
			Tie: TieFirstPort, Shards: 16, MaxRounds: 1 << 16,
		})
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if err := Verify(res.Solution(inst)); err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
	}
}
