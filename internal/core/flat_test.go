package core

import (
	"math/rand"
	"slices"
	"testing"

	"tokendrop/internal/graph"
)

func TestFlatInstanceRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	inst := RandomLayered(LayeredConfig{Levels: 3, Width: 8, ParentDeg: 2, TokenProb: 0.5, FreeBottom: true}, rng)
	fi := NewFlatInstance(inst)
	if fi.N() != inst.N() || fi.M() != inst.Graph().M() || fi.Height() != inst.Height() ||
		fi.NumTokens() != inst.NumTokens() || fi.MaxDegree() != inst.MaxDegree() {
		t.Fatalf("flat shape disagrees with instance")
	}
	back := fi.Instance()
	for v := 0; v < inst.N(); v++ {
		if back.Level(v) != inst.Level(v) || back.Token(v) != inst.Token(v) {
			t.Fatalf("vertex %d changed in round trip", v)
		}
		a, b := inst.Graph().Adj(v), back.Graph().Adj(v)
		for p := range a {
			if a[p] != b[p] {
				t.Fatalf("port order changed at vertex %d", v)
			}
		}
	}
	if fi.InitialPotential() != InstancePotential(inst) {
		t.Fatalf("potentials disagree")
	}
}

func TestNewFlatInstanceCSRValidation(t *testing.T) {
	fi := FlatLayeredGrid(3, 4, 1)
	// Same CSR with a broken level vector must be rejected.
	bad := make([]int32, fi.N())
	if _, err := NewFlatInstanceCSR(fi.CSR(), bad, make([]bool, fi.N())); err == nil {
		t.Fatal("level-0-everywhere grid accepted despite edges within a level")
	}
	if _, err := NewFlatInstanceCSR(fi.CSR(), bad[:2], make([]bool, fi.N())); err == nil {
		t.Fatal("short level vector accepted")
	}
}

func TestFlatLayeredGrid(t *testing.T) {
	fi := FlatLayeredGrid(5, 6, 2)
	if fi.N() != 30 || fi.Height() != 4 {
		t.Fatalf("n=%d height=%d", fi.N(), fi.Height())
	}
	if fi.NumTokens() != 2*6 {
		t.Fatalf("tokens=%d, want 12", fi.NumTokens())
	}
	res, err := SolveProposalSharded(fi, ShardedSolveOptions{Tie: TieFirstPort})
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(res.Solution(fi.Instance())); err != nil {
		t.Fatal(err)
	}
	if len(res.Moves) == 0 {
		t.Fatal("no tokens moved on a grid with free rows below")
	}
}

func TestFlatPowerLawBipartite(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	fi := FlatPowerLawBipartite(120, 40, 2.0, 10, rng)
	if fi.Height() != 1 {
		t.Fatalf("height=%d, want 1", fi.Height())
	}
	if fi.NumTokens() != 120 {
		t.Fatalf("tokens=%d, want 120", fi.NumTokens())
	}
	// Height-1 games are solvable by both algorithms on both engines; the
	// solution is a maximal matching.
	inst := fi.Instance()
	res, err := SolveThreeLevelSharded(fi, ShardedSolveOptions{Tie: TieFirstPort})
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(res.Solution(inst)); err != nil {
		t.Fatal(err)
	}
}

func TestFlatRandomLayeredMatchesConfig(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cfg := LayeredConfig{Levels: 3, Width: 50, ParentDeg: 4, TokenProb: 0.5, FreeBottom: true}
	fi := FlatRandomLayered(cfg, rng)
	if fi.N() != 200 || fi.M() != 3*50*4 || fi.Height() != 3 {
		t.Fatalf("shape n=%d m=%d h=%d", fi.N(), fi.M(), fi.Height())
	}
	for v := 0; v < fi.N(); v++ {
		if fi.Level(v) == 0 && fi.Token(v) {
			t.Fatal("FreeBottom violated")
		}
	}
	res, err := SolveProposalSharded(fi, ShardedSolveOptions{Tie: TieFirstPort})
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(res.Solution(fi.Instance())); err != nil {
		t.Fatal(err)
	}
}

// TestShardedStopEarly pins the Stop option: the run ends at the stop
// round with the game unfinished.
func TestShardedStopEarly(t *testing.T) {
	fi := FlatLayeredGrid(12, 8, 6)
	res, err := SolveProposalSharded(fi, ShardedSolveOptions{
		Tie:  TieFirstPort,
		Stop: func(round int) bool { return round >= 3 },
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Rounds != 3 {
		t.Fatalf("rounds=%d, want 3", res.Stats.Rounds)
	}
}

// TestMergeByRoundIsStableSort checks the log merge of the sharded
// results against a stable sort by round of the concatenated logs, on
// random round-major logs: empty logs, shared and disjoint rounds, gaps,
// and long runs of one round.
func TestMergeByRoundIsStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		logs := make([][]Move, rng.Intn(6))
		var all []Move
		for i := range logs {
			round := rng.Intn(3)
			for j := rng.Intn(40); j > 0; j-- {
				round += rng.Intn(3) // 0: the same round again
				logs[i] = append(logs[i], Move{Edge: len(all), From: i, Round: round})
				all = append(all, logs[i][len(logs[i])-1])
			}
		}
		want := slices.Clone(all)
		slices.SortStableFunc(want, func(a, b Move) int { return a.Round - b.Round })
		var got []Move
		MergeByRound(logs, moveRound, func(ms []Move) { got = append(got, ms...) })
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d: merged %v, want %v", trial, got, want)
		}
	}
}

// TestFlatGameOwners pins the owner map of a compacted game: played over
// only its vertices that have arcs, numbered in ascending id, with each
// drawing the TieRandom stream of the vertex it stands for, a game runs
// exactly as it does over the full range. Each seeded game's vertex v
// stands at 2v+1 of the full range, between arc-less even vertices
// (some holding tokens); both programs must then give the same rounds,
// messages, moves and final placement, mapped back through the owners.
func TestFlatGameOwners(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 12; i++ {
		inst := RandomLayered(LayeredConfig{Levels: 4, Width: 8, ParentDeg: 3, TokenProb: 0.5, FreeBottom: true}, rng)
		solve := SolveProposalSharded
		if i%2 == 1 {
			inst = ThreeLevelRandom(8, 6, 3, 0.5, rng)
			solve = SolveThreeLevelSharded
		}
		n := inst.N()
		compact, full := graph.NewCSRBuilder(n, 0), graph.NewCSRBuilder(2*n, 0)
		for _, e := range inst.Graph().Edges() {
			compact.AddEdge(e.U, e.V)
			full.AddEdge(2*e.U+1, 2*e.V+1)
		}
		level, token, owner := make([]int32, n), make([]bool, n), make([]int32, n)
		fullLevel, fullToken := make([]int32, 2*n), make([]bool, 2*n)
		for v := 0; v < n; v++ {
			level[v], token[v], owner[v] = int32(inst.Level(v)), inst.Token(v), int32(2*v+1)
			fullLevel[2*v+1], fullToken[2*v+1] = level[v], token[v]
			fullToken[2*v] = v%3 == 0
		}
		cfi, err := NewSolverWorkspace().NewFlatInstanceCSR(compact.Build(), level, token, owner)
		if err != nil {
			t.Fatal(err)
		}
		opt := ShardedSolveOptions{Tie: TieRandom, Seed: int64(i), Shards: 1 + i%3}
		got, err := solve(cfi, opt)
		if err != nil {
			t.Fatal(err)
		}
		want, err := solve(MustFlatInstanceCSR(full.Build(), fullLevel, fullToken), opt)
		if err != nil {
			t.Fatal(err)
		}
		if got.Stats != want.Stats || len(got.Moves) != len(want.Moves) {
			t.Fatalf("game %d: compacted run %+v with %d moves, full range %+v with %d",
				i, got.Stats, len(got.Moves), want.Stats, len(want.Moves))
		}
		for j, mv := range got.Moves {
			if mv.From, mv.To = 2*mv.From+1, 2*mv.To+1; mv != want.Moves[j] {
				t.Fatalf("game %d: move %d is %+v mapped back, full range %+v", i, j, mv, want.Moves[j])
			}
		}
		for v := range want.Final {
			if v%2 == 1 && got.Final[v/2] != want.Final[v] || v%2 == 0 && want.Final[v] != fullToken[v] {
				t.Fatalf("game %d: final placement diverges at full-range vertex %d", i, v)
			}
		}
	}
}
