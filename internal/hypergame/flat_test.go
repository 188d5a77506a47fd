package hypergame

import (
	"fmt"
	"math/rand"
	"testing"

	"tokendrop/internal/core"
)

// The flat-solver differential tests pin the sharded hypergame ports to
// the object machines: both build the incidence network with the same port
// numbering and run the same protocol, so under either tie rule the
// rounds, message counts, move logs, and final placements must agree
// exactly (TieRandom runs draw the same per-vertex core.TieSeed streams
// on both engines), and every flat solution must pass the rules oracle.

func assertFlatMatches(t *testing.T, tag string, inst *Instance, sol *Solution, stats DistStats, flat *FlatResult) {
	t.Helper()
	if flat.Stats.Rounds != stats.Rounds {
		t.Fatalf("%s: rounds %d (flat) != %d (object)", tag, flat.Stats.Rounds, stats.Rounds)
	}
	if flat.Stats.Messages != stats.Messages {
		t.Fatalf("%s: messages %d (flat) != %d (object)", tag, flat.Stats.Messages, stats.Messages)
	}
	if flat.Stats.MaxActiveRounds != stats.MaxActiveRounds {
		t.Fatalf("%s: max active %d (flat) != %d (object)", tag, flat.Stats.MaxActiveRounds, stats.MaxActiveRounds)
	}
	if len(flat.Moves) != len(sol.Moves) {
		t.Fatalf("%s: %d moves (flat) != %d (object)", tag, len(flat.Moves), len(sol.Moves))
	}
	for i := range flat.Moves {
		if flat.Moves[i] != sol.Moves[i] {
			t.Fatalf("%s: move %d diverges: %+v (flat) != %+v (object)", tag, i, flat.Moves[i], sol.Moves[i])
		}
	}
	for v := range flat.Final {
		if flat.Final[v] != sol.Final[v] {
			t.Fatalf("%s: final token at %d diverges", tag, v)
		}
	}
	if err := Verify(flat.Solution(inst)); err != nil {
		t.Fatalf("%s: flat solution unverified: %v", tag, err)
	}
}

func TestFlatProposalMatchesObject(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for i := 0; i < 60; i++ {
		inst := randomHyperInstance(2+rng.Intn(4), 3+rng.Intn(5), 2+rng.Intn(12), 2+rng.Intn(3), rng.Float64(), rng)
		sol, stats, err := SolveProposal(inst, SolveOptions{Seed: int64(i), MaxRounds: 200000})
		if err != nil {
			t.Fatalf("instance %d: object solver: %v", i, err)
		}
		fi := NewFlatInstanceFromInstance(inst)
		flat, err := SolveProposalSharded(fi, ShardedSolveOptions{Seed: int64(i), Shards: 1 + i%5})
		if err != nil {
			t.Fatalf("instance %d: flat solver: %v", i, err)
		}
		assertFlatMatches(t, "proposal", inst, sol, stats, flat)
	}
}

func TestFlatThreeLevelMatchesObject(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for i := 0; i < 60; i++ {
		inst := random3Level(3+rng.Intn(6), 2+rng.Intn(10), 2+rng.Intn(10), 2+rng.Intn(3), rng.Float64(), rng)
		sol, stats, err := SolveThreeLevel(inst, SolveOptions{Seed: int64(i), MaxRounds: 200000})
		if err != nil {
			t.Fatalf("instance %d: object solver: %v", i, err)
		}
		fi := NewFlatInstanceFromInstance(inst)
		flat, err := SolveThreeLevelSharded(fi, ShardedSolveOptions{Seed: int64(i), Shards: 1 + i%5})
		if err != nil {
			t.Fatalf("instance %d: flat solver: %v", i, err)
		}
		assertFlatMatches(t, "three-level", inst, sol, stats, flat)
	}
}

// TestFlatSolversRandomTies runs 60 instances, as the first-port tests
// do: a generic-solver grant that drew for a lone request (flat grants
// take it without a draw) first diverges at instance 40.
func TestFlatSolversRandomTies(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for i := 0; i < 60; i++ {
		opt := SolveOptions{Tie: core.TieRandom, Seed: int64(i), MaxRounds: 200000}
		flatOpt := ShardedSolveOptions{Tie: core.TieRandom, Seed: int64(i), Shards: 1 + i%4}

		inst := randomHyperInstance(2+rng.Intn(3), 3+rng.Intn(4), 2+rng.Intn(10), 2+rng.Intn(3), rng.Float64(), rng)
		sol, stats, err := SolveProposal(inst, opt)
		if err != nil {
			t.Fatalf("instance %d: object solver: %v", i, err)
		}
		flat, err := SolveProposalSharded(NewFlatInstanceFromInstance(inst), flatOpt)
		if err != nil {
			t.Fatalf("instance %d: %v", i, err)
		}
		assertFlatMatches(t, fmt.Sprintf("instance %d: proposal", i), inst, sol, stats, flat)

		inst3 := random3Level(3+rng.Intn(4), 2+rng.Intn(8), 2+rng.Intn(8), 2+rng.Intn(3), rng.Float64(), rng)
		sol3, stats3, err := SolveThreeLevel(inst3, opt)
		if err != nil {
			t.Fatalf("instance %d: 3-level object solver: %v", i, err)
		}
		flat3, err := SolveThreeLevelSharded(NewFlatInstanceFromInstance(inst3), flatOpt)
		if err != nil {
			t.Fatalf("instance %d: 3-level: %v", i, err)
		}
		assertFlatMatches(t, fmt.Sprintf("instance %d: three-level", i), inst3, sol3, stats3, flat3)
	}
}

// withArclessServers returns inst with two servers in no hyperedge
// added on every level, one holding a token and one not, spread over the
// server ids so that every shard of a multi-shard run owns some.
// Hyperedges keep their ids and endpoint order.
func withArclessServers(inst *Instance) *Instance {
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
	edges := make([][]int, inst.M())
	heads := make([]int, inst.M())
	for e := range edges {
		for _, v := range inst.Edge(e) {
			edges[e] = append(edges[e], id[v])
		}
		heads[e] = id[inst.Head(e)]
	}
	return MustInstance(level, token, edges, heads)
}

// TestFlatArclessServersMatchObject holds both flat solvers to
// bit-identity with the object machines under both tie rules on games
// with a server in no hyperedge, with and without a token, on every
// level, and on a game with no hyperedges at all. The sharded engine
// never steps such a server (it starts halted), so the reset state must
// be the state the object machine ends its one round in.
func TestFlatArclessServersMatchObject(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	for i := 0; i < 30; i++ {
		inst := withArclessServers(randomHyperInstance(2+rng.Intn(3), 3+rng.Intn(4), 2+rng.Intn(10), 2+rng.Intn(3), rng.Float64(), rng))
		inst3 := withArclessServers(random3Level(3+rng.Intn(4), 2+rng.Intn(8), 2+rng.Intn(8), 2+rng.Intn(3), rng.Float64(), rng))
		if i == 0 {
			inst = withArclessServers(MustInstance([]int{0, 1, 2}, []bool{true, false, true}, nil, nil))
			inst3 = inst
		}
		for _, tie := range []core.TieBreak{core.TieFirstPort, core.TieRandom} {
			opt := SolveOptions{Tie: tie, Seed: int64(i), MaxRounds: 200000}
			flatOpt := ShardedSolveOptions{Tie: tie, Seed: int64(i), Shards: 1 + i%5}
			tag := fmt.Sprintf("instance %d tie=%d", i, tie)

			sol, stats, err := SolveProposal(inst, opt)
			if err != nil {
				t.Fatalf("%s: object solver: %v", tag, err)
			}
			flat, err := SolveProposalSharded(NewFlatInstanceFromInstance(inst), flatOpt)
			if err != nil {
				t.Fatalf("%s: flat solver: %v", tag, err)
			}
			assertFlatMatches(t, tag+": proposal", inst, sol, stats, flat)

			sol3, stats3, err := SolveThreeLevel(inst3, opt)
			if err != nil {
				t.Fatalf("%s: 3-level object solver: %v", tag, err)
			}
			flat3, err := SolveThreeLevelSharded(NewFlatInstanceFromInstance(inst3), flatOpt)
			if err != nil {
				t.Fatalf("%s: 3-level flat solver: %v", tag, err)
			}
			assertFlatMatches(t, tag+": three-level", inst3, sol3, stats3, flat3)
		}
	}
}

// TestFlatShardCountInvariance pins schedule independence: the same game
// solved with 1..8 shards produces the same run.
func TestFlatShardCountInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	inst := randomHyperInstance(4, 6, 20, 3, 0.7, rng)
	fi := NewFlatInstanceFromInstance(inst)
	base, err := SolveProposalSharded(fi, ShardedSolveOptions{Seed: 7, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	for shards := 2; shards <= 8; shards++ {
		res, err := SolveProposalSharded(fi, ShardedSolveOptions{Seed: 7, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.Rounds != base.Stats.Rounds || len(res.Moves) != len(base.Moves) {
			t.Fatalf("shards=%d diverges from shards=1", shards)
		}
		for i := range res.Moves {
			if res.Moves[i] != base.Moves[i] {
				t.Fatalf("shards=%d: move %d diverges", shards, i)
			}
		}
	}
}

func TestNewFlatInstanceValidation(t *testing.T) {
	lvl := []int32{1, 0, 0}
	tok := []bool{true, false, false}
	cases := []struct {
		name string
		lvl  []int32
		tok  []bool
		eptr []int32
		ends []int32
		head []int32
	}{
		{"rank 1", lvl, tok, []int32{0, 1}, []int32{0}, []int32{0}},
		{"head not endpoint", lvl, tok, []int32{0, 2}, []int32{1, 2}, []int32{0}},
		{"repeated endpoint", lvl, tok, []int32{0, 2}, []int32{1, 1}, []int32{1}},
		{"bad head level", []int32{2, 0, 0}, tok, []int32{0, 2}, []int32{0, 1}, []int32{0}},
		{"negative level", []int32{-1, 0, 0}, tok, []int32{0, 2}, []int32{0, 1}, []int32{0}},
		{"length mismatch", lvl, []bool{true}, []int32{0, 2}, []int32{0, 1}, []int32{0}},
		{"offset mismatch", lvl, tok, []int32{0, 1, 2}, []int32{0, 1}, []int32{0}},
	}
	for _, tc := range cases {
		if _, err := NewFlatInstance(tc.lvl, tc.tok, tc.eptr, tc.ends, tc.head); err == nil {
			t.Errorf("%s: no error", tc.name)
		}
	}
	if _, err := NewFlatInstance(lvl, tok, []int32{0, 2}, []int32{0, 1}, []int32{0}); err != nil {
		t.Errorf("valid instance rejected: %v", err)
	}
}
