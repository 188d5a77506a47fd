package core_test

import (
	"testing"

	"tokendrop/internal/assign"
	"tokendrop/internal/core"
	"tokendrop/internal/graph"
	"tokendrop/internal/orient"
)

// TestTieRandomPicksUniform checks that the TieRandom picks of the phase
// loops are uniform, which no oracle and no bit-identity suite can see:
// any biased pick still yields a valid, reproducible run. Each case is a
// star whose outcome names the candidate one pick chose; over fixed
// seeds 1..2000 the outcome counts must fit their expected distribution
// (chi-square over k = 8 candidates, bound 50 where a fair pick scores
// about 7 and an always-first or always-last pick about 14000). It
// covers the seed and sharded phase loops, which draw every pick from
// core's shared tie stream (TieSeed per owner, TieKeep per candidate),
// and the Resolver, which derives its own per-customer seeds from
// SplitMix64 and draws through the same TieKeep.
func TestTieRandomPicksUniform(t *testing.T) {
	const k, seeds, bound = 8, 2000, 50.0

	// orient: a centre (vertex 0) with k leaves. Every edge proposes to
	// the centre in phase 1 and the centre accepts one; every later edge
	// proposes to its leaf, so the accepted edge is the only one headed
	// at the centre at the end.
	star := graph.New(k + 1)
	for leaf := 1; leaf <= k; leaf++ {
		star.AddEdge(0, leaf)
	}
	starCSR := graph.NewCSRFromGraph(star)

	// assign: a customer with k servers picks one at load 0 and stays.
	fan := graph.New(1 + k)
	for s := 1; s <= k; s++ {
		fan.AddEdge(0, s)
	}
	fanB := graph.MustBipartite(fan, 1)

	// assign: k customers, each adjacent to server 0 and a private
	// server. Each proposes to one of its two servers at load 0, server 0
	// accepts one of its proposers, and that customer is the only one
	// left on server 0 (outcome k when nobody proposed to it, with
	// probability 2^-k).
	pair := graph.New(2*k + 1)
	for c := 0; c < k; c++ {
		pair.AddEdge(c, k)
		pair.AddEdge(c, k+1+c)
	}
	pairB := graph.MustBipartite(pair, k)
	onServer0 := func(serverOf func(c int) int) int {
		for c := 0; c < k; c++ {
			if serverOf(c) == 0 {
				return c
			}
		}
		return k
	}
	pairWant := make([]float64, k+1)
	for c := range pairWant {
		pairWant[c] = (1 - 1/float64(int(1)<<k)) / k
	}
	pairWant[k] = 1 / float64(int(1)<<k)

	uniform := make([]float64, k)
	for i := range uniform {
		uniform[i] = 1.0 / k
	}
	for _, c := range []struct {
		name    string
		want    []float64
		outcome func(seed int64) (int, error)
	}{
		{"orient Solve accept", uniform, func(seed int64) (int, error) {
			res, err := orient.Solve(star, orient.Options{Tie: core.TieRandom, Seed: seed})
			if err != nil {
				return 0, err
			}
			for id := 0; id < k; id++ {
				if res.Orientation.Head(id) == 0 {
					return id, nil
				}
			}
			return -1, nil
		}},
		{"orient SolveSharded accept", uniform, func(seed int64) (int, error) {
			res, err := orient.SolveSharded(starCSR, orient.ShardedOptions{Tie: core.TieRandom, Seed: seed, Shards: 1})
			if err != nil {
				return 0, err
			}
			for id, h := range res.Head {
				if h == 0 {
					return id, nil
				}
			}
			return -1, nil
		}},
		{"assign Solve proposal", uniform, func(seed int64) (int, error) {
			res, err := assign.Solve(fanB, assign.Options{RandomTies: true, Seed: seed})
			if err != nil {
				return 0, err
			}
			return res.Assignment.ServerOf[0] - 1, nil
		}},
		{"assign SolveSharded proposal", uniform, func(seed int64) (int, error) {
			res, err := assign.SolveSharded(graph.NewCSRBipartiteFromBipartite(fanB),
				assign.ShardedOptions{Tie: core.TieRandom, Seed: seed, Shards: 1})
			if err != nil {
				return 0, err
			}
			return int(res.ServerOf[0]), nil
		}},
		{"assign Solve accept", pairWant, func(seed int64) (int, error) {
			res, err := assign.Solve(pairB, assign.Options{RandomTies: true, Seed: seed})
			if err != nil {
				return 0, err
			}
			return onServer0(func(c int) int { return res.Assignment.ServerOf[c] - k }), nil
		}},
		{"assign SolveSharded accept", pairWant, func(seed int64) (int, error) {
			res, err := assign.SolveSharded(graph.NewCSRBipartiteFromBipartite(pairB),
				assign.ShardedOptions{Tie: core.TieRandom, Seed: seed, Shards: 1})
			if err != nil {
				return 0, err
			}
			return onServer0(func(c int) int { return int(res.ServerOf[c]) }), nil
		}},
		{"Resolver placement", uniform, func(seed int64) (int, error) {
			r, err := assign.NewResolver(nil, nil, assign.ResolverOptions{Tie: core.TieRandom, Seed: seed})
			if err != nil {
				return 0, err
			}
			defer r.Close()
			servers := make([]int32, k)
			for i := range servers {
				s, err := r.AddServer()
				if err != nil {
					return 0, err
				}
				servers[i] = int32(s)
			}
			cust, err := r.AddCustomer(servers)
			if err != nil {
				return 0, err
			}
			return r.ServerOf(cust), nil
		}},
	} {
		counts := make([]int, len(c.want))
		for seed := int64(1); seed <= seeds; seed++ {
			o, err := c.outcome(seed)
			if err != nil {
				t.Fatalf("%s seed %d: %v", c.name, seed, err)
			}
			if o < 0 || o >= len(counts) {
				t.Fatalf("%s seed %d: outcome %d outside [0,%d)", c.name, seed, o, len(counts))
			}
			counts[o]++
		}
		chi2 := 0.0
		for i, n := range counts {
			e := c.want[i] * seeds
			chi2 += (float64(n) - e) * (float64(n) - e) / e
		}
		if chi2 > bound {
			t.Errorf("%s: chi-square %.1f over %d seeds exceeds %.0f; counts %v", c.name, chi2, seeds, bound, counts)
		}
	}
}
