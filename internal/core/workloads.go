package core

import (
	"fmt"
	"math/rand"

	"tokendrop/internal/graph"
)

// The functions in this file model the adversary of Section 4 ("the levels
// of the nodes and the assignment of the tokens are given by an
// adversary"): seeded workload generators spanning random, adversarially
// skewed, and structurally extreme instances.

// LayeredConfig describes a random layered instance: Levels+1 layers of
// Width vertices each; every vertex on layer ℓ ≥ 1 is connected to
// ParentDeg uniformly random vertices on layer ℓ-1 (viewed from below:
// each vertex picks ParentDeg children), and tokens are placed i.i.d. with
// probability TokenProb, except that layer 0 is kept token-free when
// FreeBottom is set so that tokens have somewhere to go.
type LayeredConfig struct {
	Levels     int     // L: highest layer index
	Width      int     // vertices per layer
	ParentDeg  int     // edges from each vertex on layer ℓ to layer ℓ-1
	TokenProb  float64 // token density
	FreeBottom bool    // keep layer 0 unoccupied
}

// RandomLayered builds a random layered instance per cfg.
func RandomLayered(cfg LayeredConfig, rng *rand.Rand) *Instance {
	if cfg.Levels < 0 || cfg.Width < 1 {
		panic(fmt.Sprintf("core: bad layered config %+v", cfg))
	}
	if cfg.ParentDeg > cfg.Width {
		panic("core: ParentDeg exceeds layer width")
	}
	n := (cfg.Levels + 1) * cfg.Width
	g := graph.New(n)
	level := make([]int, n)
	id := func(lvl, i int) int { return lvl*cfg.Width + i }
	for lvl := 0; lvl <= cfg.Levels; lvl++ {
		for i := 0; i < cfg.Width; i++ {
			level[id(lvl, i)] = lvl
		}
	}
	perm := make([]int, cfg.Width)
	for lvl := 1; lvl <= cfg.Levels; lvl++ {
		for i := 0; i < cfg.Width; i++ {
			for k := range perm {
				perm[k] = k
			}
			for k := 0; k < cfg.ParentDeg; k++ {
				j := k + rng.Intn(cfg.Width-k)
				perm[k], perm[j] = perm[j], perm[k]
				g.AddEdge(id(lvl, i), id(lvl-1, perm[k]))
			}
		}
	}
	g.SortAdjacency()
	token := make([]bool, n)
	for v := 0; v < n; v++ {
		if cfg.FreeBottom && level[v] == 0 {
			continue
		}
		if rng.Float64() < cfg.TokenProb {
			token[v] = true
		}
	}
	return MustInstance(g, level, token)
}

// Chain returns the single-slot cascade: a path of length levels with the
// vertex on level ℓ for each ℓ, tokens everywhere except level 0. Every
// token must wait for the one below it, which forces Θ(L) sequential
// phases — the worst case in L for any solver.
func Chain(levels int) *Instance {
	g := graph.Path(levels + 1)
	level := make([]int, levels+1)
	token := make([]bool, levels+1)
	for v := 0; v <= levels; v++ {
		level[v] = v
		token[v] = v > 0
	}
	return MustInstance(g, level, token)
}

// Bottleneck builds a two-block instance joined through a single narrow
// layer: an upper block of occupied vertices funnels through neckWidth
// vertices into a wide empty lower block. It stresses the unique-edge-use
// rule: only neckWidth tokens can cross, the rest must get stuck above.
func Bottleneck(width, neckWidth int, rng *rand.Rand) *Instance {
	if neckWidth > width {
		panic("core: neck wider than blocks")
	}
	// Layers: 0 (wide, empty), 1 (neck), 2 (wide, all tokens).
	n := width + neckWidth + width
	g := graph.New(n)
	level := make([]int, n)
	token := make([]bool, n)
	bottom := func(i int) int { return i }
	neck := func(i int) int { return width + i }
	top := func(i int) int { return width + neckWidth + i }
	for i := 0; i < neckWidth; i++ {
		level[neck(i)] = 1
	}
	for i := 0; i < width; i++ {
		level[top(i)] = 2
		token[top(i)] = true
	}
	for i := 0; i < width; i++ {
		g.AddEdge(top(i), neck(rng.Intn(neckWidth)))
		g.AddEdge(neck(rng.Intn(neckWidth)), bottom(i))
	}
	g.SortAdjacency()
	return MustInstance(g, level, token)
}

// FromBipartite converts a bipartite graph (left vertices 0..nl-1, right
// vertices nl..n-1) into the height-2 game of Theorem 4.6: every left
// vertex sits on level 1 and holds a token, every right vertex sits on
// level 0 and is empty. The moves of any solution form a matching, and
// rule (3) makes it maximal.
func FromBipartite(g *graph.Graph, nl int) *Instance {
	level := make([]int, g.N())
	token := make([]bool, g.N())
	for v := 0; v < nl; v++ {
		level[v] = 1
		token[v] = true
	}
	return MustInstance(g, level, token)
}

// Figure2 reproduces the instance of Figure 2 in the paper: a game of
// height 4 on 13 vertices whose black (token-holding) nodes sit on levels
// 1–4. The figure's exact adjacency is not fully legible from the drawing,
// so this is a faithful small instance in its spirit: the same layer
// profile, multiple feasible terminal configurations, and tokens whose
// traversals overlap. Used by example programs and the E2 experiment.
func Figure2() *Instance {
	// Layer sizes bottom-up: 3, 3, 3, 2, 2 (levels 0..4).
	g := graph.New(13)
	level := []int{
		0, 0, 0, // v0 v1 v2
		1, 1, 1, // v3 v4 v5
		2, 2, 2, // v6 v7 v8
		3, 3, // v9 v10
		4, 4, // v11 v12
	}
	edges := [][2]int{
		{3, 0}, {3, 1}, {4, 1}, {5, 1}, {5, 2},
		{6, 3}, {6, 4}, {7, 4}, {8, 4}, {8, 5},
		{9, 6}, {9, 7}, {10, 7}, {10, 8},
		{11, 9}, {12, 9}, {12, 10},
	}
	for _, e := range edges {
		g.AddEdge(e[0], e[1])
	}
	g.SortAdjacency()
	token := make([]bool, 13)
	for _, v := range []int{4, 5, 6, 9, 11, 12} {
		token[v] = true
	}
	return MustInstance(g, level, token)
}

// ThreeLevelRandom builds a random instance on levels {0, 1, 2} where the
// middle layer has `mid` vertices, the outer layers `outer` vertices each,
// every level-2 vertex holds a token and picks degree-`deg` children on
// level 1, and every level-1 vertex picks degree-`deg` children on level
// 0. Tokens optionally also occupy a fraction midProb of the middle layer.
func ThreeLevelRandom(outer, mid, deg int, midProb float64, rng *rand.Rand) *Instance {
	if deg > mid || deg > outer {
		panic("core: degree exceeds layer width")
	}
	n := outer + mid + outer
	g := graph.New(n)
	level := make([]int, n)
	token := make([]bool, n)
	l0 := func(i int) int { return i }
	l1 := func(i int) int { return outer + i }
	l2 := func(i int) int { return outer + mid + i }
	for i := 0; i < mid; i++ {
		level[l1(i)] = 1
		if rng.Float64() < midProb {
			token[l1(i)] = true
		}
	}
	perm := make([]int, mid)
	for i := 0; i < outer; i++ {
		level[l2(i)] = 2
		token[l2(i)] = true
		for k := range perm {
			perm[k] = k
		}
		for k := 0; k < deg; k++ {
			j := k + rng.Intn(mid-k)
			perm[k], perm[j] = perm[j], perm[k]
			g.AddEdge(l2(i), l1(perm[k]))
		}
	}
	permOuter := make([]int, outer)
	for i := 0; i < mid; i++ {
		for k := range permOuter {
			permOuter[k] = k
		}
		for k := 0; k < deg; k++ {
			j := k + rng.Intn(outer-k)
			permOuter[k], permOuter[j] = permOuter[j], permOuter[k]
			g.AddEdge(l1(i), l0(permOuter[k]))
		}
	}
	g.SortAdjacency()
	return MustInstance(g, level, token)
}
