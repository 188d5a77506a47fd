package graph

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestPathCycleComplete(t *testing.T) {
	if g := Path(1); g.N() != 1 || g.M() != 0 {
		t.Fatal("trivial path")
	}
	if g := Path(5); g.M() != 4 {
		t.Fatal("path edge count")
	}
	if g := Cycle(6); g.M() != 6 || !g.IsRegular(2) {
		t.Fatal("cycle shape")
	}
	if g := Complete(6); g.M() != 15 || !g.IsRegular(5) {
		t.Fatal("K6 shape")
	}
	if g := Star(7); g.Degree(0) != 7 || g.M() != 7 {
		t.Fatal("star shape")
	}
}

func TestGridTorus(t *testing.T) {
	g := Grid2D(3, 5)
	if g.N() != 15 || g.M() != 3*4+2*5 {
		t.Fatalf("grid: n=%d m=%d", g.N(), g.M())
	}
	tor := Torus2D(4, 5)
	if !tor.IsRegular(4) {
		t.Fatal("torus should be 4-regular")
	}
	if err := tor.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestCompleteBipartite(t *testing.T) {
	g := CompleteBipartite(3, 4)
	if g.M() != 12 {
		t.Fatal("K34 edges")
	}
	side, ok := g.Bipartition()
	if !ok {
		t.Fatal("K34 must be bipartite")
	}
	for u := 0; u < 3; u++ {
		if side[u] != side[0] {
			t.Fatal("left side split")
		}
	}
}

func TestPerfectDAry(t *testing.T) {
	g, depths := PerfectDAry(3, 3)
	// Sizes: 1 + 3 + 3*2 + 6*2 = 22.
	if g.N() != 22 {
		t.Fatalf("3-ary depth-3 tree has %d vertices, want 22", g.N())
	}
	if g.M() != g.N()-1 || !g.IsConnected() {
		t.Fatal("not a tree")
	}
	// Every non-leaf has degree exactly 3 (the Section 6 definition).
	for v := 0; v < g.N(); v++ {
		if depths[v] < 3 && g.Degree(v) != 3 {
			t.Fatalf("internal vertex %d (depth %d) has degree %d", v, depths[v], g.Degree(v))
		}
		if depths[v] == 3 && g.Degree(v) != 1 {
			t.Fatalf("leaf %d has degree %d", v, g.Degree(v))
		}
	}
	// All leaves at the same depth = BFS distance from root.
	dist := g.BFS(0)
	for v := 0; v < g.N(); v++ {
		if dist[v] != depths[v] {
			t.Fatalf("depth bookkeeping: dist=%d depths=%d", dist[v], depths[v])
		}
	}
}

func TestPerfectDAryHeight(t *testing.T) {
	g, depths := PerfectDAry(4, 2)
	h := Height(g)
	for v := range depths {
		want := 2 - depths[v]
		if h[v] != want {
			t.Fatalf("height of depth-%d vertex = %d, want %d", depths[v], h[v], want)
		}
	}
}

func TestCaterpillar(t *testing.T) {
	g := Caterpillar(10, 3)
	if g.N() != 10+30 {
		t.Fatal("caterpillar size")
	}
	if g.Degree(5) != 2+3 {
		t.Fatal("interior spine degree")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRandomRegular(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, tc := range []struct{ n, d int }{{10, 3}, {20, 4}, {16, 5}, {50, 2}} {
		g := RandomRegular(tc.n, tc.d, rng)
		if !g.IsRegular(tc.d) {
			t.Fatalf("RandomRegular(%d,%d) not regular", tc.n, tc.d)
		}
		if err := g.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestRandomRegularOddProductPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("odd n*d should panic")
		}
	}()
	RandomRegular(5, 3, rand.New(rand.NewSource(1)))
}

func TestRandomRegularGirth(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g, err := RandomRegularGirth(60, 3, 5, 5000, rng)
	if err != nil {
		t.Fatal(err)
	}
	if !g.IsRegular(3) {
		t.Fatal("not 3-regular")
	}
	if girth := g.Girth(); girth >= 0 && girth < 5 {
		t.Fatalf("girth %d < 5", girth)
	}
}

func TestCirculantGirthCycle(t *testing.T) {
	g, err := CirculantGirth(12, 2, 10, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if g.Girth() != 12 {
		t.Fatal("cycle girth")
	}
	if _, err := CirculantGirth(5, 2, 10, rand.New(rand.NewSource(1))); err == nil {
		t.Fatal("short cycle should fail the girth requirement")
	}
}

func TestRandomBipartite(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := RandomBipartite(20, 10, 4, rng)
	for u := 0; u < 20; u++ {
		if g.Degree(u) != 4 {
			t.Fatalf("customer %d degree %d", u, g.Degree(u))
		}
		for _, a := range g.Adj(u) {
			if a.To < 20 {
				t.Fatal("customer adjacent to customer")
			}
		}
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestRandomBipartiteMatchesReset pins RandomBipartite's output to the
// loop it replaced, which reset the whole server permutation before each
// customer: same RNG draws, so the same edges, edge ids and port order.
// The last shape is td-serve's default daemon instance.
func TestRandomBipartiteMatchesReset(t *testing.T) {
	reset := func(nl, nr, c int, rng *rand.Rand) *Graph {
		g := New(nl + nr)
		perm := make([]int, nr)
		for u := 0; u < nl; u++ {
			for i := range perm {
				perm[i] = i
			}
			for i := 0; i < c; i++ {
				j := i + rng.Intn(nr-i)
				perm[i], perm[j] = perm[j], perm[i]
				g.AddEdge(u, nl+perm[i])
			}
		}
		g.SortAdjacency()
		return g
	}
	for _, shape := range []struct{ nl, nr, c int }{
		{50, 20, 1},
		{50, 20, 20},
		{50, 1, 1},
		{100000, 25000, 3},
	} {
		got := RandomBipartite(shape.nl, shape.nr, shape.c, rand.New(rand.NewSource(5)))
		want := reset(shape.nl, shape.nr, shape.c, rand.New(rand.NewSource(5)))
		if !slices.Equal(got.Edges(), want.Edges()) {
			t.Fatalf("%+v: edge lists differ", shape)
		}
		for v := 0; v < want.N(); v++ {
			if !slices.Equal(got.Adj(v), want.Adj(v)) {
				t.Fatalf("%+v: vertex %d ports %v, want %v", shape, v, got.Adj(v), want.Adj(v))
			}
		}
	}
}

func TestRandomBipartiteRegular(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := RandomBipartiteRegular(12, 8, 2, 3, rng)
	for u := 0; u < 12; u++ {
		if g.Degree(u) != 2 {
			t.Fatalf("left degree %d", g.Degree(u))
		}
	}
	for v := 12; v < 20; v++ {
		if g.Degree(v) != 3 {
			t.Fatalf("right degree %d", g.Degree(v))
		}
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRandomBipartiteRegularMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched degree sums should panic")
		}
	}()
	RandomBipartiteRegular(3, 3, 2, 3, rand.New(rand.NewSource(1)))
}

func TestDisjoint(t *testing.T) {
	g := Disjoint(Cycle(3), Cycle(4), Path(2))
	if g.N() != 9 || g.M() != 3+4+1 {
		t.Fatalf("disjoint union: n=%d m=%d", g.N(), g.M())
	}
	if g.HasEdge(2, 3) {
		t.Fatal("components leaked into each other")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

// Property: random regular graphs are simple, regular, and valid across
// seeds and parameters.
func TestRandomRegularProperty(t *testing.T) {
	check := func(seed int64, nRaw, dRaw uint8) bool {
		d := int(dRaw%5) + 2 // 2..6
		n := int(nRaw%20) + d + 2
		if n*d%2 != 0 {
			n++
		}
		g := RandomRegular(n, d, rand.New(rand.NewSource(seed)))
		return g.IsRegular(d) && g.Validate() == nil
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
