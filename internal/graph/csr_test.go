package graph

import (
	"math"
	"math/rand"
	"testing"
)

func TestCSRFromGraphRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, g := range []*Graph{
		New(0),
		New(3),
		Path(7),
		Star(9),
		Torus2D(4, 5),
		RandomGNM(30, 80, rng),
	} {
		csr := NewCSRFromGraph(g)
		if err := csr.Validate(); err != nil {
			t.Fatalf("csr invalid: %v", err)
		}
		if csr.N() != g.N() || csr.M() != g.M() {
			t.Fatalf("csr %dx%d, graph %dx%d", csr.N(), csr.M(), g.N(), g.M())
		}
		// Port order must survive the round trip exactly.
		back := csr.ToGraph()
		if err := back.Validate(); err != nil {
			t.Fatalf("round-tripped graph invalid: %v", err)
		}
		for v := 0; v < g.N(); v++ {
			a, b := g.Adj(v), back.Adj(v)
			if len(a) != len(b) {
				t.Fatalf("vertex %d degree changed", v)
			}
			for p := range a {
				if a[p] != b[p] {
					t.Fatalf("vertex %d port %d: %v != %v", v, p, a[p], b[p])
				}
			}
		}
		for id, e := range g.Edges() {
			if back.Edge(id) != e {
				t.Fatalf("edge %d changed: %v != %v", id, back.Edge(id), e)
			}
		}
	}
}

// TestCSRValidateRejects builds one CSR per rejection branch of Validate,
// in the order Validate checks them, and pins the exact error text. Each
// CSR breaks one rule and keeps the rules checked before it.
func TestCSRValidateRejects(t *testing.T) {
	for _, tc := range []struct {
		name string
		csr  CSR
		want string
	}{
		{"row start", CSR{Row: []int32{1, 1}},
			"graph: csr Row must start at 0"},
		{"arc-array lengths", CSR{Row: []int32{0, 1, 2}, Col: []int32{1, 0}, EID: []int32{0}, Rev: []int32{1, 0}},
			"graph: csr arc arrays disagree: 2 cols, 1 eids, 2 revs"},
		{"row end", CSR{Row: []int32{0, 1, 1}, Col: []int32{1, 0}, EID: []int32{0, 0}, Rev: []int32{1, 0}},
			"graph: csr Row ends at 1 for 2 arcs"},
		{"odd arc count", CSR{Row: []int32{0, 1}, Col: []int32{0}, EID: []int32{0}, Rev: []int32{0}},
			"graph: odd arc count 1"},
		{"row decrease", CSR{Row: []int32{0, 2, 1, 2}, Col: []int32{1, 0}, EID: []int32{0, 0}, Rev: []int32{1, 0}},
			"graph: csr Row decreases at vertex 1"},
		{"out-of-range head", CSR{Row: []int32{0, 1, 2}, Col: []int32{2, 0}, EID: []int32{0, 0}, Rev: []int32{1, 0}},
			"graph: arc 0 points to out-of-range vertex 2"},
		{"self-loop", CSR{Row: []int32{0, 1, 2}, Col: []int32{0, 0}, EID: []int32{0, 0}, Rev: []int32{1, 0}},
			"graph: self-loop at vertex 0"},
		{"bad edge id", CSR{Row: []int32{0, 1, 2}, Col: []int32{1, 0}, EID: []int32{1, 1}, Rev: []int32{1, 0}},
			"graph: arc 0 has edge id 1 (m=1)"},
		{"bad reverse", CSR{Row: []int32{0, 1, 2}, Col: []int32{1, 0}, EID: []int32{0, 0}, Rev: []int32{0, 1}},
			"graph: arc 0 has bad reverse 0"},
		{"non-involutive reverse", CSR{Row: []int32{0, 1, 2}, Col: []int32{1, 0}, EID: []int32{0, 0}, Rev: []int32{1, 1}},
			"graph: Rev is not an involution at arc 0"},
		{"edge id mismatch", CSR{Row: []int32{0, 1, 3, 4}, Col: []int32{1, 0, 2, 1}, EID: []int32{0, 1, 1, 0}, Rev: []int32{1, 0, 3, 2}},
			"graph: arcs 0 and 1 disagree on edge id"},
		{"reverse not returning", CSR{Row: []int32{0, 1, 2, 3, 4}, Col: []int32{1, 0, 3, 2}, EID: []int32{0, 1, 0, 1}, Rev: []int32{2, 3, 0, 1}},
			"graph: reverse of arc 0 (0->1) does not return to 0"},
		{"duplicate edge", CSR{Row: []int32{0, 2, 4}, Col: []int32{1, 1, 0, 0}, EID: []int32{0, 1, 0, 1}, Rev: []int32{2, 3, 0, 1}},
			"graph: duplicate edge {0 1}"},
		{"shared edge id", CSR{Row: []int32{0, 1, 2, 3, 4}, Col: []int32{1, 0, 3, 2}, EID: []int32{0, 0, 0, 0}, Rev: []int32{1, 0, 3, 2}},
			"graph: edge {2 3} shares edge id 0 with another edge"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.csr.Validate()
			if err == nil {
				t.Fatalf("Validate accepted the CSR, want %q", tc.want)
			}
			if err.Error() != tc.want {
				t.Fatalf("Validate = %q, want %q", err, tc.want)
			}
		})
	}
}

func TestCSRRevRouting(t *testing.T) {
	g := RandomGNM(25, 60, rand.New(rand.NewSource(2)))
	csr := NewCSRFromGraph(g)
	for v := 0; v < csr.N(); v++ {
		lo, hi := csr.ArcRange(v)
		for i := lo; i < hi; i++ {
			r := int(csr.Rev[i])
			if int(csr.Col[r]) != v {
				t.Fatalf("reverse of arc %d does not lead back to %d", i, v)
			}
			if csr.Tail(i) != v {
				t.Fatalf("Tail(%d) = %d, want %d", i, csr.Tail(i), v)
			}
			if csr.Tail(r) != int(csr.Col[i]) {
				t.Fatalf("tail of reverse arc disagrees with head")
			}
		}
	}
}

func TestCSRBuilderMatchesGraph(t *testing.T) {
	edges := [][2]int{{0, 1}, {0, 2}, {1, 3}, {2, 3}, {3, 4}}
	g := New(5)
	b := NewCSRBuilder(5, len(edges))
	for _, e := range edges {
		idG := g.AddEdge(e[0], e[1])
		idB := b.AddEdge(e[0], e[1])
		if idG != idB {
			t.Fatalf("edge ids diverge: %d != %d", idG, idB)
		}
	}
	csr := b.Build()
	if err := csr.Validate(); err != nil {
		t.Fatal(err)
	}
	// Graph.AddEdge appends arcs in insertion order, as does the builder's
	// counting sort, so adjacency must agree arc for arc.
	ref := NewCSRFromGraph(g)
	if len(csr.Col) != len(ref.Col) {
		t.Fatalf("arc counts differ")
	}
	for i := range csr.Col {
		if csr.Col[i] != ref.Col[i] || csr.EID[i] != ref.EID[i] || csr.Rev[i] != ref.Rev[i] {
			t.Fatalf("arc %d differs: (%d,%d,%d) != (%d,%d,%d)", i,
				csr.Col[i], csr.EID[i], csr.Rev[i], ref.Col[i], ref.EID[i], ref.Rev[i])
		}
	}
}

// TestCSRBuilderResetBuildInto drives one builder through a sequence of
// graphs of varying sizes via Reset/BuildInto and checks every assembly
// against a fresh builder's Build, then asserts the warmed rebuild cycle
// performs no heap allocations — the contract the per-phase subgame
// construction of the orientation and assignment runtimes relies on.
func TestCSRBuilderResetBuildInto(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	b := NewCSRBuilder(0, 0)
	var c CSR
	sizes := []int{8, 40, 12, 100, 5, 64}
	for _, n := range sizes {
		b.Reset(n)
		fresh := NewCSRBuilder(n, 0)
		for u := 1; u < n; u++ {
			v := rng.Intn(u)
			if idA, idB := b.AddEdge(u, v), fresh.AddEdge(u, v); idA != idB {
				t.Fatalf("n=%d: edge ids diverge: %d != %d", n, idA, idB)
			}
		}
		b.BuildInto(&c)
		if err := c.Validate(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		ref := fresh.Build()
		if len(c.Col) != len(ref.Col) || c.N() != ref.N() {
			t.Fatalf("n=%d: shapes differ", n)
		}
		for i := range c.Col {
			if c.Col[i] != ref.Col[i] || c.EID[i] != ref.EID[i] || c.Rev[i] != ref.Rev[i] {
				t.Fatalf("n=%d: arc %d differs", n, i)
			}
		}
	}
	// Warmed rebuild of the largest graph: no allocations.
	n := 100
	rebuild := func() {
		b.Reset(n)
		for u := 1; u < n; u++ {
			b.AddEdge(u, u-1)
		}
		b.BuildInto(&c)
	}
	rebuild()
	if allocs := testing.AllocsPerRun(5, rebuild); allocs != 0 {
		t.Errorf("warmed Reset/BuildInto cycle allocated %.1f objects; want 0", allocs)
	}
}

// TestCSRBuilderVertexGuard: a builder numbers vertices in int32, so
// NewCSRBuilder and Reset panic on a vertex count past math.MaxInt32
// and accept math.MaxInt32 itself. Neither allocates per vertex.
func TestCSRBuilderVertexGuard(t *testing.T) {
	panics := func(f func()) (p bool) {
		defer func() { p = recover() != nil }()
		f()
		return false
	}
	limit := math.MaxInt32
	if panics(func() { NewCSRBuilder(limit, 0) }) || panics(func() { NewCSRBuilder(0, 0).Reset(limit) }) {
		t.Fatal("a builder rejects math.MaxInt32 vertices")
	}
	if !panics(func() { NewCSRBuilder(limit+1, 0) }) {
		t.Error("NewCSRBuilder accepts math.MaxInt32 + 1 vertices")
	}
	if !panics(func() { NewCSRBuilder(0, 0).Reset(limit + 1) }) {
		t.Error("Reset accepts math.MaxInt32 + 1 vertices")
	}
}

// TestCSRBuilderArcGuard checks the comparison AddEdge runs before each
// insertion, since the 2^30 edges that reach it do not fit a test: the
// arc count 2·m may reach math.MaxInt32 but not pass it.
func TestCSRBuilderArcGuard(t *testing.T) {
	if arcsOverflow(math.MaxInt32 / 2) {
		t.Errorf("%d edges rejected, but their %d arcs fit int32", math.MaxInt32/2, math.MaxInt32-1)
	}
	if !arcsOverflow(math.MaxInt32/2 + 1) {
		t.Errorf("%d edges accepted, but their arcs pass math.MaxInt32", math.MaxInt32/2+1)
	}
}

func TestCSRRandomLayered(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, tc := range []struct{ levels, width, deg int }{
		{3, 10, 3},
		{2, 5, 5},  // dense: Fisher–Yates path
		{1, 40, 2}, // sparse: stamp path
		{0, 4, 2},  // no layers above 0: edgeless
	} {
		csr := CSRRandomLayered(tc.levels, tc.width, tc.deg, rng)
		if err := csr.Validate(); err != nil {
			t.Fatalf("%+v: %v", tc, err)
		}
		if csr.N() != (tc.levels+1)*tc.width {
			t.Fatalf("%+v: n=%d", tc, csr.N())
		}
		if want := tc.levels * tc.width * tc.deg; csr.M() != want {
			t.Fatalf("%+v: m=%d, want %d", tc, csr.M(), want)
		}
		// Every vertex above the bottom layer has exactly deg downward
		// edges, and all edges join adjacent layers.
		down := make([]int, csr.N())
		for v := 0; v < csr.N(); v++ {
			lv := v / tc.width
			lo, hi := csr.ArcRange(v)
			for i := lo; i < hi; i++ {
				lw := int(csr.Col[i]) / tc.width
				if lw != lv-1 && lw != lv+1 {
					t.Fatalf("%+v: edge joins layers %d and %d", tc, lv, lw)
				}
				if lw == lv-1 {
					down[v]++
				}
			}
		}
		for v := tc.width; v < csr.N(); v++ {
			if down[v] != tc.deg {
				t.Fatalf("%+v: vertex %d has %d downward edges, want %d", tc, v, down[v], tc.deg)
			}
		}
	}
}

func TestCSRLayeredGrid(t *testing.T) {
	csr := CSRLayeredGrid(4, 5)
	if err := csr.Validate(); err != nil {
		t.Fatal(err)
	}
	if csr.N() != 20 || csr.M() != 2*3*5 {
		t.Fatalf("n=%d m=%d", csr.N(), csr.M())
	}
	for v := 0; v < csr.N(); v++ {
		r := v / 5
		lo, hi := csr.ArcRange(v)
		for i := lo; i < hi; i++ {
			rw := int(csr.Col[i]) / 5
			if rw != r-1 && rw != r+1 {
				t.Fatalf("edge joins rows %d and %d", r, rw)
			}
		}
		// Interior rows have degree 4 (two up, two down).
		if r > 0 && r < 3 && hi-lo != 4 {
			t.Fatalf("vertex %d (row %d) has degree %d, want 4", v, r, hi-lo)
		}
	}
}

func TestCSRPowerLawBipartite(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	nl, nr, maxDeg := 300, 60, 12
	csr := CSRPowerLawBipartite(nl, nr, 2.2, maxDeg, rng)
	if err := csr.Validate(); err != nil {
		t.Fatal(err)
	}
	if csr.N() != nl+nr {
		t.Fatalf("n=%d", csr.N())
	}
	ones := 0
	for u := 0; u < nl; u++ {
		d := csr.Degree(u)
		if d < 1 || d > maxDeg {
			t.Fatalf("customer %d has degree %d", u, d)
		}
		if d == 1 {
			ones++
		}
		lo, hi := csr.ArcRange(u)
		for i := lo; i < hi; i++ {
			if int(csr.Col[i]) < nl {
				t.Fatalf("customer %d links to customer %d", u, csr.Col[i])
			}
		}
	}
	// A power law with alpha > 2 is dominated by degree-1 customers.
	if ones < nl/2 {
		t.Fatalf("only %d/%d degree-1 customers; power law looks wrong", ones, nl)
	}
	// Dense-draw fallback: maxDeg close to nr must still terminate and
	// produce distinct neighbors (Validate above would catch duplicates).
	dense := CSRPowerLawBipartite(20, 8, 0.5, 8, rng)
	if err := dense.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestCSRRandomRegular(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, tc := range []struct{ n, d int }{
		{10, 0},
		{10, 3},
		{50, 4},
		{101, 6},
		{400, 7},
	} {
		csr := CSRRandomRegular(tc.n, tc.d, rng)
		if err := csr.Validate(); err != nil {
			t.Fatalf("n=%d d=%d: %v", tc.n, tc.d, err)
		}
		if csr.N() != tc.n || csr.M() != tc.n*tc.d/2 {
			t.Fatalf("n=%d d=%d: got %d vertices %d edges", tc.n, tc.d, csr.N(), csr.M())
		}
		for v := 0; v < csr.N(); v++ {
			if csr.Degree(v) != tc.d {
				t.Fatalf("n=%d d=%d: vertex %d has degree %d", tc.n, tc.d, v, csr.Degree(v))
			}
		}
	}
}

func TestCSRPowerLawGeneral(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	n, maxDeg := 500, 20
	csr := CSRPowerLaw(n, 2.2, maxDeg, rng)
	if err := csr.Validate(); err != nil {
		t.Fatal(err)
	}
	if csr.N() != n {
		t.Fatalf("n=%d", csr.N())
	}
	// Every vertex drew at least one edge, so realized degrees are >= 1
	// unless its rejection budget ran dry (impossible at this density).
	ones, max := 0, 0
	for v := 0; v < n; v++ {
		d := csr.Degree(v)
		if d < 1 {
			t.Fatalf("vertex %d is isolated", v)
		}
		if d <= 2 {
			ones++
		}
		if d > max {
			max = d
		}
	}
	// Heavy tail of low-degree vertices, and at least one hub above the
	// uniform mean (alpha > 2 concentrates draws at degree 1; received
	// edges add a Poisson-like floor on top).
	if ones < n/4 {
		t.Fatalf("only %d/%d low-degree vertices; power law looks wrong", ones, n)
	}
	if max < 5 {
		t.Fatalf("max degree %d; expected at least one hub", max)
	}
}
