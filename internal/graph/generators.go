package graph

import (
	"fmt"
	"math/rand"
)

// Path returns the path graph on n vertices: 0-1-2-…-(n-1).
func Path(n int) *Graph {
	g := New(n)
	for v := 0; v+1 < n; v++ {
		g.AddEdge(v, v+1)
	}
	return g
}

// Cycle returns the cycle graph on n >= 3 vertices.
func Cycle(n int) *Graph {
	if n < 3 {
		panic("graph: cycle needs at least 3 vertices")
	}
	g := Path(n)
	g.AddEdge(n-1, 0)
	g.SortAdjacency()
	return g
}

// Complete returns the complete graph K_n.
func Complete(n int) *Graph {
	g := New(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			g.AddEdge(u, v)
		}
	}
	return g
}

// Star returns the star graph with one hub (vertex 0) and leaves 1..leaves.
func Star(leaves int) *Graph {
	g := New(leaves + 1)
	for v := 1; v <= leaves; v++ {
		g.AddEdge(0, v)
	}
	return g
}

// Grid2D returns the rows×cols grid graph. Vertex (r, c) has identifier
// r*cols + c.
func Grid2D(rows, cols int) *Graph {
	g := New(rows * cols)
	id := func(r, c int) int { return r*cols + c }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				g.AddEdge(id(r, c), id(r, c+1))
			}
			if r+1 < rows {
				g.AddEdge(id(r, c), id(r+1, c))
			}
		}
	}
	g.SortAdjacency()
	return g
}

// Torus2D returns the rows×cols torus (grid with wraparound). Both
// dimensions must be at least 3 to keep the graph simple.
func Torus2D(rows, cols int) *Graph {
	if rows < 3 || cols < 3 {
		panic("graph: torus dimensions must be >= 3")
	}
	g := New(rows * cols)
	id := func(r, c int) int { return (r%rows)*cols + (c % cols) }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			g.AddEdge(id(r, c), id(r, c+1))
			g.AddEdge(id(r, c), id(r+1, c))
		}
	}
	g.SortAdjacency()
	return g
}

// CompleteBipartite returns K_{a,b}: vertices 0..a-1 on the left side,
// a..a+b-1 on the right side.
func CompleteBipartite(a, b int) *Graph {
	g := New(a + b)
	for u := 0; u < a; u++ {
		for v := 0; v < b; v++ {
			g.AddEdge(u, a+v)
		}
	}
	return g
}

// PerfectDAry returns a perfect d-ary tree in the sense of Section 6 of the
// paper: a tree where every non-leaf vertex has degree exactly d and all
// leaves are at the same depth. The root (vertex 0) therefore has d
// children and every internal non-root vertex has d-1 children. depth is
// the number of edges on a root-to-leaf path; depth 0 yields K_1.
//
// The second return value gives each vertex's depth (distance from root).
func PerfectDAry(d, depth int) (*Graph, []int) {
	if d < 2 {
		panic("graph: perfect d-ary tree needs d >= 2")
	}
	if depth < 0 {
		panic("graph: negative depth")
	}
	g := New(1)
	depths := []int{0}
	frontier := []int{0}
	for lvl := 1; lvl <= depth; lvl++ {
		var next []int
		for _, parent := range frontier {
			kids := d - 1
			if parent == 0 {
				kids = d
			}
			for k := 0; k < kids; k++ {
				c := g.AddVertex()
				depths = append(depths, lvl)
				g.AddEdge(parent, c)
				next = append(next, c)
			}
		}
		frontier = next
	}
	g.SortAdjacency()
	return g, depths
}

// Caterpillar returns a "propagation chain" graph from Section 1.1's
// motivation: a path of length spine where every spine vertex additionally
// carries legs pendant leaves. A single flip at one end of an arbitrary
// orientation can force a chain of corrections along the whole spine, which
// is the worst case for the centralized sequential algorithm.
func Caterpillar(spine, legs int) *Graph {
	g := New(spine)
	for v := 0; v+1 < spine; v++ {
		g.AddEdge(v, v+1)
	}
	for v := 0; v < spine; v++ {
		for l := 0; l < legs; l++ {
			leaf := g.AddVertex()
			g.AddEdge(v, leaf)
		}
	}
	g.SortAdjacency()
	return g
}

// RandomGNM returns a uniformly random simple graph with n vertices and m
// edges, drawn without replacement from all vertex pairs.
func RandomGNM(n, m int, rng *rand.Rand) *Graph {
	maxM := n * (n - 1) / 2
	if m > maxM {
		panic(fmt.Sprintf("graph: cannot place %d edges in a simple graph on %d vertices", m, n))
	}
	g := New(n)
	// Rejection sampling is fine at the densities the experiments use
	// (m far below maxM); fall back to explicit enumeration when dense.
	if m*3 < maxM*2 {
		for g.M() < m {
			u := rng.Intn(n)
			v := rng.Intn(n)
			if u != v && !g.HasEdge(u, v) {
				g.AddEdge(u, v)
			}
		}
	} else {
		all := make([]Edge, 0, maxM)
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				all = append(all, Edge{U: u, V: v})
			}
		}
		rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
		for _, e := range all[:m] {
			g.AddEdge(e.U, e.V)
		}
	}
	g.SortAdjacency()
	return g
}

// RandomRegular returns a random d-regular simple graph on n vertices via
// the pairing (configuration) model, repairing self-loops and duplicate
// edges with random double-edge swaps (Steger–Wormald style) so the method
// converges even at high density. Very dense requests (d >= n/2) are
// served by generating the (n-1-d)-regular complement. n*d must be even
// and d < n.
func RandomRegular(n, d int, rng *rand.Rand) *Graph {
	if n*d%2 != 0 {
		panic("graph: n*d must be even for a d-regular graph")
	}
	if d >= n {
		panic("graph: need d < n for a simple d-regular graph")
	}
	if d == 0 {
		return New(n)
	}
	if d >= (n+1)/2 && n >= 3 {
		return complement(RandomRegular(n, n-1-d, rng))
	}
	stubs := make([]int, 0, n*d)
	for restart := 0; restart < 100; restart++ {
		stubs = stubs[:0]
		for v := 0; v < n; v++ {
			for k := 0; k < d; k++ {
				stubs = append(stubs, v)
			}
		}
		rng.Shuffle(len(stubs), func(i, j int) { stubs[i], stubs[j] = stubs[j], stubs[i] })
		pairs := make([][2]int, 0, len(stubs)/2)
		count := make(map[Edge]int, len(stubs)/2)
		for i := 0; i < len(stubs); i += 2 {
			pairs = append(pairs, [2]int{stubs[i], stubs[i+1]})
			if stubs[i] != stubs[i+1] {
				count[NormEdge(stubs[i], stubs[i+1])]++
			}
		}
		if repairPairing(pairs, count, rng) {
			g := New(n)
			for _, p := range pairs {
				g.AddEdge(p[0], p[1])
			}
			g.SortAdjacency()
			return g
		}
	}
	panic("graph: random regular generation failed to converge")
}

// repairPairing removes self-loops and duplicate pairs by random double
// swaps. It returns true once the pairing is simple, or false if it gave
// up (the caller restarts from a fresh shuffle).
func repairPairing(pairs [][2]int, count map[Edge]int, rng *rand.Rand) bool {
	isBad := func(p [2]int) bool {
		return p[0] == p[1] || count[NormEdge(p[0], p[1])] > 1
	}
	budget := 200 * len(pairs)
	for sweep := 0; sweep < 100; sweep++ {
		anyBad := false
		for i := range pairs {
			for isBad(pairs[i]) {
				anyBad = true
				if budget == 0 {
					return false
				}
				budget--
				trySwapPair(pairs, count, i, rng.Intn(len(pairs)), rng)
			}
		}
		if !anyBad {
			return true
		}
	}
	return false
}

// trySwapPair attempts the double swap (a,b),(c,e) -> (a,c),(b,e) (with a
// random orientation of the second pair) and applies it only if both new
// pairs are simple and distinct.
func trySwapPair(pairs [][2]int, count map[Edge]int, i, j int, rng *rand.Rand) bool {
	if i == j {
		return false
	}
	a, b := pairs[i][0], pairs[i][1]
	c, e := pairs[j][0], pairs[j][1]
	if rng.Intn(2) == 0 {
		c, e = e, c
	}
	if a == c || b == e {
		return false
	}
	dec := func(x, y int) {
		if x != y {
			count[NormEdge(x, y)]--
		}
	}
	inc := func(x, y int) {
		if x != y {
			count[NormEdge(x, y)]++
		}
	}
	dec(a, b)
	dec(c, e)
	ok := count[NormEdge(a, c)] == 0 && count[NormEdge(b, e)] == 0 && NormEdge(a, c) != NormEdge(b, e)
	if !ok {
		inc(a, b)
		inc(c, e)
		return false
	}
	inc(a, c)
	inc(b, e)
	pairs[i] = [2]int{a, c}
	pairs[j] = [2]int{b, e}
	return true
}

// complement returns the complement graph of g (no self-loops).
func complement(g *Graph) *Graph {
	n := g.N()
	out := New(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if !g.HasEdge(u, v) {
				out.AddEdge(u, v)
			}
		}
	}
	out.SortAdjacency()
	return out
}

// RandomRegularGirth returns a random d-regular graph with girth at least
// minGirth, by repeated sampling. The caller is responsible for choosing n
// large enough that such graphs are not vanishingly rare (as a rule of
// thumb n should exceed (d-1)^(minGirth/2)); the function gives up with an
// error after maxAttempts samples rather than spinning forever.
func RandomRegularGirth(n, d, minGirth, maxAttempts int, rng *rand.Rand) (*Graph, error) {
	for attempt := 0; attempt < maxAttempts; attempt++ {
		g := RandomRegular(n, d, rng)
		if girth := g.Girth(); girth < 0 || girth >= minGirth {
			return g, nil
		}
	}
	return nil, fmt.Errorf("graph: no %d-regular graph on %d vertices with girth >= %d found in %d attempts",
		d, n, minGirth, maxAttempts)
}

// CirculantGirth returns a deterministic d-regular-ish high girth structure:
// the cycle power graph C_n(1, s, s^2, ...) is NOT high girth, so instead we
// expose the standard explicit family used in the lower-bound experiments:
// the incidence graph of a projective-plane-free construction is overkill,
// and the experiments only need modest girth at modest degree — see
// RandomRegularGirth. CirculantGirth therefore returns the plain cycle when
// d == 2 (girth n) and falls back to random search otherwise.
func CirculantGirth(n, d, minGirth int, rng *rand.Rand) (*Graph, error) {
	if d == 2 {
		if n < minGirth {
			return nil, fmt.Errorf("graph: cycle on %d vertices has girth %d < %d", n, n, minGirth)
		}
		return Cycle(n), nil
	}
	return RandomRegularGirth(n, d, minGirth, 2000, rng)
}

// RandomBipartite returns a random bipartite graph with left vertices
// 0..nl-1 ("customers") and right vertices nl..nl+nr-1 ("servers"), where
// every left vertex picks exactly c distinct right neighbors uniformly at
// random. c must not exceed nr.
func RandomBipartite(nl, nr, c int, rng *rand.Rand) *Graph {
	if c > nr {
		panic("graph: customer degree exceeds server count")
	}
	g := New(nl + nr)
	perm := make([]int, nr)
	for i := range perm {
		perm[i] = i
	}
	swapped := make([]int, c)
	for u := 0; u < nl; u++ {
		// Partial Fisher–Yates: draw c distinct servers.
		for i := 0; i < c; i++ {
			j := i + rng.Intn(nr-i)
			perm[i], perm[j] = perm[j], perm[i]
			swapped[i] = j
			g.AddEdge(u, nl+perm[i])
		}
		// Undo the swaps in reverse, so each customer starts from the
		// identity in O(c) rather than O(nr).
		for i := c - 1; i >= 0; i-- {
			perm[i], perm[swapped[i]] = perm[swapped[i]], perm[i]
		}
	}
	g.SortAdjacency()
	return g
}

// RandomBipartiteRegular returns a bipartite graph where every left vertex
// has degree c and every right vertex has degree s (so nl*c must equal
// nr*s), built by the configuration model with swap repair: duplicate
// (customer, server) pairs are eliminated by exchanging the left entries
// of two random pairs, which preserves both degree sequences and converges
// even when the degrees approach the side sizes.
func RandomBipartiteRegular(nl, nr, c, s int, rng *rand.Rand) *Graph {
	if nl*c != nr*s {
		panic(fmt.Sprintf("graph: degree sums differ: %d*%d != %d*%d", nl, c, nr, s))
	}
	if c > nr || s > nl {
		panic("graph: bipartite degrees exceed the opposite side")
	}
	total := nl * c
	left := make([]int, 0, total)
	for restart := 0; restart < 100; restart++ {
		left = left[:0]
		for v := 0; v < nl; v++ {
			for k := 0; k < c; k++ {
				left = append(left, v)
			}
		}
		rng.Shuffle(len(left), func(i, j int) { left[i], left[j] = left[j], left[i] })
		// Slot i is wired to server nl + i/s; only left entries move.
		server := func(i int) int { return nl + i/s }
		count := make(map[Edge]int, total)
		for i, u := range left {
			count[Edge{U: u, V: server(i)}]++
		}
		isBad := func(i int) bool { return count[Edge{U: left[i], V: server(i)}] > 1 }
		budget := 200 * total
		ok := true
		for i := 0; i < total && ok; i++ {
			for isBad(i) {
				if budget == 0 {
					ok = false
					break
				}
				budget--
				j := rng.Intn(total)
				if j == i {
					continue
				}
				// Exchange left[i] and left[j] if both resulting pairs are
				// fresh.
				a, b := left[i], left[j]
				if a == b {
					continue
				}
				count[Edge{U: a, V: server(i)}]--
				count[Edge{U: b, V: server(j)}]--
				if count[Edge{U: a, V: server(j)}] == 0 && count[Edge{U: b, V: server(i)}] == 0 {
					count[Edge{U: a, V: server(j)}]++
					count[Edge{U: b, V: server(i)}]++
					left[i], left[j] = b, a
				} else {
					count[Edge{U: a, V: server(i)}]++
					count[Edge{U: b, V: server(j)}]++
				}
			}
		}
		if !ok {
			continue
		}
		g := New(nl + nr)
		for i, u := range left {
			g.AddEdge(u, server(i))
		}
		g.SortAdjacency()
		return g
	}
	panic("graph: random bipartite regular generation failed to converge")
}

// Disjoint returns the disjoint union of the given graphs; the vertices of
// each successive graph are shifted past those of the previous ones.
func Disjoint(gs ...*Graph) *Graph {
	total := 0
	for _, g := range gs {
		total += g.N()
	}
	out := New(total)
	base := 0
	for _, g := range gs {
		for _, e := range g.Edges() {
			out.AddEdge(base+e.U, base+e.V)
		}
		base += g.N()
	}
	out.SortAdjacency()
	return out
}
