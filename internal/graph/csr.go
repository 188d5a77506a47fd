package graph

import (
	"fmt"
	"math"

	"tokendrop/internal/reuse"
)

// CSR is a compressed sparse row view of an undirected graph: flat arrays
// instead of per-vertex slices, so million-vertex instances fit in a few
// contiguous allocations and round-based runtimes touch memory strictly
// sequentially. It is the substrate of the sharded LOCAL engine
// (internal/local.Session); the pointer-based Graph remains the
// representation of the structural tooling (BFS, girth, balls).
//
// Arcs are the directed halves of the undirected edges. The arcs leaving
// vertex v occupy the contiguous index range [Row[v], Row[v+1]); the
// position of an arc within that range is the LOCAL port number of v, so a
// CSR fixes the port numbering exactly as a Graph's adjacency order does.
// For arc i, Col[i] is the head vertex, EID[i] the identifier of the
// underlying undirected edge, and Rev[i] the index of the opposite arc
// (Rev is an involution: Rev[Rev[i]] == i). Message routing is therefore a
// single flat lookup — the word sent to v on its port p is found at
// out[Rev[Row[v]+p]] — with no per-vertex indirection.
type CSR struct {
	Row []int32 // len N()+1: arc range boundaries per vertex
	Col []int32 // per arc: head vertex
	EID []int32 // per arc: undirected edge identifier
	Rev []int32 // per arc: index of the reverse arc
}

// N returns the number of vertices.
func (c *CSR) N() int { return len(c.Row) - 1 }

// M returns the number of undirected edges.
func (c *CSR) M() int { return len(c.Col) / 2 }

// NumArcs returns the number of directed arcs (2·M).
func (c *CSR) NumArcs() int { return len(c.Col) }

// Degree returns the degree of vertex v.
func (c *CSR) Degree(v int) int { return int(c.Row[v+1] - c.Row[v]) }

// ArcRange returns the half-open arc index range of vertex v.
func (c *CSR) ArcRange(v int) (lo, hi int) { return int(c.Row[v]), int(c.Row[v+1]) }

// MaxDegree returns Δ, the maximum degree over all vertices.
func (c *CSR) MaxDegree() int {
	d := int32(0)
	for v := 0; v+1 < len(c.Row); v++ {
		if deg := c.Row[v+1] - c.Row[v]; deg > d {
			d = deg
		}
	}
	return int(d)
}

// Tail returns the tail vertex of arc i in O(log n) (binary search over
// Row); hot loops should instead derive the tail from the vertex whose
// range they are iterating.
func (c *CSR) Tail(i int) int {
	lo, hi := 0, c.N()
	for lo < hi {
		mid := (lo + hi) / 2
		if int32(i) >= c.Row[mid+1] {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Validate checks internal consistency: monotone Row, in-range heads and
// edge ids, Rev a fixed-point-free involution pairing the two halves of
// each edge, matching edge ids across reverse arcs, one edge per edge id,
// no self-loops, and no duplicate edges. It is O(n + arcs) and meant for
// tests, generators and decoders, not hot paths.
func (c *CSR) Validate() error {
	n := c.N()
	if len(c.Row) == 0 || c.Row[0] != 0 {
		return fmt.Errorf("graph: csr Row must start at 0")
	}
	arcs := len(c.Col)
	if len(c.EID) != arcs || len(c.Rev) != arcs {
		return fmt.Errorf("graph: csr arc arrays disagree: %d cols, %d eids, %d revs",
			arcs, len(c.EID), len(c.Rev))
	}
	if int(c.Row[n]) != arcs {
		return fmt.Errorf("graph: csr Row ends at %d for %d arcs", c.Row[n], arcs)
	}
	if arcs%2 != 0 {
		return fmt.Errorf("graph: odd arc count %d", arcs)
	}
	for v := 0; v < n; v++ {
		if c.Row[v] > c.Row[v+1] {
			return fmt.Errorf("graph: csr Row decreases at vertex %d", v)
		}
	}
	m := arcs / 2
	// mark[u] == v+1 once v's row has held the edge v–u with v < u: an
	// edge is only checked from its lower end, so a repeat of it can only
	// occur later in that same row.
	mark := make([]int32, n)
	idTaken := make([]bool, m)
	for v := 0; v < n; v++ {
		for i := int(c.Row[v]); i < int(c.Row[v+1]); i++ {
			to := int(c.Col[i])
			if to < 0 || to >= n {
				return fmt.Errorf("graph: arc %d points to out-of-range vertex %d", i, to)
			}
			if to == v {
				return fmt.Errorf("graph: self-loop at vertex %d", v)
			}
			if id := int(c.EID[i]); id < 0 || id >= m {
				return fmt.Errorf("graph: arc %d has edge id %d (m=%d)", i, id, m)
			}
			r := int(c.Rev[i])
			if r < 0 || r >= arcs || r == i {
				return fmt.Errorf("graph: arc %d has bad reverse %d", i, r)
			}
			if int(c.Rev[r]) != i {
				return fmt.Errorf("graph: Rev is not an involution at arc %d", i)
			}
			if c.EID[r] != c.EID[i] {
				return fmt.Errorf("graph: arcs %d and %d disagree on edge id", i, r)
			}
			if int(c.Col[r]) != v {
				return fmt.Errorf("graph: reverse of arc %d (%d->%d) does not return to %d", i, v, to, v)
			}
			if v < to {
				e := Edge{U: v, V: to}
				if mark[to] == int32(v+1) {
					return fmt.Errorf("graph: duplicate edge %v", e)
				}
				mark[to] = int32(v + 1)
				if idTaken[c.EID[i]] {
					return fmt.Errorf("graph: edge %v shares edge id %d with another edge", e, c.EID[i])
				}
				idTaken[c.EID[i]] = true
			}
		}
	}
	return nil
}

// NewCSRFromGraph converts g to CSR form, preserving g's adjacency order —
// port p of vertex v is the same neighbor in both representations, so
// deterministic algorithms behave identically on either.
func NewCSRFromGraph(g *Graph) *CSR {
	n := g.N()
	c := &CSR{
		Row: make([]int32, n+1),
		Col: make([]int32, 2*g.M()),
		EID: make([]int32, 2*g.M()),
		Rev: make([]int32, 2*g.M()),
	}
	for v := 0; v < n; v++ {
		c.Row[v+1] = c.Row[v] + int32(len(g.adj[v]))
	}
	first := make([]int32, g.M())
	for i := range first {
		first[i] = -1
	}
	idx := int32(0)
	for v := 0; v < n; v++ {
		for _, a := range g.adj[v] {
			c.Col[idx] = int32(a.To)
			c.EID[idx] = int32(a.Edge)
			if f := first[a.Edge]; f < 0 {
				first[a.Edge] = idx
			} else {
				c.Rev[idx] = f
				c.Rev[f] = idx
			}
			idx++
		}
	}
	return c
}

// ToGraph materializes the pointer-based Graph with the same vertex set,
// edge identifiers, and — crucially — the same adjacency (port) order.
func (c *CSR) ToGraph() *Graph {
	n := c.N()
	g := &Graph{
		adj:   make([][]Arc, n),
		edges: make([]Edge, c.M()),
	}
	for v := 0; v < n; v++ {
		lo, hi := c.ArcRange(v)
		adj := make([]Arc, hi-lo)
		for i := lo; i < hi; i++ {
			to := int(c.Col[i])
			adj[i-lo] = Arc{To: to, Edge: int(c.EID[i])}
			if v < to {
				g.edges[c.EID[i]] = Edge{U: v, V: to}
			}
		}
		g.adj[v] = adj
	}
	return g
}

// CSRBuilder accumulates edges and assembles a CSR in two passes (counting
// sort by tail vertex). Unlike Graph.AddEdge it performs no duplicate
// detection — generators are expected to emit each edge once; Validate
// catches violations in tests. Edge identifiers are assigned in insertion
// order, and the port order of each vertex is the order in which its edges
// were inserted.
//
// A builder is reusable: Reset clears the edge list (retaining capacity)
// and BuildInto assembles the graph into caller-owned arrays, so loops
// that build one subgame CSR per phase — the orientation and assignment
// runtimes — allocate nothing once warmed.
type CSRBuilder struct {
	n      int
	us, vs []int32
	deg    []int32 // scratch of BuildInto: degree counts, then fill cursor
}

// NewCSRBuilder returns a builder for a graph on n vertices, preallocating
// room for edgeHint edges. A CSR keeps vertex ids and arc offsets in
// int32, so the builder panics on n above math.MaxInt32 and on the edge
// that would take the arc count 2·m past it.
func NewCSRBuilder(n, edgeHint int) *CSRBuilder {
	checkVertexCount(n)
	if edgeHint < 0 {
		edgeHint = 0
	}
	return &CSRBuilder{
		n:  n,
		us: make([]int32, 0, edgeHint),
		vs: make([]int32, 0, edgeHint),
	}
}

// checkVertexCount panics on a vertex count a CSR cannot number.
func checkVertexCount(n int) {
	if n < 0 {
		panic("graph: negative vertex count")
	}
	if n > math.MaxInt32 {
		panic(fmt.Sprintf("graph: %d vertices exceed the CSR's int32 range", n))
	}
}

// arcsOverflow reports whether m edges, two arcs each, overflow the
// CSR's int32 arc offsets.
func arcsOverflow(m int) bool { return m > math.MaxInt32/2 }

// N returns the vertex count.
func (b *CSRBuilder) N() int { return b.n }

// M returns the number of edges inserted so far.
func (b *CSRBuilder) M() int { return len(b.us) }

// AddEdge inserts the undirected edge {u, v} and returns its identifier.
func (b *CSRBuilder) AddEdge(u, v int) int {
	if u < 0 || u >= b.n || v < 0 || v >= b.n {
		panic(fmt.Sprintf("graph: edge {%d,%d} out of range (n=%d)", u, v, b.n))
	}
	if u == v {
		panic(fmt.Sprintf("graph: self-loop at vertex %d", u))
	}
	if arcsOverflow(len(b.us) + 1) {
		panic(fmt.Sprintf("graph: edge %d takes the CSR past %d arcs", len(b.us), math.MaxInt32))
	}
	b.us = append(b.us, int32(u))
	b.vs = append(b.vs, int32(v))
	return len(b.us) - 1
}

// Reset clears the builder for reuse on a graph with n vertices,
// retaining the edge buffer's capacity (and the scratch of BuildInto).
func (b *CSRBuilder) Reset(n int) {
	checkVertexCount(n)
	b.n = n
	b.us = b.us[:0]
	b.vs = b.vs[:0]
}

// Build assembles the CSR into fresh arrays. The builder can be reused
// afterwards (its edge buffer is retained); the returned CSR is
// independent of the builder and of any later BuildInto targets.
func (b *CSRBuilder) Build() *CSR {
	c := &CSR{}
	b.BuildInto(c)
	return c
}

// BuildInto assembles the CSR into c, growing c's arrays only when the
// graph outgrows their capacity — repeated Reset/AddEdge/BuildInto cycles
// over same-sized or shrinking graphs allocate nothing. Any previous
// contents of c (and anything aliasing its arrays) are overwritten.
func (b *CSRBuilder) BuildInto(c *CSR) {
	m := len(b.us)
	c.Row = reuse.Grown(c.Row, b.n+1)
	c.Col = reuse.Grown(c.Col, 2*m)
	c.EID = reuse.Grown(c.EID, 2*m)
	c.Rev = reuse.Grown(c.Rev, 2*m)
	deg := reuse.Grown(b.deg, b.n)
	b.deg = deg
	clear(deg)
	for i := 0; i < m; i++ {
		deg[b.us[i]]++
		deg[b.vs[i]]++
	}
	c.Row[0] = 0
	for v := 0; v < b.n; v++ {
		c.Row[v+1] = c.Row[v] + deg[v]
	}
	cursor := deg // reuse as fill cursor
	copy(cursor, c.Row[:b.n])
	for i := 0; i < m; i++ {
		u, v := b.us[i], b.vs[i]
		au := cursor[u]
		cursor[u]++
		av := cursor[v]
		cursor[v]++
		c.Col[au] = v
		c.Col[av] = u
		c.EID[au] = int32(i)
		c.EID[av] = int32(i)
		c.Rev[au] = av
		c.Rev[av] = au
	}
}
