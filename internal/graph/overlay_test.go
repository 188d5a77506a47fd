package graph

import (
	"math/rand"
	"testing"
	"time"
)

// refOverlay is the obvious map/slice model the arena-backed overlay is
// differentially tested against.
type refOverlay struct {
	adj  map[int][]int // customer -> servers, port order
	serv map[int]bool
}

func newRefOverlay() *refOverlay {
	return &refOverlay{adj: map[int][]int{}, serv: map[int]bool{}}
}

func checkAgainstRef(t *testing.T, o *BipartiteOverlay, ref *refOverlay) {
	t.Helper()
	if o.NumCustomers() != len(ref.adj) {
		t.Fatalf("live customers: overlay %d, ref %d", o.NumCustomers(), len(ref.adj))
	}
	if o.NumServers() != len(ref.serv) {
		t.Fatalf("live servers: overlay %d, ref %d", o.NumServers(), len(ref.serv))
	}
	edges := 0
	for c, servers := range ref.adj {
		edges += len(servers)
		if !o.CustomerLive(c) {
			t.Fatalf("customer %d live in ref, dead in overlay", c)
		}
		adj := o.Adj(c)
		if len(adj) != len(servers) {
			t.Fatalf("customer %d degree: overlay %d, ref %d", c, len(adj), len(servers))
		}
		for p, s := range servers {
			if int(adj[p]) != s {
				t.Fatalf("customer %d port %d: overlay %d, ref %d", c, p, adj[p], s)
			}
		}
	}
	if o.NumEdges() != edges {
		t.Fatalf("edges: overlay %d, ref %d", o.NumEdges(), edges)
	}
	// Incidence lists must hold exactly the incident customers (order is
	// maintenance-defined, so compare as sets).
	for s := range ref.serv {
		if !o.ServerLive(s) {
			t.Fatalf("server %d live in ref, dead in overlay", s)
		}
		want := map[int]bool{}
		for c, servers := range ref.adj {
			for _, t := range servers {
				if t == s {
					want[c] = true
				}
			}
		}
		inc := o.Incident(s)
		if len(inc) != len(want) {
			t.Fatalf("server %d incidence size: overlay %d, ref %d", s, len(inc), len(want))
		}
		for _, c := range inc {
			if !want[int(c)] {
				t.Fatalf("server %d incidence holds non-incident customer %d", s, c)
			}
		}
	}
}

// TestOverlayDifferential drives random deltas through the overlay and a
// reference model, checking adjacency (port order included), incidence,
// and the compacted CSR after every few steps — including across the
// automatic arena compactions the churn triggers.
func TestOverlayDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	o := NewBipartiteOverlay(nil)
	o.FragThreshold = 0.3 // compact eagerly so the test crosses it often
	ref := newRefOverlay()
	b := NewCSRBuilder(0, 0)
	var oc OverlayCSR

	liveServers := func() []int {
		var ids []int
		for s := range ref.serv {
			ids = append(ids, s)
		}
		return ids
	}
	liveCustomers := func() []int {
		var ids []int
		for c := range ref.adj {
			ids = append(ids, c)
		}
		return ids
	}

	for step := 0; step < 4000; step++ {
		op := rng.Intn(10)
		switch {
		case op < 2 || len(ref.serv) == 0: // add server
			s := o.AddServer()
			if ref.serv[s] {
				t.Fatalf("step %d: AddServer returned live id %d", step, s)
			}
			ref.serv[s] = true
		case op < 5: // add customer
			ids := liveServers()
			rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
			d := 1 + rng.Intn(min(3, len(ids)))
			servers := make([]int32, d)
			for i := 0; i < d; i++ {
				servers[i] = int32(ids[i])
			}
			c, err := o.AddCustomer(servers)
			if err != nil {
				t.Fatalf("step %d: AddCustomer: %v", step, err)
			}
			if _, ok := ref.adj[c]; ok {
				t.Fatalf("step %d: AddCustomer returned live id %d", step, c)
			}
			ref.adj[c] = nil
			for _, s := range servers {
				ref.adj[c] = append(ref.adj[c], int(s))
			}
		case op < 7: // remove customer
			ids := liveCustomers()
			if len(ids) == 0 {
				continue
			}
			c := ids[rng.Intn(len(ids))]
			if err := o.RemoveCustomer(c); err != nil {
				t.Fatalf("step %d: RemoveCustomer(%d): %v", step, c, err)
			}
			delete(ref.adj, c)
		case op < 8: // add edge
			cs, ss := liveCustomers(), liveServers()
			if len(cs) == 0 {
				continue
			}
			c := cs[rng.Intn(len(cs))]
			s := ss[rng.Intn(len(ss))]
			present := false
			for _, t := range ref.adj[c] {
				if t == s {
					present = true
				}
			}
			err := o.AddEdge(c, s)
			if present {
				if err == nil {
					t.Fatalf("step %d: duplicate AddEdge(%d,%d) accepted", step, c, s)
				}
				continue
			}
			if err != nil {
				t.Fatalf("step %d: AddEdge(%d,%d): %v", step, c, s, err)
			}
			ref.adj[c] = append(ref.adj[c], s)
		case op < 9: // remove edge
			cs := liveCustomers()
			if len(cs) == 0 {
				continue
			}
			c := cs[rng.Intn(len(cs))]
			if len(ref.adj[c]) == 0 {
				continue
			}
			p := rng.Intn(len(ref.adj[c]))
			s := ref.adj[c][p]
			if err := o.RemoveEdge(c, s); err != nil {
				t.Fatalf("step %d: RemoveEdge(%d,%d): %v", step, c, s, err)
			}
			ref.adj[c] = append(ref.adj[c][:p], ref.adj[c][p+1:]...)
		default: // remove an empty server
			ids := liveServers()
			s := ids[rng.Intn(len(ids))]
			incident := false
			for _, servers := range ref.adj {
				for _, t := range servers {
					if t == s {
						incident = true
					}
				}
			}
			err := o.RemoveServer(s)
			if incident {
				if err == nil {
					t.Fatalf("step %d: RemoveServer(%d) accepted with incident customers", step, s)
				}
				continue
			}
			if err != nil {
				t.Fatalf("step %d: RemoveServer(%d): %v", step, s, err)
			}
			delete(ref.serv, s)
		}
		if step%137 == 0 {
			checkAgainstRef(t, o, ref)
			checkBuildCSR(t, o, ref, b, &oc)
		}
	}
	checkAgainstRef(t, o, ref)
	checkBuildCSR(t, o, ref, b, &oc)
	if o.Compactions() == 0 {
		t.Fatalf("churn never crossed the fragmentation threshold (frag=%.2f)", o.Frag())
	}
	// An explicit compaction reclaims everything and changes nothing.
	o.CompactArenas()
	if o.Frag() != 0 {
		t.Fatalf("explicit compaction left frag=%.2f", o.Frag())
	}
	checkAgainstRef(t, o, ref)
}

// checkBuildCSR compacts the overlay and validates the flat graph: CSR
// invariants, the bipartition, the id maps, and every live customer's
// ports in overlay order.
func checkBuildCSR(t *testing.T, o *BipartiteOverlay, ref *refOverlay, b *CSRBuilder, oc *OverlayCSR) {
	t.Helper()
	o.BuildCSR(b, oc)
	if err := oc.C.Validate(); err != nil {
		t.Fatalf("compacted CSR invalid: %v", err)
	}
	if _, err := NewCSRBipartite(&oc.C, oc.NumLeft); err != nil {
		t.Fatalf("compacted CSR not bipartite: %v", err)
	}
	if oc.NumLeft != len(ref.adj) {
		t.Fatalf("compacted NumLeft %d, ref %d", oc.NumLeft, len(ref.adj))
	}
	for d := 0; d < oc.NumLeft; d++ {
		c := int(oc.CustID[d])
		if int(oc.CustDense[c]) != d {
			t.Fatalf("customer id maps disagree at dense %d", d)
		}
		want := ref.adj[c]
		lo, hi := oc.C.ArcRange(d)
		if hi-lo != len(want) {
			t.Fatalf("customer %d compacted degree %d, ref %d", c, hi-lo, len(want))
		}
		for p := 0; p < len(want); p++ {
			s := int(oc.ServID[int(oc.C.Col[lo+p])-oc.NumLeft])
			if s != want[p] {
				t.Fatalf("customer %d port %d: compacted server %d, ref %d", c, p, s, want[p])
			}
		}
	}
}

// TestOverlayFromCSR checks that ingesting a CSRBipartite preserves ids
// and port order, and that compacting it straight back yields the same
// graph.
func TestOverlayFromCSR(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	bip := MustBipartite(RandomBipartite(40, 12, 3, rng), 40)
	fb := NewCSRBipartiteFromBipartite(bip)
	o := NewBipartiteOverlay(fb)
	if o.NumCustomers() != 40 || o.NumServers() != 12 || o.NumEdges() != fb.C.M() {
		t.Fatalf("ingest counts wrong: %d/%d/%d", o.NumCustomers(), o.NumServers(), o.NumEdges())
	}
	for c := 0; c < 40; c++ {
		lo, hi := fb.C.ArcRange(c)
		adj := o.Adj(c)
		for p := 0; p < hi-lo; p++ {
			if int(adj[p]) != int(fb.C.Col[lo+p])-40 {
				t.Fatalf("ingest broke port order at customer %d port %d", c, p)
			}
		}
	}
	b := NewCSRBuilder(0, 0)
	var oc OverlayCSR
	o.BuildCSR(b, &oc)
	if err := oc.C.Validate(); err != nil {
		t.Fatalf("round-trip CSR invalid: %v", err)
	}
	for c := 0; c < 40; c++ {
		lo, hi := fb.C.ArcRange(c)
		clo, chi := oc.C.ArcRange(c)
		if hi-lo != chi-clo {
			t.Fatalf("round-trip degree drifted at customer %d", c)
		}
		for p := 0; p < hi-lo; p++ {
			if oc.C.Col[clo+p] != fb.C.Col[lo+p] {
				t.Fatalf("round-trip port order drifted at customer %d port %d", c, p)
			}
		}
	}
}

// TestOverlayIDRecycling pins the LIFO id-recycling contract: the id
// space stays bounded by the peak live count under churn.
func TestOverlayIDRecycling(t *testing.T) {
	o := NewBipartiteOverlay(nil)
	s := o.AddServer()
	var ids []int
	for i := 0; i < 8; i++ {
		c, err := o.AddCustomer([]int32{int32(s)})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, c)
	}
	for _, c := range ids {
		if err := o.RemoveCustomer(c); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 1000; i++ {
		c, err := o.AddCustomer([]int32{int32(s)})
		if err != nil {
			t.Fatal(err)
		}
		if c >= 8 {
			t.Fatalf("churn leaked into fresh id %d despite free ids", c)
		}
		if err := o.RemoveCustomer(c); err != nil {
			t.Fatal(err)
		}
	}
	if o.CustomerIDs() != 8 {
		t.Fatalf("id space grew to %d under churn", o.CustomerIDs())
	}
}

// TestOverlaySteadyStateAllocs pins the zero-allocation contract for a
// warmed overlay under assign/release churn.
func TestOverlaySteadyStateAllocs(t *testing.T) {
	o := NewBipartiteOverlay(nil)
	var servers []int32
	for s := 0; s < 16; s++ {
		servers = append(servers, int32(o.AddServer()))
	}
	adj := make([]int32, 3)
	churn := func() {
		for i := 0; i < 64; i++ {
			adj[0] = servers[i%16]
			adj[1] = servers[(i+5)%16]
			adj[2] = servers[(i+11)%16]
			c, err := o.AddCustomer(adj)
			if err != nil {
				t.Fatal(err)
			}
			if err := o.RemoveCustomer(c); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < 50; i++ { // warm arenas past the churn's high-water mark
		churn()
	}
	if avg := testing.AllocsPerRun(20, churn); avg != 0 {
		t.Fatalf("warmed overlay churn allocates %.1f times per round", avg)
	}
}

// TestOverlayDuplicateCheckLinear pins the duplicate-port check of
// AddCustomer and RestoreBipartiteOverlay as linear in the adjacency
// length: one customer listing 100k distinct servers must cost under 30×
// one listing 10k. A linear check measures about 10×, a quadratic one
// about 100×. Each size takes the fastest of a few runs, so one
// scheduling hiccup cannot fail the test.
func TestOverlayDuplicateCheckLinear(t *testing.T) {
	ids := func(n int) []int32 {
		adj := make([]int32, n)
		for i := range adj {
			adj[i] = int32(i)
		}
		return adj
	}
	fastest := func(reps int, run func() error) time.Duration {
		best := time.Duration(1<<63 - 1)
		for i := 0; i < reps; i++ {
			start := time.Now()
			if err := run(); err != nil {
				t.Fatal(err)
			}
			best = min(best, time.Since(start))
		}
		return best
	}
	add := func(n int) time.Duration {
		o := NewBipartiteOverlay(nil)
		for i := 0; i < n; i++ {
			o.AddServer()
		}
		adj := ids(n)
		c, err := o.AddCustomer(adj) // warm the arenas and the stamps
		if err != nil {
			t.Fatal(err)
		}
		if err := o.RemoveCustomer(c); err != nil {
			t.Fatal(err)
		}
		return fastest(3, func() error {
			c, err := o.AddCustomer(adj)
			if err != nil {
				return err
			}
			return o.RemoveCustomer(c)
		})
	}
	restore := func(n int) time.Duration {
		adj := ids(n)
		return fastest(3, func() error {
			_, err := RestoreBipartiteOverlay([]int32{0}, []int32{0, int32(n)}, adj, adj)
			return err
		})
	}
	for _, c := range []struct {
		name string
		time func(n int) time.Duration
	}{{"AddCustomer", add}, {"RestoreBipartiteOverlay", restore}} {
		small, large := c.time(10_000), c.time(100_000)
		ratio := float64(large) / float64(small)
		t.Logf("%s: 10k servers %v, 100k servers %v, ratio %.1f×", c.name, small, large, ratio)
		if ratio >= 30 {
			t.Errorf("%s: 100k servers cost %.1f× 10k servers (%v vs %v); want under 30×", c.name, ratio, large, small)
		}
	}
}

// TestResetShrink pins that Reset does not shrink the builder: it
// retains the edge buffer's peak capacity, which the phase loops rely on
// to rebuild same-sized subgames every phase without allocating.
func TestResetShrink(t *testing.T) {
	b := NewCSRBuilder(4, 0)
	for i := 0; i < 1000; i++ {
		b.AddEdge(i%4, (i+1)%4+0) // duplicates are fine for capacity accounting
	}
	b.Build()
	b.Reset(4)
	if cap(b.us) < 1000 {
		t.Fatalf("Reset released the edge buffer (cap %d)", cap(b.us))
	}
}

// TestAddEdgeAtInverse pins the rollback contract AddEdgeAt exists for:
// RemoveEdge followed by AddEdgeAt at the removed port restores the
// customer's port order bit-exactly, at every port position, under
// enough churn to cross arena relocations.
func TestAddEdgeAtInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	o := NewBipartiteOverlay(nil)
	o.FragThreshold = 0.3
	var servers []int
	for s := 0; s < 8; s++ {
		servers = append(servers, o.AddServer())
	}
	var customers []int
	for c := 0; c < 16; c++ {
		deg := 1 + rng.Intn(5)
		perm := rng.Perm(len(servers))
		adj := make([]int32, deg)
		for i := range adj {
			adj[i] = int32(servers[perm[i]])
		}
		id, err := o.AddCustomer(adj)
		if err != nil {
			t.Fatal(err)
		}
		customers = append(customers, id)
	}
	for step := 0; step < 500; step++ {
		c := customers[rng.Intn(len(customers))]
		before := append([]int32(nil), o.Adj(c)...)
		at := rng.Intn(len(before))
		s := int(before[at])
		if err := o.RemoveEdge(c, s); err != nil {
			t.Fatalf("step %d: remove {%d,%d}: %v", step, c, s, err)
		}
		if err := o.AddEdgeAt(c, s, at); err != nil {
			t.Fatalf("step %d: restore {%d,%d}@%d: %v", step, c, s, at, err)
		}
		after := o.Adj(c)
		if len(after) != len(before) {
			t.Fatalf("step %d: degree %d, want %d", step, len(after), len(before))
		}
		for p := range before {
			if after[p] != before[p] {
				t.Fatalf("step %d: port %d = %d, want %d (restored at %d)", step, p, after[p], before[p], at)
			}
		}
		// Interleave unrelated churn so segments relocate between checks.
		if step%7 == 0 {
			victim := customers[rng.Intn(len(customers))]
			adj := append([]int32(nil), o.Adj(victim)...)
			if err := o.RemoveCustomer(victim); err != nil {
				t.Fatal(err)
			}
			id, err := o.AddCustomer(adj)
			if err != nil {
				t.Fatal(err)
			}
			if id != victim {
				t.Fatalf("step %d: recycled id %d, want %d", step, id, victim)
			}
		}
	}
}

// TestAddEdgeAtRejects pins AddEdgeAt's validation: dead endpoints,
// out-of-range positions, and parallel edges all error without mutating.
func TestAddEdgeAtRejects(t *testing.T) {
	o := NewBipartiteOverlay(nil)
	s0, s1 := o.AddServer(), o.AddServer()
	c, err := o.AddCustomer([]int32{int32(s0)})
	if err != nil {
		t.Fatal(err)
	}
	if err := o.AddEdgeAt(c+1, s1, 0); err == nil {
		t.Fatal("accepted dead customer")
	}
	if err := o.AddEdgeAt(c, s1+1, 0); err == nil {
		t.Fatal("accepted dead server")
	}
	if err := o.AddEdgeAt(c, s1, 2); err == nil {
		t.Fatal("accepted out-of-range position")
	}
	if err := o.AddEdgeAt(c, s1, -1); err == nil {
		t.Fatal("accepted negative position")
	}
	if err := o.AddEdgeAt(c, s0, 0); err == nil {
		t.Fatal("accepted parallel edge")
	}
	if got := o.Adj(c); len(got) != 1 || int(got[0]) != s0 {
		t.Fatalf("rejected inserts mutated adjacency: %v", got)
	}
	if err := o.AddEdgeAt(c, s1, 0); err != nil {
		t.Fatal(err)
	}
	if got := o.Adj(c); len(got) != 2 || int(got[0]) != s1 || int(got[1]) != s0 {
		t.Fatalf("front insert got %v, want [s1 s0]", got)
	}
}
