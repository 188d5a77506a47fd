package assign

import (
	"math/rand"
	"testing"
	"time"

	"tokendrop/internal/core"
	"tokendrop/internal/graph"
)

// The incremental suite is oracle-based, per the Resolver's contract:
// after any delta sequence the Resolver's state must satisfy the same
// stability predicate a from-scratch SolveSharded run on the mutated
// network does (every live customer assigned to an adjacent server,
// loads consistent, badness at most 1). Assignments themselves are never
// compared — stable states are not unique and move logs legitimately
// differ between the incremental and batch paths.

// churnStep applies one random delta to r, mirroring it in live, the
// test's model of which ids are live. Returns false when the rng drew an
// op the current state cannot support (the caller just draws again).
func churnStep(t *testing.T, r *Resolver, rng *rand.Rand, liveCust, liveServ *[]int32) bool {
	t.Helper()
	pickFrom := func(ids []int32) int32 { return ids[rng.Intn(len(ids))] }
	removeID := func(ids *[]int32, id int32) {
		for i, v := range *ids {
			if v == id {
				(*ids)[i] = (*ids)[len(*ids)-1]
				*ids = (*ids)[:len(*ids)-1]
				return
			}
		}
		t.Fatalf("model lost id %d", id)
	}
	switch op := rng.Intn(10); {
	case op < 3: // add customer with 1..3 distinct ports
		if len(*liveServ) == 0 {
			return false
		}
		want := 1 + rng.Intn(3)
		perm := rng.Perm(len(*liveServ))
		servers := make([]int32, 0, want)
		for _, i := range perm {
			servers = append(servers, (*liveServ)[i])
			if len(servers) == want {
				break
			}
		}
		c, err := r.AddCustomer(servers)
		if err != nil {
			t.Fatalf("AddCustomer(%v): %v", servers, err)
		}
		*liveCust = append(*liveCust, int32(c))
	case op < 5: // remove customer
		if len(*liveCust) == 0 {
			return false
		}
		c := pickFrom(*liveCust)
		if err := r.RemoveCustomer(int(c)); err != nil {
			t.Fatalf("RemoveCustomer(%d): %v", c, err)
		}
		removeID(liveCust, c)
	case op < 6: // add server
		s, err := r.AddServer()
		if err != nil {
			t.Fatalf("AddServer: %v", err)
		}
		*liveServ = append(*liveServ, int32(s))
	case op < 7: // drain server (skip when a customer depends on it alone)
		if len(*liveServ) < 2 {
			return false
		}
		s := pickFrom(*liveServ)
		for _, c := range r.Overlay().Incident(int(s)) {
			if len(r.Overlay().Adj(int(c))) < 2 {
				return false
			}
		}
		if err := r.DrainServer(int(s)); err != nil {
			t.Fatalf("DrainServer(%d): %v", s, err)
		}
		removeID(liveServ, s)
	case op < 9: // add edge
		if len(*liveCust) == 0 || len(*liveServ) == 0 {
			return false
		}
		c, s := pickFrom(*liveCust), pickFrom(*liveServ)
		for _, u := range r.Overlay().Adj(int(c)) {
			if u == s {
				return false
			}
		}
		if err := r.AddEdge(int(c), int(s)); err != nil {
			t.Fatalf("AddEdge(%d,%d): %v", c, s, err)
		}
	default: // remove edge (never the last one)
		if len(*liveCust) == 0 {
			return false
		}
		c := pickFrom(*liveCust)
		adj := r.Overlay().Adj(int(c))
		if len(adj) < 2 {
			return false
		}
		s := adj[rng.Intn(len(adj))]
		if err := r.RemoveEdge(int(c), int(s)); err != nil {
			t.Fatalf("RemoveEdge(%d,%d): %v", c, s, err)
		}
	}
	return true
}

// TestResolverChurnEquivalence drives a Resolver through random deltas
// with SelfCheck on (so every operation oracle-verifies the incremental
// state) and then checks the batch oracle on the mutated network: a
// from-scratch SolveSharded on the compacted graph — at shards 1, 2,
// and 8, both tie rules — must find it solvable and stable with the
// same live counts the Resolver reports.
func TestResolverChurnEquivalence(t *testing.T) {
	for _, tie := range []core.TieBreak{core.TieFirstPort, core.TieRandom} {
		rng := rand.New(rand.NewSource(42 + int64(tie)))
		b := graph.MustBipartite(graph.RandomBipartite(60, 16, 3, rng), 60)
		fb := graph.NewCSRBipartiteFromBipartite(b)
		r, err := NewResolver(fb, nil, ResolverOptions{
			Tie: tie, Seed: 5, Shards: 2, SelfCheck: true,
		})
		if err != nil {
			t.Fatalf("tie %v: NewResolver: %v", tie, err)
		}
		defer r.Close()
		r.ov.FragThreshold = 0.3 // compact often, so the churn crosses compactions

		liveCust := make([]int32, 0, 128)
		liveServ := make([]int32, 0, 32)
		for c := 0; c < fb.NumLeft; c++ {
			liveCust = append(liveCust, int32(c))
		}
		for s := 0; s < fb.NumServers(); s++ {
			liveServ = append(liveServ, int32(s))
		}
		for applied := 0; applied < 400; {
			if churnStep(t, r, rng, &liveCust, &liveServ) {
				applied++
			}
		}
		if err := r.Verify(); err != nil {
			t.Fatalf("tie %v: post-churn verify: %v", tie, err)
		}
		st := r.Stats()
		if st.Customers != len(liveCust) || st.Servers != len(liveServ) {
			t.Fatalf("tie %v: stats report %d/%d live, model has %d/%d",
				tie, st.Customers, st.Servers, len(liveCust), len(liveServ))
		}

		// The batch oracle on the mutated network, across shard counts.
		var bld graph.CSRBuilder
		bld.Reset(0)
		var oc graph.OverlayCSR
		r.Overlay().BuildCSR(&bld, &oc)
		for _, shards := range []int{1, 2, 8} {
			res, err := SolveSharded(oc.Bipartite(), ShardedOptions{
				Tie: tie, Seed: 99, Shards: shards, CheckInvariants: true,
			})
			if err != nil {
				t.Fatalf("tie %v shards %d: oracle solve: %v", tie, shards, err)
			}
			if !res.Stable() {
				t.Fatalf("tie %v shards %d: oracle solve unstable", tie, shards)
			}
			if len(res.ServerOf) != st.Customers {
				t.Fatalf("tie %v shards %d: oracle solved %d customers, resolver has %d",
					tie, shards, len(res.ServerOf), st.Customers)
			}
		}

		// FullSolve on the resolver's own machinery lands in a verified
		// stable state too.
		if err := r.FullSolve(); err != nil {
			t.Fatalf("tie %v: FullSolve: %v", tie, err)
		}
		if err := r.Verify(); err != nil {
			t.Fatalf("tie %v: post-FullSolve verify: %v", tie, err)
		}
	}
}

// TestResolverAdoptsPrior checks the adopt-and-repair construction path:
// a stable prior is adopted without moves, an unstable one is repaired.
func TestResolverAdoptsPrior(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	b := graph.MustBipartite(graph.RandomBipartite(50, 10, 3, rng), 50)
	fb := graph.NewCSRBipartiteFromBipartite(b)
	res, err := SolveSharded(fb, ShardedOptions{CheckInvariants: true})
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewResolver(fb, res.ServerOf, ResolverOptions{SelfCheck: true})
	if err != nil {
		t.Fatalf("stable prior rejected: %v", err)
	}
	if moves := r.Stats().Moves; moves != 0 {
		t.Fatalf("stable prior caused %d repair moves", moves)
	}
	r.Close()

	// Pile everyone onto each customer's first port: valid but (almost
	// surely) unstable. The resolver must repair it to stability.
	worst := make([]int32, fb.NumLeft)
	for c := 0; c < fb.NumLeft; c++ {
		worst[c] = fb.C.Col[fb.C.Row[c]] - int32(fb.NumLeft)
	}
	r2, err := NewResolver(fb, worst, ResolverOptions{SelfCheck: true})
	if err != nil {
		t.Fatalf("unstable prior: %v", err)
	}
	defer r2.Close()
	if err := r2.Verify(); err != nil {
		t.Fatalf("repair of unstable prior: %v", err)
	}

	// Shape and range errors are rejected.
	if _, err := NewResolver(fb, make([]int32, 3), ResolverOptions{}); err == nil {
		t.Fatal("short prior accepted")
	}
	bad := make([]int32, fb.NumLeft)
	bad[0] = int32(fb.NumServers())
	if _, err := NewResolver(fb, bad, ResolverOptions{}); err == nil {
		t.Fatal("out-of-range prior accepted")
	}
}

// TestResolverErrors pins the guarded error paths: dead ids, last-edge
// removal, draining a sole provider.
func TestResolverErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	b := graph.MustBipartite(graph.RandomBipartiteRegular(8, 4, 2, 4, rng), 8)
	fb := graph.NewCSRBipartiteFromBipartite(b)
	r, err := NewResolver(fb, nil, ResolverOptions{SelfCheck: true})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := r.RemoveCustomer(99); err == nil {
		t.Fatal("removing a dead customer id succeeded")
	}
	if err := r.DrainServer(99); err == nil {
		t.Fatal("draining a dead server id succeeded")
	}
	if _, err := r.AddCustomer(nil); err == nil {
		t.Fatal("customer with no ports accepted")
	}
	s, err := r.AddServer()
	if err != nil {
		t.Fatal(err)
	}
	c, err := r.AddCustomer([]int32{int32(s)})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.RemoveEdge(c, s); err == nil {
		t.Fatal("removing a customer's last edge succeeded")
	}
	if err := r.DrainServer(s); err == nil {
		t.Fatal("draining a sole provider succeeded")
	}
	if err := r.RemoveCustomer(c); err != nil {
		t.Fatal(err)
	}
	if err := r.DrainServer(s); err != nil {
		t.Fatalf("draining the now-empty server: %v", err)
	}
}

// TestResolverSteadyStateAllocs pins the serving-path guarantee: on a
// warmed resolver, delta application allocates nothing.
func TestResolverSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	b := graph.MustBipartite(graph.RandomBipartite(200, 40, 3, rng), 200)
	fb := graph.NewCSRBipartiteFromBipartite(b)
	r, err := NewResolver(fb, nil, ResolverOptions{Tie: core.TieRandom, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	ports := []int32{0, 7, 21}
	churn := func() {
		c, err := r.AddCustomer(ports)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.AddEdge(c, 33); err != nil {
			t.Fatal(err)
		}
		if err := r.RemoveEdge(c, 7); err != nil {
			t.Fatal(err)
		}
		if err := r.RemoveCustomer(c); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 50; i++ { // warm arenas, queue, and free lists
		churn()
	}
	if avg := testing.AllocsPerRun(100, churn); avg != 0 {
		t.Fatalf("steady-state delta churn allocates %v per cycle", avg)
	}
}

// TestResolverFullSolveZeroAllocWarmed pins the Resolver's one reuse
// handle: once from-scratch solves have warmed its solve scratch (engine
// session, hypergame workspace, and result storage) and its CSR builder,
// a repeat FullSolve allocates nothing, under both tie rules.
func TestResolverFullSolveZeroAllocWarmed(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	b := graph.MustBipartite(graph.RandomBipartite(200, 40, 3, rng), 200)
	fb := graph.NewCSRBipartiteFromBipartite(b)
	for _, tie := range []core.TieBreak{core.TieFirstPort, core.TieRandom} {
		r, err := NewResolver(fb, nil, ResolverOptions{Tie: tie, Seed: 9, Shards: 2})
		if err != nil {
			t.Fatal(err)
		}
		full := func() {
			if err := r.FullSolve(); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 10; i++ { // warm: every FullSolve draws a fresh seed
			full()
		}
		if avg := testing.AllocsPerRun(5, full); avg != 0 {
			t.Errorf("tie=%v: warmed FullSolve allocates %v objects per solve; want 0", tie, avg)
		}
		r.Close()
	}
}

// TestSingleDeltaSpeedup pins the acceptance criterion of the
// incremental layer: under a churning workload on a network of 10^5
// customers, a single-customer delta re-solves at least 10× faster than
// a from-scratch SolveSharded of the same mutated network. The real
// margin is orders of magnitude (microseconds against milliseconds);
// the 10× floor keeps the assertion robust on loaded runners.
func TestSingleDeltaSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("times a 10^5-customer workload")
	}
	nl, nr, cdeg := 100_000, 25_000, 3
	rng := rand.New(rand.NewSource(11))
	b := graph.MustBipartite(graph.RandomBipartite(nl, nr, cdeg, rng), nl)
	fb := graph.NewCSRBipartiteFromBipartite(b)
	r, err := NewResolver(fb, nil, ResolverOptions{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	ports := make([]int32, cdeg)
	draw := func() {
		for k := range ports {
		redraw:
			ports[k] = int32(rng.Intn(nr))
			for _, prev := range ports[:k] {
				if prev == ports[k] {
					goto redraw
				}
			}
		}
	}
	// Reach churn steady state first: a window of arrivals and
	// departures leaves the resolver's grow-only buffers warm and its
	// assignment shaped by past repairs, which is the serving regime the
	// criterion describes.
	recent := make([]int32, 0, 256)
	for i := 0; i < 2000; i++ {
		if len(recent) == cap(recent) {
			c := recent[0]
			recent = recent[:copy(recent, recent[1:])]
			if err := r.RemoveCustomer(int(c)); err != nil {
				t.Fatal(err)
			}
			continue
		}
		draw()
		c, err := r.AddCustomer(ports)
		if err != nil {
			t.Fatal(err)
		}
		recent = append(recent, int32(c))
	}

	const deltas = 2000
	t0 := time.Now()
	for i := 0; i < deltas/2; i++ {
		draw()
		c, err := r.AddCustomer(ports)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.RemoveCustomer(c); err != nil {
			t.Fatal(err)
		}
	}
	perDelta := time.Since(t0) / deltas
	if perDelta <= 0 {
		perDelta = 1
	}

	// The from-scratch comparison point: SolveSharded on the compacted
	// mutated network, best of two so a one-off pause cannot flatter the
	// incremental side. Construction cost is excluded — the comparison
	// is solve against solve.
	var bld graph.CSRBuilder
	bld.Reset(0)
	var oc graph.OverlayCSR
	r.Overlay().BuildCSR(&bld, &oc)
	ofb := oc.Bipartite()
	var full time.Duration
	for rep := 0; rep < 2; rep++ {
		t1 := time.Now()
		res, err := SolveSharded(ofb, ShardedOptions{Seed: 9})
		d := time.Since(t1)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Stable() {
			t.Fatal("from-scratch solve unstable")
		}
		if rep == 0 || d < full {
			full = d
		}
	}
	ratio := float64(full) / float64(perDelta)
	t.Logf("per-delta %v, from-scratch %v, speedup %.0f×", perDelta, full, ratio)
	if ratio < 10 {
		t.Fatalf("single-customer delta only %.1f× faster than from-scratch solve (want ≥10×): delta %v, full %v",
			ratio, perDelta, full)
	}
}
