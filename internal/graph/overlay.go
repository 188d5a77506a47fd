package graph

import (
	"fmt"

	"tokendrop/internal/reuse"
)

// This file is the mutable graph layer of the online serving mode: a
// BipartiteOverlay absorbs customer/server/edge deltas without rebuilding
// the flat arrays, and compacts into a CSRBipartite (via
// CSRBuilder.Reset/BuildInto) only when asked — the incremental
// assignment runtime (internal/assign.Resolver) runs directly on the
// overlay, and the batch solvers and the snapshot format consume the
// compacted CSR.
//
// # Port-order rules
//
// The lockstep contract of ARCHITECTURE.md makes port numbering part of
// every protocol, so a mutable representation must pin it explicitly:
//
//   - A customer's port order is the insertion order of its edges:
//     ingesting a CSRBipartite preserves its arc order, AddCustomer
//     appends the given servers left to right, AddEdge appends at the
//     end, and RemoveEdge closes the gap without reordering (ports shift
//     left). First-port scans over a customer's adjacency are therefore
//     a deterministic function of the delta sequence.
//   - A server's incidence list is maintenance-ordered, not
//     port-ordered: removal swaps the last entry into the hole. It is a
//     reverse index for locality (which customers touch this server),
//     not a protocol surface; deterministic given the delta sequence,
//     but not stable under it.
//   - BuildCSR emits the live graph with dense ids assigned in ascending
//     overlay id order on both sides, inserting each live customer's
//     edges in its overlay port order. The compacted CSR's customer
//     ports therefore equal the overlay's, and its server ports follow
//     ascending-customer insertion order — the same rule the batch
//     assignment layer documents for its incidence networks.
//
// Identifiers are stable across mutations and compactions: an id is
// never reused while live, and freed ids are recycled LIFO by later
// inserts, so the id space stays bounded by the peak live count.

// segArena stores one variable-length int32 segment per identifier in a
// single backing array. Segments are allocated at the end of the arena;
// removing or outgrowing a segment leaks its words ("dead" words) until
// compactInto rewrites the live segments densely. Grow-only: the arena
// and its spare double-buffer are never released, so a warmed overlay
// mutates with zero heap allocations.
type segArena struct {
	off, length, capa []int32
	arena             []int32
	spare             []int32
	dead              int
}

// ensureID grows the per-id arrays to cover id.
func (a *segArena) ensureID(id int) {
	for len(a.off) <= id {
		a.off = append(a.off, 0)
		a.length = append(a.length, 0)
		a.capa = append(a.capa, 0)
	}
}

// seg returns the live segment of id (aliasing the arena; valid until
// the next mutation).
func (a *segArena) seg(id int) []int32 {
	o := a.off[id]
	return a.arena[o : o+a.length[id]]
}

// alloc places a fresh empty segment of the given capacity for id at the
// end of the arena, leaking any previous segment.
func (a *segArena) alloc(id, capacity int) {
	a.dead += int(a.capa[id])
	a.off[id] = int32(len(a.arena))
	a.length[id] = 0
	a.capa[id] = int32(capacity)
	for i := 0; i < capacity; i++ {
		a.arena = append(a.arena, 0)
	}
}

// push appends v to id's segment, relocating it with doubled capacity
// when full.
func (a *segArena) push(id int, v int32) {
	if a.length[id] == a.capa[id] {
		old := a.seg(id)
		newCap := int(a.capa[id]) * 2
		if newCap < 4 {
			newCap = 4
		}
		a.alloc(id, newCap)
		o := int(a.off[id])
		copy(a.arena[o:], old)
		a.length[id] = int32(len(old))
	}
	a.arena[int(a.off[id])+int(a.length[id])] = v
	a.length[id]++
}

// removeAt deletes position i of id's segment; ordered removal shifts
// the tail left (preserving port order), unordered swaps the last entry
// in. The freed slot stays in the segment's capacity.
func (a *segArena) removeAt(id, i int, ordered bool) {
	s := a.seg(id)
	if ordered {
		copy(s[i:], s[i+1:])
	} else {
		s[i] = s[len(s)-1]
	}
	a.length[id]--
}

// free drops id's segment entirely, leaking its words.
func (a *segArena) free(id int) {
	a.dead += int(a.capa[id])
	a.length[id] = 0
	a.capa[id] = 0
}

// compact rewrites the live segments densely into the spare buffer (in
// ascending id order, capacities trimmed to lengths) and swaps the
// buffers. Steady-state compactions allocate nothing once the spare has
// grown to the live size.
func (a *segArena) compact() {
	total := 0
	for id := range a.off {
		total += int(a.length[id])
	}
	if cap(a.spare) < total {
		a.spare = make([]int32, 0, total)
	}
	a.spare = a.spare[:0]
	for id := range a.off {
		s := a.seg(id)
		a.off[id] = int32(len(a.spare))
		a.capa[id] = a.length[id]
		a.spare = append(a.spare, s...)
	}
	a.arena, a.spare = a.spare, a.arena
	a.dead = 0
}

// words returns the arena's occupied size (live + dead words).
func (a *segArena) words() int { return len(a.arena) }

// BipartiteOverlay is a mutable customer/server network: the delta-
// absorbing counterpart of CSRBipartite. Customers, servers, and edges
// can be inserted and deleted in O(degree) without touching the rest of
// the graph; the structure compacts its internal arenas automatically
// when the leaked fraction crosses FragThreshold, and compacts into a
// flat CSRBipartite on demand with BuildCSR. See the file comment for
// the port-order rules that keep the lockstep contract intact.
//
// A warmed overlay (arenas grown to the workload's high-water mark)
// applies deltas with zero heap allocations. Not safe for concurrent
// use.
type BipartiteOverlay struct {
	cust segArena // per customer: adjacent server ids, port order
	serv segArena // per server: incident customer ids, maintenance order

	custLive, servLive []bool
	custFree, servFree []int32

	liveCust, liveServ int
	edges              int
	compactions        int

	// seen[s] == epoch marks server s as already named by the adjacency
	// list being checked, so the duplicate-port check is linear in the
	// list. Grow-only, like the arenas.
	seen  []uint32
	epoch uint32

	// FragThreshold is the leaked-word fraction of the internal arenas
	// that triggers an automatic arena compaction on the next mutation
	// (0 means the 0.5 default; set above 1 to disable). Compaction
	// rewrites the arenas densely in place — identifiers, port order,
	// and the incidence order of untouched servers are preserved.
	FragThreshold float64
}

// NewBipartiteOverlay returns an overlay seeded from fb (nil means an
// empty network). Vertex ids are preserved: customer c of fb keeps id c,
// server fb.NumLeft+s becomes server id s, and every customer's port
// order is fb's arc order.
func NewBipartiteOverlay(fb *CSRBipartite) *BipartiteOverlay {
	o := &BipartiteOverlay{}
	if fb == nil {
		return o
	}
	nl, ns := fb.NumLeft, fb.NumServers()
	csr := fb.C
	o.cust.ensureID(nl - 1)
	o.serv.ensureID(ns - 1)
	for c := 0; c < nl; c++ {
		o.custLive = append(o.custLive, true)
		lo, hi := csr.ArcRange(c)
		o.cust.alloc(c, hi-lo)
		for i := lo; i < hi; i++ {
			o.cust.push(c, csr.Col[i]-int32(nl))
		}
	}
	for s := 0; s < ns; s++ {
		o.servLive = append(o.servLive, true)
		o.serv.alloc(s, csr.Degree(nl+s))
	}
	for c := 0; c < nl; c++ {
		for _, s := range o.cust.seg(c) {
			o.serv.push(int(s), int32(c))
		}
	}
	o.liveCust, o.liveServ = nl, ns
	o.edges = csr.M()
	return o
}

// RestoreBipartiteOverlay rebuilds an overlay from its serialized live
// state — the inverse of walking the live ids, used by the encode
// package's "overlay" snapshot layer. custIDs lists the live customer
// ids ascending; customer custIDs[i]'s port-ordered adjacency is
// adjServ[adjPtr[i]:adjPtr[i+1]]. servIDs lists the live server ids
// ascending (isolated servers included). Identifiers are preserved
// exactly; dead ids below the maxima enter the free lists with the
// smallest id recycled first. Every adjacency entry must name a listed
// server and ports must not repeat; isolated live customers are
// permitted (the graph layer does not require solvability).
func RestoreBipartiteOverlay(custIDs, adjPtr, adjServ, servIDs []int32) (*BipartiteOverlay, error) {
	if len(adjPtr) == 0 && len(custIDs) == 0 {
		adjPtr = []int32{0}
	}
	if len(adjPtr) != len(custIDs)+1 {
		return nil, fmt.Errorf("graph: overlay restore has %d adjacency offsets for %d customers",
			len(adjPtr), len(custIDs))
	}
	if adjPtr[0] != 0 || int(adjPtr[len(adjPtr)-1]) != len(adjServ) {
		return nil, fmt.Errorf("graph: overlay restore adjacency offsets span [%d,%d] over %d entries",
			adjPtr[0], adjPtr[len(adjPtr)-1], len(adjServ))
	}
	o := &BipartiteOverlay{}

	nsIDs := 0
	if n := len(servIDs); n > 0 {
		nsIDs = int(servIDs[n-1]) + 1
	}
	o.servLive = make([]bool, nsIDs)
	prev := int32(-1)
	for _, s := range servIDs {
		if s <= prev {
			return nil, fmt.Errorf("graph: overlay restore server ids not ascending: %d after %d", s, prev)
		}
		prev = s
		o.servLive[s] = true
	}
	o.liveServ = len(servIDs)
	for s := nsIDs - 1; s >= 0; s-- {
		if !o.servLive[s] {
			o.servFree = append(o.servFree, int32(s))
		}
	}
	o.serv.ensureID(nsIDs - 1)

	ncIDs := 0
	if n := len(custIDs); n > 0 {
		ncIDs = int(custIDs[n-1]) + 1
	}
	o.custLive = make([]bool, ncIDs)
	prev = -1
	for _, c := range custIDs {
		if c <= prev {
			return nil, fmt.Errorf("graph: overlay restore customer ids not ascending: %d after %d", c, prev)
		}
		prev = c
		o.custLive[c] = true
	}
	o.liveCust = len(custIDs)
	for c := ncIDs - 1; c >= 0; c-- {
		if !o.custLive[c] {
			o.custFree = append(o.custFree, int32(c))
		}
	}
	o.cust.ensureID(ncIDs - 1)

	incCount := make([]int32, nsIDs)
	for i, c := range custIDs {
		lo, hi := adjPtr[i], adjPtr[i+1]
		if lo > hi {
			return nil, fmt.Errorf("graph: overlay restore adjacency offsets decrease at customer %d", c)
		}
		ep := o.nextEpoch()
		for _, s := range adjServ[lo:hi] {
			if int(s) >= nsIDs || s < 0 || !o.servLive[s] {
				return nil, fmt.Errorf("graph: overlay restore customer %d adjacent to unlisted server %d", c, s)
			}
			if o.seen[s] == ep {
				return nil, fmt.Errorf("graph: overlay restore customer %d repeats port to server %d", c, s)
			}
			o.seen[s] = ep
			incCount[s]++
		}
	}
	for _, s := range servIDs {
		o.serv.alloc(int(s), int(incCount[s]))
	}
	for i, c := range custIDs {
		adj := adjServ[adjPtr[i]:adjPtr[i+1]]
		o.cust.alloc(int(c), len(adj))
		for _, s := range adj {
			o.cust.push(int(c), s)
			o.serv.push(int(s), c)
		}
	}
	o.edges = len(adjServ)
	return o, nil
}

// NumCustomers returns the live customer count.
func (o *BipartiteOverlay) NumCustomers() int { return o.liveCust }

// NumServers returns the live server count.
func (o *BipartiteOverlay) NumServers() int { return o.liveServ }

// NumEdges returns the live edge count.
func (o *BipartiteOverlay) NumEdges() int { return o.edges }

// CustomerIDs returns the size of the customer id space (live ids are a
// subset of [0, CustomerIDs())).
func (o *BipartiteOverlay) CustomerIDs() int { return len(o.custLive) }

// ServerIDs returns the size of the server id space.
func (o *BipartiteOverlay) ServerIDs() int { return len(o.servLive) }

// CustomerLive reports whether customer id c is live.
func (o *BipartiteOverlay) CustomerLive(c int) bool {
	return c >= 0 && c < len(o.custLive) && o.custLive[c]
}

// ServerLive reports whether server id s is live.
func (o *BipartiteOverlay) ServerLive(s int) bool {
	return s >= 0 && s < len(o.servLive) && o.servLive[s]
}

// Adj returns customer c's adjacent server ids in port order. The slice
// aliases the overlay and is valid only until the next mutation.
func (o *BipartiteOverlay) Adj(c int) []int32 { return o.cust.seg(c) }

// Incident returns the customer ids incident to server s, in maintenance
// order (not port order). The slice aliases the overlay and is valid
// only until the next mutation.
func (o *BipartiteOverlay) Incident(s int) []int32 { return o.serv.seg(s) }

// Compactions returns how many automatic or explicit arena compactions
// the overlay has performed.
func (o *BipartiteOverlay) Compactions() int { return o.compactions }

// Frag returns the leaked fraction of the internal arenas: dead words
// over occupied words (0 when empty).
func (o *BipartiteOverlay) Frag() float64 {
	words := o.cust.words() + o.serv.words()
	if words == 0 {
		return 0
	}
	return float64(o.cust.dead+o.serv.dead) / float64(words)
}

// CompactArenas rewrites both internal arenas densely, reclaiming every
// leaked word. Ids, port order, and incidence order are preserved.
// Called automatically when Frag crosses FragThreshold; explicit calls
// are useful before long idle periods.
func (o *BipartiteOverlay) CompactArenas() {
	o.cust.compact()
	o.serv.compact()
	o.compactions++
}

// maybeCompact applies the FragThreshold policy after a mutation that
// leaked arena words.
func (o *BipartiteOverlay) maybeCompact() {
	t := o.FragThreshold
	if t == 0 {
		t = 0.5
	}
	if dead := o.cust.dead + o.serv.dead; dead > 256 && float64(dead) > t*float64(o.cust.words()+o.serv.words()) {
		o.CompactArenas()
	}
}

// nextEpoch starts a duplicate-port check over the current server id
// space and returns its stamp.
func (o *BipartiteOverlay) nextEpoch() uint32 {
	if n := len(o.servLive); len(o.seen) < n {
		o.seen = append(o.seen, make([]uint32, n-len(o.seen))...)
	}
	o.epoch++
	if o.epoch == 0 { // wrapped: clear the stamps so none matches
		clear(o.seen)
		o.epoch = 1
	}
	return o.epoch
}

// AddCustomer inserts a customer adjacent to the given live servers
// (ports left to right) and returns its id — a recycled id when one is
// free, a fresh one otherwise.
func (o *BipartiteOverlay) AddCustomer(servers []int32) (int, error) {
	if len(servers) == 0 {
		return -1, fmt.Errorf("graph: overlay customer needs at least one adjacent server")
	}
	ep := o.nextEpoch()
	for _, s := range servers {
		if !o.ServerLive(int(s)) {
			return -1, fmt.Errorf("graph: overlay customer adjacency names dead server %d", s)
		}
		if o.seen[s] == ep {
			return -1, fmt.Errorf("graph: overlay customer adjacency repeats server %d", s)
		}
		o.seen[s] = ep
	}
	var c int
	if n := len(o.custFree); n > 0 {
		c = int(o.custFree[n-1])
		o.custFree = o.custFree[:n-1]
	} else {
		c = len(o.custLive)
		o.custLive = append(o.custLive, false)
		o.cust.ensureID(c)
	}
	o.custLive[c] = true
	o.liveCust++
	o.cust.alloc(c, len(servers))
	for _, s := range servers {
		o.cust.push(c, s)
		o.serv.push(int(s), int32(c))
	}
	o.edges += len(servers)
	o.maybeCompact()
	return c, nil
}

// RemoveCustomer deletes customer c and its edges; the id becomes
// recyclable.
func (o *BipartiteOverlay) RemoveCustomer(c int) error {
	if !o.CustomerLive(c) {
		return fmt.Errorf("graph: overlay customer %d is not live", c)
	}
	for _, s := range o.cust.seg(c) {
		o.dropIncident(int(s), int32(c))
	}
	o.edges -= int(o.cust.length[c])
	o.cust.free(c)
	o.custLive[c] = false
	o.liveCust--
	o.custFree = append(o.custFree, int32(c))
	o.maybeCompact()
	return nil
}

// AddServer inserts an isolated server and returns its id — recycled
// when one is free, fresh otherwise.
func (o *BipartiteOverlay) AddServer() int {
	var s int
	if n := len(o.servFree); n > 0 {
		s = int(o.servFree[n-1])
		o.servFree = o.servFree[:n-1]
	} else {
		s = len(o.servLive)
		o.servLive = append(o.servLive, false)
		o.serv.ensureID(s)
	}
	o.servLive[s] = true
	o.liveServ++
	o.serv.alloc(s, 0)
	return s
}

// RemoveServer deletes server s, which must have no incident customers
// (callers drain it first, via RemoveEdge or customer removal).
func (o *BipartiteOverlay) RemoveServer(s int) error {
	if !o.ServerLive(s) {
		return fmt.Errorf("graph: overlay server %d is not live", s)
	}
	if o.serv.length[s] != 0 {
		return fmt.Errorf("graph: overlay server %d still has %d incident customers", s, o.serv.length[s])
	}
	o.serv.free(s)
	o.servLive[s] = false
	o.liveServ--
	o.servFree = append(o.servFree, int32(s))
	o.maybeCompact()
	return nil
}

// AddEdge appends server s to customer c's ports (it must not already be
// adjacent).
func (o *BipartiteOverlay) AddEdge(c, s int) error {
	if !o.CustomerLive(c) {
		return fmt.Errorf("graph: overlay customer %d is not live", c)
	}
	if !o.ServerLive(s) {
		return fmt.Errorf("graph: overlay server %d is not live", s)
	}
	for _, t := range o.cust.seg(c) {
		if int(t) == s {
			return fmt.Errorf("graph: overlay edge {%d,%d} already present", c, s)
		}
	}
	o.cust.push(c, int32(s))
	o.serv.push(s, int32(c))
	o.edges++
	o.maybeCompact()
	return nil
}

// AddEdgeAt inserts server s as customer c's port at position at,
// shifting later ports right by one — the exact inverse of RemoveEdge
// for the customer's port order, which is the protocol surface. (The
// server's incidence list is maintenance-ordered, so s's side is a
// plain append.) This is the rollback primitive of the resolver's
// delta journal; use AddEdge for ordinary growth.
func (o *BipartiteOverlay) AddEdgeAt(c, s, at int) error {
	if !o.CustomerLive(c) {
		return fmt.Errorf("graph: overlay customer %d is not live", c)
	}
	if !o.ServerLive(s) {
		return fmt.Errorf("graph: overlay server %d is not live", s)
	}
	adj := o.cust.seg(c)
	if at < 0 || at > len(adj) {
		return fmt.Errorf("graph: overlay customer %d has %d ports, cannot insert at %d", c, len(adj), at)
	}
	for _, t := range adj {
		if int(t) == s {
			return fmt.Errorf("graph: overlay edge {%d,%d} already present", c, s)
		}
	}
	o.cust.push(c, int32(s))
	seg := o.cust.seg(c) // push may have relocated the segment
	copy(seg[at+1:], seg[at:len(seg)-1])
	seg[at] = int32(s)
	o.serv.push(s, int32(c))
	o.edges++
	o.maybeCompact()
	return nil
}

// RemoveEdge deletes the edge between customer c and server s, shifting
// c's later ports left by one.
func (o *BipartiteOverlay) RemoveEdge(c, s int) error {
	if !o.CustomerLive(c) {
		return fmt.Errorf("graph: overlay customer %d is not live", c)
	}
	adj := o.cust.seg(c)
	at := -1
	for i, t := range adj {
		if int(t) == s {
			at = i
			break
		}
	}
	if at < 0 {
		return fmt.Errorf("graph: overlay edge {%d,%d} not present", c, s)
	}
	o.cust.removeAt(c, at, true)
	o.dropIncident(s, int32(c))
	o.edges--
	o.maybeCompact()
	return nil
}

// dropIncident removes customer c from server s's incidence list
// (swap-remove; the list is maintenance-ordered).
func (o *BipartiteOverlay) dropIncident(s int, c int32) {
	inc := o.serv.seg(s)
	for i, t := range inc {
		if t == c {
			o.serv.removeAt(s, i, false)
			return
		}
	}
	panic(fmt.Sprintf("graph: overlay incidence of server %d lost customer %d", s, c))
}

// OverlayCSR is a compacted flat view of a BipartiteOverlay's live
// graph, with the id maps that connect dense CSR ids to stable overlay
// ids. Buffers are reused grow-only across BuildCSR calls.
type OverlayCSR struct {
	// C is the compacted graph; customers occupy dense ids
	// [0, NumLeft), servers the rest (ascending overlay id on both
	// sides; see the port-order rules in this file).
	C CSR
	// NumLeft is the live customer count (the bipartition split).
	NumLeft int
	// CustID maps dense customer ids to overlay customer ids; ServID
	// likewise for servers (dense id minus NumLeft).
	CustID, ServID []int32
	// CustDense maps overlay customer ids to dense ids (-1 when dead);
	// ServDense likewise for servers.
	CustDense, ServDense []int32

	bip CSRBipartite
}

// Bipartite returns the compacted graph as a CSRBipartite view (valid
// until the next BuildCSR into this OverlayCSR).
func (oc *OverlayCSR) Bipartite() *CSRBipartite {
	oc.bip = CSRBipartite{C: &oc.C, NumLeft: oc.NumLeft}
	return &oc.bip
}

// BuildCSR compacts the live overlay graph into out using b
// (CSRBuilder.Reset + BuildInto, so repeated compactions of same-sized
// or shrinking graphs allocate nothing once warmed). Every live customer
// must have at least one edge if the result is to be solvable; BuildCSR
// itself permits isolated customers and servers.
func (o *BipartiteOverlay) BuildCSR(b *CSRBuilder, out *OverlayCSR) {
	out.CustID = reuse.Grown(out.CustID, o.liveCust)
	out.ServID = reuse.Grown(out.ServID, o.liveServ)
	out.CustDense = reuse.Grown(out.CustDense, len(o.custLive))
	out.ServDense = reuse.Grown(out.ServDense, len(o.servLive))
	dc := 0
	for c := range o.custLive {
		if o.custLive[c] {
			out.CustID[dc] = int32(c)
			out.CustDense[c] = int32(dc)
			dc++
		} else {
			out.CustDense[c] = -1
		}
	}
	ds := 0
	for s := range o.servLive {
		if o.servLive[s] {
			out.ServID[ds] = int32(s)
			out.ServDense[s] = int32(ds)
			ds++
		} else {
			out.ServDense[s] = -1
		}
	}
	out.NumLeft = dc
	b.Reset(dc + ds)
	for d := 0; d < dc; d++ {
		c := int(out.CustID[d])
		for _, s := range o.cust.seg(c) {
			b.AddEdge(d, dc+int(out.ServDense[s]))
		}
	}
	b.BuildInto(&out.C)
}
