package assign

// Incremental re-solve: a Resolver keeps a live network (as a mutable
// graph.BipartiteOverlay) together with a stable assignment on it, and
// repairs the assignment after every mutation instead of re-solving from
// scratch. The repair rule is the natural local one — while any assigned
// customer has badness at least 2, reassign it to a least-loaded adjacent
// server — and it provably terminates in a stable state from any
// starting assignment: a move from a level-a server to a level-b server
// with a−b ≥ 2 changes the semi-matching potential Φ = Σ_s f(load(s)),
// f(x) = x(x+1)/2, by (b+1)−a ≤ −1, so Φ strictly decreases with every
// move and the cascade stops. The dirty region the cascade explores is
// discovered, not declared: whenever a server's load changes, every
// customer incident to it is enqueued for re-examination (that set
// covers both the customers whose own server got heavier and those whose
// cheapest alternative got lighter), and the queue drains to empty
// before a delta operation returns.
//
// The Resolver is oracle-equivalent to the batch solver, not lockstep:
// after any delta sequence its state satisfies the same stability
// predicate SolveSharded's output does on the same (mutated) network,
// but the particular stable assignment — and any move log — may differ.
// Tests verify it with the oracle check (assignment valid, loads
// consistent, badness at most 1), never by comparing assignments.
//
// Steady state allocates nothing: the pending queue, its membership
// bitmap, and the per-customer RNG streams are grow-only and bounded by
// the overlay's id space, which LIFO id recycling bounds by the peak
// live count.

import (
	"fmt"
	"math"

	"tokendrop/internal/core"
	"tokendrop/internal/fault"
	"tokendrop/internal/graph"
)

// ResolverOptions configures a Resolver.
type ResolverOptions struct {
	// Tie selects the tie-breaking rule for repair moves and initial
	// placements: TieFirstPort prefers the smallest server id among the
	// least-loaded adjacent servers (the flat engine's rule), TieRandom
	// draws from a per-customer splitmix64 stream.
	Tie core.TieBreak
	// Seed drives the TieRandom streams and any from-scratch fallback
	// solves.
	Seed int64
	// Shards is the worker count of the persistent engine session the
	// Resolver starts on its first from-scratch solve; 0 means
	// runtime.GOMAXPROCS(0).
	Shards int
	// FragThreshold is passed to the overlay (0 means its 0.5 default).
	FragThreshold float64
	// SelfCheck runs Verify after every delta operation and turns a
	// failure into the operation's error. Linear per delta — tests keep
	// it on, serving paths leave it off.
	SelfCheck bool
	// Fault wires a failpoint registry into the Resolver: the repair
	// cascade visits FaultSiteRepair once per move, and an injected
	// error or crash aborts the delta and rolls the Resolver back to
	// the prior consistent assignment (see journal.go). Nil means no
	// failpoints and no journaling overhead.
	Fault *fault.Registry
}

// ResolverStats counts what a Resolver has done since creation.
type ResolverStats struct {
	// Deltas counts completed mutation operations.
	Deltas int
	// Moves counts repair reassignments (each strictly decreased Φ).
	Moves int
	// FullSolves counts from-scratch fallback solves.
	FullSolves int
	// Customers, Servers, and Edges are the live counts.
	Customers, Servers, Edges int
	// Compactions is the overlay's arena-compaction count.
	Compactions int
	// Rollbacks counts deltas aborted by an injected fault and rolled
	// back to the prior consistent assignment.
	Rollbacks int
}

// Resolver maintains a stable assignment on a mutable bipartite network
// under customer, server, and edge churn. Not safe for concurrent use;
// serving layers wrap it in a mutex.
type Resolver struct {
	ov       *graph.BipartiteOverlay
	serverOf []int32 // by overlay customer id; -1 when dead or unassigned
	load     []int32 // by overlay server id; stale entries for dead ids

	tie     core.TieBreak
	seed    int64
	custRng []uint64 // TieRandom streams, by overlay customer id
	seq     uint64   // stream-creation counter (decorrelates recycled ids)

	pending   []int32 // repair stack; empty between operations
	inPending []bool  // stack membership, by overlay customer id
	scratch   []int32 // DrainServer's incidence snapshot

	selfCheck  bool
	stats      ResolverStats
	verifyLoad []int32 // Verify's recount buffer

	failRepair *fault.Site // FaultSiteRepair; nil without a registry
	jr         journal     // per-delta undo log; disarmed without a registry

	// The persistent from-scratch machinery: one warmed solve scratch
	// (engine session, workspace, and result storage) and builder serve
	// every FullSolve and oracle rebuild. The session starts on the
	// first FullSolve, so a Resolver built from a prior parks no workers.
	shards  int
	sc      SolveScratch
	builder *graph.CSRBuilder
	oc      graph.OverlayCSR
}

// NewResolver returns a Resolver over the network fb (nil means start
// empty). When prior is non-nil it must have one entry per customer —
// an adjacent server index, or -1 for customers the Resolver should
// place itself; the Resolver adopts it and repairs it to stability,
// which costs nothing when the prior is already stable. When prior is
// nil and fb has customers, a from-scratch SolveSharded produces the
// initial assignment. Close releases the engine session, if a solve
// started one.
func NewResolver(fb *graph.CSRBipartite, prior []int32, opt ResolverOptions) (*Resolver, error) {
	if prior != nil {
		nl := 0
		if fb != nil {
			nl = fb.NumLeft
		}
		if len(prior) != nl {
			return nil, fmt.Errorf("assign: prior assignment has %d entries for %d customers", len(prior), nl)
		}
	}
	return NewResolverFromOverlay(graph.NewBipartiteOverlay(fb), prior, opt)
}

// NewResolverFromOverlay returns a Resolver adopting ov — the restore
// path of the snapshot format, where overlay ids must survive a
// round-trip. The Resolver takes ownership of ov. prior, when non-nil,
// is indexed by overlay customer id (length at least ov.CustomerIDs());
// live customers with prior -1 are placed greedily, and the whole
// adopted state is repaired to stability. When prior is nil and ov has
// customers, a from-scratch solve on the compacted graph initializes
// the assignment.
func NewResolverFromOverlay(ov *graph.BipartiteOverlay, prior []int32, opt ResolverOptions) (*Resolver, error) {
	r := &Resolver{
		ov:      ov,
		tie:     opt.Tie,
		seed:    opt.Seed,
		shards:  opt.Shards,
		builder: graph.NewCSRBuilder(0, 0),
	}
	if opt.FragThreshold != 0 {
		r.ov.FragThreshold = opt.FragThreshold
	}
	r.selfCheck = opt.SelfCheck
	if opt.Fault != nil {
		r.failRepair = opt.Fault.Site(FaultSiteRepair)
	}
	r.growCustomers()
	r.growServers()
	for c := range r.serverOf {
		r.serverOf[c] = -1
		if r.ov.CustomerLive(c) {
			r.seedRng(c)
		}
	}
	if prior != nil {
		if len(prior) < r.ov.CustomerIDs() {
			r.Close()
			return nil, fmt.Errorf("assign: prior assignment covers %d of %d overlay customer ids",
				len(prior), r.ov.CustomerIDs())
		}
		for c := range r.serverOf {
			if !r.ov.CustomerLive(c) {
				continue
			}
			s := prior[c]
			if s < 0 {
				continue
			}
			if !r.ov.ServerLive(int(s)) {
				r.Close()
				return nil, fmt.Errorf("assign: prior assigns customer %d to dead server %d", c, s)
			}
			r.serverOf[c] = s
			r.load[s]++
		}
		// Adopt-and-repair: place the unassigned, enqueue everything
		// once; stable priors cost one scan, unstable ones are repaired.
		for c := range r.serverOf {
			if !r.ov.CustomerLive(c) {
				continue
			}
			if r.serverOf[c] < 0 {
				if len(r.ov.Adj(c)) == 0 {
					r.Close()
					return nil, fmt.Errorf("assign: customer %d has no adjacent server to place on", c)
				}
				best, _ := r.pickServer(int32(c))
				r.serverOf[c] = best
				r.load[best]++
			}
			r.push(int32(c))
		}
		// Construction-time repair faults fail construction outright —
		// there is no prior consistent state to roll back to.
		if err := r.repair(); err != nil {
			r.Close()
			return nil, fmt.Errorf("assign: resolver construction: %w", err)
		}
	} else if r.ov.NumCustomers() > 0 {
		if err := r.FullSolve(); err != nil {
			r.Close()
			return nil, err
		}
	}
	if err := r.Verify(); err != nil {
		r.Close()
		return nil, fmt.Errorf("assign: resolver construction: %w", err)
	}
	// Arm the undo journal only now: delta operations roll back to the
	// consistent state that construction just verified.
	r.jr.armed = opt.Fault != nil
	return r, nil
}

// Close releases the Resolver's engine session, if a solve started one.
func (r *Resolver) Close() { r.sc.Close() }

// Overlay returns the live network. Callers must not mutate it directly
// — assignments would drift; use the Resolver's delta operations.
func (r *Resolver) Overlay() *graph.BipartiteOverlay { return r.ov }

// ServerOf returns the server id customer c is assigned to (-1 when c
// is not a live customer).
func (r *Resolver) ServerOf(c int) int {
	if !r.ov.CustomerLive(c) {
		return -1
	}
	return int(r.serverOf[c])
}

// Load returns server s's load (0 when s is not a live server).
func (r *Resolver) Load(s int) int {
	if !r.ov.ServerLive(s) {
		return 0
	}
	return int(r.load[s])
}

// Stats returns the operation counters with the live counts filled in.
func (r *Resolver) Stats() ResolverStats {
	st := r.stats
	st.Customers = r.ov.NumCustomers()
	st.Servers = r.ov.NumServers()
	st.Edges = r.ov.NumEdges()
	st.Compactions = r.ov.Compactions()
	return st
}

// growCustomers resizes the customer-indexed arrays to the overlay's id
// space, preserving existing entries (append-based, unlike reuse.Grown).
func (r *Resolver) growCustomers() {
	n := r.ov.CustomerIDs()
	for len(r.serverOf) < n {
		r.serverOf = append(r.serverOf, -1)
	}
	for len(r.custRng) < n {
		r.custRng = append(r.custRng, 0)
	}
	for len(r.inPending) < n {
		r.inPending = append(r.inPending, false)
	}
}

// growServers resizes the server-indexed load array likewise.
func (r *Resolver) growServers() {
	n := r.ov.ServerIDs()
	for len(r.load) < n {
		r.load = append(r.load, 0)
	}
}

// seedRng starts a fresh TieRandom stream for customer id c. The
// creation counter keeps a recycled id's stream decorrelated from its
// previous life's.
func (r *Resolver) seedRng(c int) {
	r.recordRng(int32(c))
	r.seq++
	r.custRng[c] = core.SplitMix64(uint64(r.seed) ^ uint64(c)*0x9e3779b97f4a7c15 ^ r.seq*0x94d049bb133111eb)
}

// push enqueues customer c for repair unless it is already pending.
func (r *Resolver) push(c int32) {
	if !r.inPending[c] {
		r.inPending[c] = true
		r.pending = append(r.pending, c)
	}
}

// dirtyServer enqueues every customer incident to server s — the
// discovery rule: a load change at s can only create badness at
// customers that can see s.
func (r *Resolver) dirtyServer(s int) {
	for _, c := range r.ov.Incident(s) {
		r.push(c)
	}
}

// pickServer returns the least-loaded server adjacent to customer c
// under the tie rule, and its load. The caller guarantees c is live
// with at least one port.
func (r *Resolver) pickServer(c int32) (best, bestLoad int32) {
	var rng *uint64
	if r.tie == core.TieRandom {
		r.recordRng(c)
		rng = &r.custRng[c]
	}
	return leastLoaded(r.ov.Adj(int(c)), 0, r.load, math.MaxInt32, rng)
}

// repair drains the pending stack: any popped customer whose badness is
// at least 2 moves to a least-loaded adjacent server, dirtying both
// endpoints' incidences. Φ = Σ f(load) strictly decreases per move, so
// the drain terminates with every live customer at badness ≤ 1.
//
// The FaultSiteRepair failpoint is visited once per move, after the
// move is chosen and before it is applied — so visit counts equal
// repair moves, and an injected error leaves the chosen move unapplied
// for the caller to roll back. A stall just delays the cascade.
func (r *Resolver) repair() error {
	for n := len(r.pending); n > 0; n = len(r.pending) {
		c := r.pending[n-1]
		r.pending = r.pending[:n-1]
		r.inPending[c] = false
		so := r.serverOf[c]
		if so < 0 {
			continue // removed while pending (queues drain before ids recycle)
		}
		best, bestLoad := r.pickServer(c)
		if r.load[so]-bestLoad < 2 {
			continue
		}
		if err := r.failRepair.Err(); err != nil {
			return err
		}
		r.setServer(c, best)
		r.stats.Moves++
		r.dirtyServer(int(so))
		r.dirtyServer(int(best))
	}
	return nil
}

// finish runs the post-delta bookkeeping shared by every mutation.
func (r *Resolver) finish() error {
	r.stats.Deltas++
	if r.selfCheck {
		if err := r.Verify(); err != nil {
			return fmt.Errorf("assign: resolver self-check: %w", err)
		}
	}
	return nil
}

// AddCustomer inserts a customer adjacent to the given live server ids
// (ports left to right), assigns it to a least-loaded one, repairs, and
// returns the new customer's id.
func (r *Resolver) AddCustomer(servers []int32) (int, error) {
	r.begin()
	c, err := r.ov.AddCustomer(servers)
	if err != nil {
		return -1, err
	}
	r.recordOp(jAddCustomer, int32(c), -1, -1)
	r.growCustomers()
	r.seedRng(c)
	best, _ := r.pickServer(int32(c))
	r.setServer(int32(c), best)
	r.dirtyServer(int(best))
	if err := r.repair(); err != nil {
		return -1, r.rollback(err)
	}
	return c, r.finish()
}

// RemoveCustomer deletes customer c, releases its assignment, and
// repairs the hole its departure opened.
func (r *Resolver) RemoveCustomer(c int) error {
	if !r.ov.CustomerLive(c) {
		return fmt.Errorf("assign: resolver customer %d is not live", c)
	}
	r.begin()
	from := r.serverOf[c]
	r.recordOp(jRemoveCustomer, int32(c), -1, -1) // copies Adj(c); must precede the removal
	if err := r.ov.RemoveCustomer(c); err != nil {
		return err
	}
	r.setServer(int32(c), -1)
	r.dirtyServer(int(from))
	if err := r.repair(); err != nil {
		return r.rollback(err)
	}
	return r.finish()
}

// AddServer inserts an isolated server and returns its id. No repair
// runs — an edgeless server is invisible to every customer.
func (r *Resolver) AddServer() (int, error) {
	s := r.ov.AddServer()
	r.growServers()
	r.load[s] = 0
	return s, r.finish()
}

// AddEdge connects customer c to server s (appended as c's last port)
// and repairs — the new option can make c's current server look 2 worse.
func (r *Resolver) AddEdge(c, s int) error {
	r.begin()
	if err := r.ov.AddEdge(c, s); err != nil {
		return err
	}
	r.recordOp(jAddEdge, int32(c), int32(s), -1)
	r.push(int32(c))
	if err := r.repair(); err != nil {
		return r.rollback(err)
	}
	return r.finish()
}

// RemoveEdge disconnects customer c from server s. Removing c's last
// edge is an error (remove the customer instead); when c was assigned
// to s it is reassigned and the cascade repairs the rest. Removing a
// non-assigned edge needs no repair: shrinking an adjacency can only
// lower the customer's badness, and no load changes.
func (r *Resolver) RemoveEdge(c, s int) error {
	if r.ov.CustomerLive(c) && len(r.ov.Adj(c)) == 1 {
		return fmt.Errorf("assign: resolver cannot remove customer %d's last edge", c)
	}
	r.begin()
	from := int32(-1)
	port := int32(-1)
	if r.ov.CustomerLive(c) {
		from = r.serverOf[c]
		if r.jr.armed {
			for i, t := range r.ov.Adj(c) {
				if int(t) == s {
					port = int32(i)
					break
				}
			}
		}
	}
	if err := r.ov.RemoveEdge(c, s); err != nil {
		return err
	}
	r.recordOp(jRemoveEdge, int32(c), int32(s), port)
	if int(from) == s {
		best, _ := r.pickServer(int32(c))
		r.setServer(int32(c), best)
		r.dirtyServer(s)
		r.dirtyServer(int(best))
		if err := r.repair(); err != nil {
			return r.rollback(err)
		}
	}
	return r.finish()
}

// DrainServer removes server s entirely: every incident edge is
// deleted, customers assigned to s are reassigned, and the cascade
// repairs the displaced load. Errors without mutating when any incident
// customer has s as its only port (those customers must be removed or
// re-homed first).
func (r *Resolver) DrainServer(s int) error {
	if !r.ov.ServerLive(s) {
		return fmt.Errorf("assign: resolver server %d is not live", s)
	}
	inc := r.ov.Incident(s)
	for _, c := range inc {
		if len(r.ov.Adj(int(c))) < 2 {
			return fmt.Errorf("assign: resolver cannot drain server %d: customer %d has no other port", s, c)
		}
	}
	r.begin()
	r.scratch = append(r.scratch[:0], inc...) // inc aliases the arena
	for _, c := range r.scratch {
		port := int32(-1)
		if r.jr.armed {
			for i, t := range r.ov.Adj(int(c)) {
				if int(t) == s {
					port = int32(i)
					break
				}
			}
		}
		if err := r.ov.RemoveEdge(int(c), s); err != nil {
			return r.abort(err)
		}
		r.recordOp(jRemoveEdge, c, int32(s), port)
	}
	if err := r.ov.RemoveServer(s); err != nil {
		return r.abort(err)
	}
	r.recordOp(jRemoveServer, int32(s), -1, -1)
	for _, c := range r.scratch {
		if r.serverOf[c] != int32(s) {
			continue
		}
		best, _ := r.pickServer(c)
		r.setServer(c, best)
		r.dirtyServer(int(best))
	}
	if err := r.repair(); err != nil {
		return r.rollback(err)
	}
	return r.finish()
}

// FullSolve discards the current assignment and re-solves the live
// network from scratch on the Resolver's persistent scratch, replacing
// the assignment with the batch solver's. The entry point for callers
// that suspect drift, and the oracle the equivalence tests compare
// against.
func (r *Resolver) FullSolve() error {
	r.ov.BuildCSR(r.builder, &r.oc)
	res, err := SolveSharded(r.oc.Bipartite(), ShardedOptions{
		Tie:     r.tie,
		Seed:    r.seed + int64(r.stats.FullSolves)*1_000_003,
		Shards:  r.shards,
		Scratch: &r.sc,
	})
	if err != nil {
		return fmt.Errorf("assign: resolver full solve: %w", err)
	}
	for c := range r.serverOf {
		r.serverOf[c] = -1
	}
	for s := range r.load {
		r.load[s] = 0
	}
	for d, so := range res.ServerOf {
		s := r.oc.ServID[so]
		r.serverOf[r.oc.CustID[d]] = s
		r.load[s]++
	}
	r.stats.FullSolves++
	return nil
}

// Verify oracle-checks the Resolver's state: the pending queue is
// empty, dead customers hold no assignment, every live customer is
// assigned to an adjacent live server, cached loads match a recount,
// and every live customer's badness is at most 1 — the same stability
// predicate a from-scratch solve's result satisfies.
func (r *Resolver) Verify() error {
	if len(r.pending) > 0 {
		return fmt.Errorf("resolver left %d customers pending", len(r.pending))
	}
	for len(r.verifyLoad) < r.ov.ServerIDs() {
		r.verifyLoad = append(r.verifyLoad, 0)
	}
	clear(r.verifyLoad)
	for c := 0; c < r.ov.CustomerIDs(); c++ {
		so := r.serverOf[c]
		if !r.ov.CustomerLive(c) {
			if so >= 0 {
				return fmt.Errorf("dead customer %d still assigned to %d", c, so)
			}
			continue
		}
		if so < 0 {
			return fmt.Errorf("live customer %d unassigned", c)
		}
		if !r.ov.ServerLive(int(so)) {
			return fmt.Errorf("customer %d assigned to dead server %d", c, so)
		}
		found := false
		for _, s := range r.ov.Adj(c) {
			if s == so {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("customer %d assigned to non-adjacent server %d", c, so)
		}
		r.verifyLoad[so]++
	}
	for s := 0; s < r.ov.ServerIDs(); s++ {
		if !r.ov.ServerLive(s) {
			continue
		}
		if r.verifyLoad[s] != r.load[s] {
			return fmt.Errorf("load of server %d drifted: recomputed %d, cached %d", s, r.verifyLoad[s], r.load[s])
		}
	}
	for c := 0; c < r.ov.CustomerIDs(); c++ {
		if !r.ov.CustomerLive(c) {
			continue
		}
		min := int32(-1)
		for _, s := range r.ov.Adj(c) {
			if l := r.load[s]; min < 0 || l < min {
				min = l
			}
		}
		if b := r.load[r.serverOf[c]] - min; b > 1 {
			return fmt.Errorf("customer %d has badness %d", c, b)
		}
	}
	return nil
}
