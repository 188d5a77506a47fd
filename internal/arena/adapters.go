package arena

import (
	"fmt"

	"tokendrop/internal/assign"
	"tokendrop/internal/baseline"
	"tokendrop/internal/core"
	"tokendrop/internal/graph"
	"tokendrop/internal/reuse"
)

// The paper-engine entries: the sharded batch solver, the incremental
// Resolver replaying churn traces, and the selfish best-response dynamic
// on the seed object engine. These report engine-exact rounds and
// messages (the Resolver's sequential repair is modeled, see its doc)
// and reuse warmed engine state across Assign calls, which is what the
// arena's zero-allocation pins hold them to.

// TokenDropping runs assign.SolveSharded — the paper's token-dropping
// assignment layer on the flat engine. The adapter keeps one warmed
// solve scratch (engine session, workspace, and result storage), so
// repeat Assign calls on a same-shape workload allocate nothing; Close
// releases the session.
type TokenDropping struct {
	// Shards is the engine session's worker count; 0 means GOMAXPROCS.
	Shards int
	// Tie selects the engine's tie rule; default core.TieRandom (seeded
	// per Assign call, so fixed seeds reproduce runs exactly).
	Tie core.TieBreak

	sc  assign.SolveScratch
	res Result
}

func (t *TokenDropping) Name() string { return "token-dropping" }

// Close releases the warmed engine session.
func (t *TokenDropping) Close() { t.sc.Close() }

func (t *TokenDropping) Assign(w *Workload, seed int64) (*Result, error) {
	sr, err := assign.SolveSharded(w.FB, assign.ShardedOptions{
		Tie: t.Tie, Seed: seed, Shards: t.Shards, Scratch: &t.sc,
	})
	if err != nil {
		return nil, err
	}
	res := &t.res
	res.ServerOf = reuse.Grown(res.ServerOf, len(sr.ServerOf))
	copy(res.ServerOf, sr.ServerOf)
	res.Load = reuse.Grown(res.Load, len(sr.Load))
	copy(res.Load, sr.Load)
	res.Rounds = sr.Rounds
	res.Steps = int64(sr.Phases)
	res.Messages = sr.Messages
	return res, nil
}

// ResolverStrategy replays a churn workload's trace through the
// incremental engine (assign.Resolver): every add and remove is repaired
// in place instead of re-solving the final network from scratch. It only
// enters churn workloads — one-shot families have no trace to replay.
//
// Rounds reports the event count, Steps the repair moves, and Messages
// the modeled cost of the repair cascade: one probe per port of every
// re-examined customer plus the claim+ack pair per move. Close releases
// the resolver's engine session.
type ResolverStrategy struct {
	// Shards is the resolver's engine session worker count.
	Shards int

	res Result
}

func (r *ResolverStrategy) Name() string { return "resolver" }

func (r *ResolverStrategy) Assign(w *Workload, seed int64) (*Result, error) {
	if w.Trace == nil || w.Dense == nil {
		return nil, fmt.Errorf("arena: resolver needs a churn trace, workload %s has none", w.Name)
	}
	rv, err := assign.NewResolver(emptyNetwork(w.Trace.Servers), nil, assign.ResolverOptions{
		Tie: core.TieRandom, Seed: seed, Shards: r.Shards,
	})
	if err != nil {
		return nil, err
	}
	defer rv.Close()
	if err := ReplayInto(rv, w.Trace.Events); err != nil {
		return nil, err
	}
	return r.report(rv, w)
}

// ReplayInto applies trace events to a live resolver. Factored out so
// the steady-state churn segment can be measured (and alloc-pinned) on a
// warmed resolver without paying construction.
func ReplayInto(rv *assign.Resolver, events []TraceEvent) error {
	for i := range events {
		ev := &events[i]
		var err error
		switch ev.Op {
		case OpAddCustomer:
			_, err = rv.AddCustomer(ev.Servers)
		case OpRemoveCustomer:
			err = rv.RemoveCustomer(ev.Customer)
		case OpAddServer:
			_, err = rv.AddServer()
		default:
			err = fmt.Errorf("unknown op %q", ev.Op)
		}
		if err != nil {
			return fmt.Errorf("arena: event %d: %w", i, err)
		}
	}
	return nil
}

// report maps the resolver's overlay-id state into the workload's dense
// id space and fills the modeled accounting.
func (r *ResolverStrategy) report(rv *assign.Resolver, w *Workload) (*Result, error) {
	nl, ns := w.FB.NumCustomers(), w.FB.NumServers()
	res := &r.res
	res.ServerOf = reuse.Grown(res.ServerOf, nl)
	res.Load = reuse.Grown(res.Load, ns)
	for c := 0; c < nl; c++ {
		ovc := int(w.Dense.CustID[c])
		ovs := rv.ServerOf(ovc)
		if ovs < 0 {
			return nil, fmt.Errorf("arena: resolver left overlay customer %d unassigned", ovc)
		}
		res.ServerOf[c] = w.Dense.ServDense[ovs]
	}
	for s := 0; s < ns; s++ {
		res.Load[s] = int32(rv.Load(int(w.Dense.ServID[s])))
	}
	st := rv.Stats()
	res.Rounds = st.Deltas
	res.Steps = int64(st.Moves)
	// Modeled: each delta re-examines at least its own customer's ports
	// (probes), each move claims and acknowledges.
	res.Messages = int64(st.Deltas)*int64(avgPorts(w.FB)) + 2*int64(st.Moves)
	return res, nil
}

// avgPorts is the mean customer degree, rounded up.
func avgPorts(fb *graph.CSRBipartite) int {
	nl := fb.NumCustomers()
	if nl == 0 {
		return 0
	}
	arcs := int(fb.C.Row[nl])
	return (arcs + nl - 1) / nl
}

// Selfish runs internal/baseline's selfish best-response players on the
// seed object engine: uncoordinated customers switching to lighter
// adjacent servers until no one wants to move. Rounds and Messages are
// engine-exact.
type Selfish struct {
	// Workers is the engine's worker count; 0 means one goroutine per
	// node (the seed engine default).
	Workers int
	// MaxRounds bounds the dynamic; 0 means the baseline default.
	MaxRounds int
}

func (Selfish) Name() string { return "selfish" }

func (s Selfish) Assign(w *Workload, seed int64) (*Result, error) {
	br, err := baseline.SelfishAssign(w.FB.ToBipartite(), nil, seed, s.MaxRounds, s.Workers)
	if err != nil {
		return nil, err
	}
	return &Result{
		ServerOf: br.ServerOf,
		Load:     br.Load,
		Rounds:   br.Rounds,
		Steps:    int64(br.Moves),
		Messages: br.Messages,
	}, nil
}
