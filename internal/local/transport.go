package local

import (
	"fmt"
	"sort"

	"tokendrop/internal/graph"
)

// This file splits the round loop's communication behind the Transport
// interface (ROADMAP item 2(b)). The sharded engine's double-buffered,
// receiver-indexed byte-word layout is already a wire format: slot i of
// a buffer is the inbox slot of arc i's tail vertex, and the arcs of a
// contiguous vertex range occupy a contiguous slot range. A Session that
// owns only a slice of the global shard layout can therefore step its
// own vertices against its local buffer copy and then reconcile exactly
// the slots that cross the ownership boundary — one framed exchange per
// round in place of one barrier per round, which is what makes the
// paper's CONGEST-style communication charge measurable.
//
// Two transports exist:
//
//   - MemTransport: every shard lives in this process and the exchange
//     is the no-op it always was (the shared buffers ARE the network).
//     This is the default and is bit-identical — and allocation-
//     identical — to the pre-transport engine; the differential suites
//     and the AllocsPerRun == 0 pins run against it unchanged.
//   - ProcTransport (proctransport.go): the session owns one process's
//     shard group of a multi-process run and reconciles boundary slots
//     through length-prefixed frames over a pipe or socket to the
//     coordinator (internal/mp), which routes them star-wise between
//     the worker processes.
//
// Determinism is unchanged: a round still reads only the previous
// round's buffer and writes only sender-owned slots, so the result is
// independent of how the slots travelled.

// Transport is the round-communication backend of a Session: it decides
// which slice of the global shard layout this session steps, and it
// reconciles the message buffer at every round barrier. Implementations
// must be deterministic round-for-round; Exchange is called on the
// coordinating goroutine with every worker parked, so it may touch the
// buffer freely.
type Transport interface {
	// Layout returns the global shard count and the half-open global
	// shard range this session owns, given the session's worker count.
	// The owned range must have exactly sessionShards shards.
	Layout(sessionShards int) (total, lo, hi int)

	// BeginRun is called once per Run, after the global shard bounds are
	// computed and before round 1, so the transport can build its
	// exchange plan. bounds has total+1 entries (vertex bounds per
	// global shard).
	BeginRun(csr *graph.CSR, bounds []int) error

	// Exchange is called at each round barrier after the owned shards
	// finished stepping: buf is the round's freshly written send buffer,
	// ownAwake the awake count over the owned shards. It returns the
	// global awake count; for a remote transport it also pushes the
	// boundary-crossing slots out and scatters the incoming ones into
	// buf, so that after it returns, buf is correct on every slot this
	// session will read next round.
	Exchange(round int, buf []Word, ownAwake int) (int, error)
}

// MemTransport is the in-memory transport: the session owns every shard
// and the exchange is a no-op, because all workers already share the
// buffers. It is the engine's default and costs nothing — no
// allocations, no copies, one interface call per round.
type MemTransport struct{}

// Layout owns the whole shard range.
func (MemTransport) Layout(sessionShards int) (total, lo, hi int) {
	return sessionShards, 0, sessionShards
}

// BeginRun is a no-op.
func (MemTransport) BeginRun(*graph.CSR, []int) error { return nil }

// Exchange is a no-op: the local awake count is the global one.
func (MemTransport) Exchange(round int, buf []Word, ownAwake int) (int, error) {
	return ownAwake, nil
}

var _ Transport = MemTransport{}

// ShardBounds returns the engine's arc-balanced vertex partition for the
// given shard count — the exact split Session.Run uses — so transports,
// planners, and the multi-process coordinator agree on the shard map
// without private contracts.
func ShardBounds(csr *graph.CSR, shards int) []int {
	return shardBoundsInto(make([]int, shards+1), csr, shards)
}

// ExchangePlan precomputes the slot routing of a multi-process round.
// Process p owns the contiguous vertex range [bounds[p], bounds[p+1])
// and with it the contiguous inbox slot range [Row[bounds[p]],
// Row[bounds[p+1]]). Stepping its vertices writes send[Rev[i]] for its
// own arcs i — slots that may land in any process's inbox region, each
// written by exactly one sender. The plan lists, for every ordered pair
// (from, to), the boundary-crossing slots in the sender's arc order, so
// both ends pack and scatter the same dense block with no per-round
// index traffic: the per-round frame is just the block's words.
type ExchangePlan struct {
	procs  int
	bounds []int     // per-process vertex bounds, len procs+1
	arcLo  []int32   // per-process inbox region starts, len procs+1
	slots  [][]int32 // slots[from*procs+to]: crossing slots, sender arc order
}

// NewExchangePlan builds the plan for the given per-process vertex
// bounds (len procs+1, ascending, covering [0, csr.N()]).
func NewExchangePlan(csr *graph.CSR, procBounds []int) *ExchangePlan {
	procs := len(procBounds) - 1
	pl := &ExchangePlan{
		procs:  procs,
		bounds: append([]int(nil), procBounds...),
		arcLo:  make([]int32, procs+1),
		slots:  make([][]int32, procs*procs),
	}
	for p := 0; p <= procs; p++ {
		pl.arcLo[p] = csr.Row[procBounds[p]]
	}
	for p := 0; p < procs; p++ {
		lo, hi := csr.Row[procBounds[p]], csr.Row[procBounds[p+1]]
		for i := lo; i < hi; i++ {
			slot := csr.Rev[i]
			if slot >= lo && slot < hi {
				continue // stays inside p's own inbox region
			}
			q := pl.owner(slot)
			pl.slots[p*procs+q] = append(pl.slots[p*procs+q], slot)
		}
	}
	return pl
}

// owner returns the process whose inbox region contains slot.
func (pl *ExchangePlan) owner(slot int32) int {
	return sort.Search(pl.procs, func(p int) bool { return pl.arcLo[p+1] > slot })
}

// Procs returns the process count of the plan.
func (pl *ExchangePlan) Procs() int { return pl.procs }

// Block returns the boundary-crossing slots process from writes into
// process to's inbox region, in from's arc order. Both the sender's
// pack and the receiver's scatter iterate this list.
func (pl *ExchangePlan) Block(from, to int) []int32 { return pl.slots[from*pl.procs+to] }

// UpWords returns how many words process p sends per round (its
// boundary-crossing writes into every other process's region).
func (pl *ExchangePlan) UpWords(p int) int {
	n := 0
	for q := 0; q < pl.procs; q++ {
		n += len(pl.Block(p, q))
	}
	return n
}

// DownWords returns how many words process p receives per round.
func (pl *ExchangePlan) DownWords(p int) int {
	n := 0
	for q := 0; q < pl.procs; q++ {
		n += len(pl.Block(q, p))
	}
	return n
}

// CrossWords returns the total boundary-crossing words per round — the
// CONGEST-style message volume of the shard map, independent of how the
// words are routed.
func (pl *ExchangePlan) CrossWords() int64 {
	var n int64
	for p := 0; p < pl.procs; p++ {
		n += int64(pl.UpWords(p))
	}
	return n
}

// ProcBoundsFromShards folds a global shard-bounds slice (len
// procs*shardsPerProc+1) into per-process vertex bounds (len procs+1):
// process p owns shards [p*shardsPerProc, (p+1)*shardsPerProc).
func ProcBoundsFromShards(bounds []int, procs, shardsPerProc int) ([]int, error) {
	if shardsPerProc <= 0 || procs <= 0 {
		return nil, fmt.Errorf("local: %d procs × %d shards/proc is not a layout", procs, shardsPerProc)
	}
	if len(bounds) != procs*shardsPerProc+1 {
		return nil, fmt.Errorf("local: %d shard bounds for %d procs × %d shards/proc",
			len(bounds), procs, shardsPerProc)
	}
	pb := make([]int, procs+1)
	for p := 0; p <= procs; p++ {
		pb[p] = bounds[p*shardsPerProc]
	}
	return pb, nil
}

// roundFrameOverhead is the fixed per-frame wire cost of one round
// frame: the u32 length prefix, the type byte, and the u32 round and
// u32 awake-count header of FrameMsgs/FrameDeliv payloads.
const roundFrameOverhead = 4 + 1 + 4 + 4

// MPWireCost returns the deterministic per-round wire cost of a
// star-routed multi-process run over the given graph: the number of
// framed exchanges (one upstream and one downstream frame per worker
// process) and the total bytes crossing process boundaries, headers
// included. This is the quantity experiment E29 records and
// internal/bench's TestE29WireCostGolden pins — it is a pure function of
// the graph and the shard map, so the pin fails on real message-volume
// changes, never on timing noise. ProcTransport's frame accounting
// matches it exactly (asserted by the internal/mp tests).
func MPWireCost(csr *graph.CSR, procs, shardsPerProc int) (framesPerRound int, bytesPerRound int64, err error) {
	if shardsPerProc <= 0 {
		shardsPerProc = 1
	}
	bounds := ShardBounds(csr, procs*shardsPerProc)
	pb, err := ProcBoundsFromShards(bounds, procs, shardsPerProc)
	if err != nil {
		return 0, 0, err
	}
	pl := NewExchangePlan(csr, pb)
	framesPerRound = 2 * procs
	bytesPerRound = int64(framesPerRound)*roundFrameOverhead + 2*pl.CrossWords()
	return framesPerRound, bytesPerRound, nil
}
