package local

import "tokendrop/internal/fault"

// This file implements the sharded flat engine, the second LOCAL runtime of
// the package. The goroutine-per-round Network above is the faithful,
// fully general simulator (arbitrary Go payloads); the sharded engine
// trades payload generality for throughput so that million-node games are
// practical:
//
//   - the topology is a graph.CSR, so adjacency is three flat arrays,
//   - messages are single bytes (Word; 0 means "no message") in two flat
//     arc-indexed buffers that alternate roles every round (double
//     buffering). Buffers are receiver-indexed: slot i is the inbox slot
//     of arc i's tail vertex, and the sender behind arc i writes it as
//     send[Rev[i]]. Receivers therefore scan their inbox sequentially and
//     the one unavoidable random memory access per message is a store,
//     which does not stall the pipeline the way a dependent load does.
//     There is no separate delivery phase,
//   - vertices are partitioned into arc-balanced shards, each owned by one
//     persistent worker goroutine; a round is one channel-synchronized
//     barrier, with no goroutine spawns and no allocations inside a round,
//   - node state lives in the FlatProgram as struct-of-arrays, not in
//     per-node machine objects.
//
// Determinism holds for the same reason as in Network: within a round a
// worker writes only the state and out-arcs of its own vertices and reads
// only the previous round's buffer, so the outcome is independent of
// scheduling and of the shard count.

// Word is a one-byte message payload of the sharded engine. Zero means "no
// message"; protocols encode their message alphabet in the remaining
// values. Every game protocol in this repository uses an alphabet of a few
// constant symbols (they are O(1)-bit CONGEST protocols), so a byte is not
// a restriction here — and the width matters: both round buffers of a
// million-node, degree-7 instance then fit in ~14 MB, so the one random
// access per delivered message usually hits the last-level cache.
type Word uint8

// FlatProgram is a distributed algorithm in struct-of-arrays form, stepped
// shard-by-shard by Session.Run. Implementations must be deterministic
// functions of their inputs, must only touch per-vertex state of vertices
// in the [lo, hi) range they are given, and must not retain the buffer
// slices across calls.
type FlatProgram interface {
	// InitShards is called once before round 1 with the vertex partition:
	// shard s owns vertices [bounds[s], bounds[s+1]). Programs size any
	// per-shard accumulators (move logs, counters) here.
	InitShards(bounds []int)

	// StepShard executes one synchronous round for the given awake
	// vertices (ascending, all owned by this shard; the engine removes
	// halted vertices from the list between rounds).
	//
	// A vertex without arcs is never handed to StepShard: it can neither
	// send nor receive, so the engine starts it halted. Its state is
	// therefore what the program's reset gave it, and a program's result
	// must read that as the vertex's final state — as if the vertex had
	// halted in round 1 with no message and no counter change, which is
	// what every program in this repository does on such a vertex.
	//
	// For vertex v and port p (arc index i = Row[v]+p), the word received
	// this round is recv[i] (0 = nothing), and the program must store the
	// outgoing word for port i into send[Rev[i]] — for every port of
	// every stepped vertex, including explicit zeroes, since the slots
	// hold the vertex's words from two rounds ago. (A program that can
	// prove its words are unchanged since two rounds ago may skip the
	// stores; see the quiescence optimization in core's flat programs.)
	// Setting halted[v] = true halts v after this round; its final send
	// words are still delivered next round, and it is never stepped
	// again.
	StepShard(round, shard int, verts []int32, recv, send []Word, halted []bool)
}

// ShardedOptions configure one Session.Run execution. The worker count
// is the session's (NewSession); the result does not depend on it.
type ShardedOptions struct {
	// MaxRounds aborts the run if some vertex is still awake after this
	// many rounds. Zero means 1<<20, as in Options.
	MaxRounds int
	// OnRound, if non-nil, runs on the coordinating goroutine after every
	// round with the round number and how many vertices are still awake.
	//
	// Quiescence contract: OnRound fires at the round barrier, after every
	// worker has reported done for the round and before any worker is
	// started on the next one. The workers are parked for the whole call,
	// so the hook may read all program state — and the engine's halted
	// array — without synchronization and sees exactly the state after
	// `round` complete rounds. This is what makes OnRound a
	// crash-consistent snapshot point: the snapshot layers (core, orient,
	// assign) capture mid-solve state from this hook and nowhere else. The hook must not retain references into program state past
	// its return, and must not call back into the session.
	OnRound func(round, awake int)
	// Stop, if non-nil, is consulted after every round; returning true
	// ends the run even though vertices are still awake (used by
	// throughput benchmarks and simulation-side termination oracles).
	Stop func(round int) bool
	// Fault, if non-nil, is the engine's FaultSiteRound failpoint,
	// visited once per round by the run coordinator (visit n = round n).
	// See fault.go for what each fault kind does; nil costs one nil
	// check per round and nothing else.
	Fault *fault.Site
}

// ShardedStats summarizes a Session.Run execution.
type ShardedStats struct {
	Rounds int // rounds executed
	Shards int // shard count actually used
	Halted int // vertices halted when the run ended
}
