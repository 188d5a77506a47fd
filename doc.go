// Package tokendrop is a Go reproduction of "Efficient Load-Balancing
// through Distributed Token Dropping" (Brandt, Keller, Rybicki, Suomela,
// Uitto; SPAA 2021, arXiv:2005.07761).
//
// The paper introduces the token dropping game — tokens on a layered graph
// drop one level at a time over single-use edges until stuck — and uses it
// to compute stable orientations in O(Δ⁴) rounds of the LOCAL model of
// distributed computing (improving the previous O(Δ⁵)), stable assignments
// in O(C·S⁴), and 2-bounded stable assignments in O(C·S²), alongside Ω(Δ)
// lower bounds.
//
// This package is the public facade over the implementation:
//
//   - the token dropping game, its distributed proposal algorithm
//     (Theorem 4.1), the specialized 3-level algorithm (Theorem 4.7),
//     sequential baselines, and the rules verifier;
//   - stable orientations via token dropping (Theorem 5.1);
//   - stable assignments on customer/server networks via hypergraph token
//     dropping (Theorems 7.1 and 7.3);
//   - the k-bounded (0–1–many) relaxation (Theorem 7.5) and its reduction
//     to maximal matching (Theorem 7.4);
//   - bipartite maximal matching, exact optimal semi-matchings, and the
//     lower-bound constructions of Section 6.
//
// Everything runs on a faithful simulator of the LOCAL model
// (port-numbered synchronous message passing, unbounded messages, unique
// identifiers). Two runtimes implement it:
//
//   - the seed engine (internal/local.Network): one Machine object per
//     node stepped on a goroutine pool per round, arbitrary Go payloads —
//     fully general, and the reference semantics;
//   - the sharded engine (internal/local.Session, its only entry point:
//     a one-shot solve starts a session of its own): a CSR graph
//     (internal/graph.CSR — compressed adjacency with flat arc, edge-id,
//     and reverse-arc arrays), byte-word messages in double-buffered flat
//     arrays, per-vertex state as struct-of-arrays, and persistent
//     workers over arc-balanced vertex shards with one barrier per round
//     — no goroutine spawns and no per-message allocations, built for
//     million-node games (≥5× the seed engine's round throughput at 10⁶
//     vertices; numbers in CHANGES.md).
//
// Both engines are deterministic regardless of scheduling, and under
// either tie rule they produce bit-identical runs of the game algorithms
// (random ties draw from one per-vertex stream in both), which the differential test suite in internal/core asserts
// against the centralized sequential oracle on hundreds of instances
// (experiment E22 records the same check as a table).
//
// The higher layers run on both engines too:
//
//   - orientation: StableOrientation drives the seed engine,
//     StableOrientationSharded runs the whole Theorem 5.1 phase loop in
//     flat arrays over a FlatGraph (CSR) and plays each phase's token
//     dropping subgame on the sharded engine — ~10× faster than the seed
//     engine at 6·10⁴ vertices on two cores (experiment E23);
//   - assignment: StableAssignmentSharded runs the Theorem 7.3 phase loop
//     over a FlatBipartite (CSR customer/server network), and with a
//     threshold K the Theorem 7.5 k-bounded relaxation
//     (KBoundedAssignmentSharded is the K = 2 default), playing each
//     phase's hypergraph subgame on the flat ports of the Theorem 7.1/7.5
//     relay protocols — ~8× faster than the seed engine at 10⁵ customers
//     on two cores (experiment E24).
//
// Per-layer differential suites (internal/orient, internal/assign and
// its k-bounded suite internal/bounded, internal/hypergame) assert
// bit-identical phase logs, round counts, and final outputs under
// either tie rule;
// RandomRegularFlat, PowerLawFlat, and PowerLawBipartiteFlat generate
// million-vertex workloads directly in CSR form. With the assignment
// layer ported, every algorithm layer of the paper runs on both engines;
// ARCHITECTURE.md documents the two-engine design and the lockstep
// contract.
//
// # Quick start
//
//	g := tokendrop.RandomRegular(24, 4, rand.New(rand.NewSource(1)))
//	res, err := tokendrop.StableOrientation(g, tokendrop.OrientOptions{})
//	if err != nil { ... }
//	fmt.Println(res.Orientation.Stable(), res.Rounds) // true, <rounds>
//
// See the examples/ directory for complete programs, README.md for the
// quickstart and benchmark summary, and ARCHITECTURE.md for the runtime
// design; the experiment index mapping every theorem and figure of the
// paper to a regenerating benchmark lives in internal/bench (cmd/td-experiments
// prints all tables).
package tokendrop
