package encode

import (
	"encoding/json"
	"fmt"
	"hash"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"

	"tokendrop/internal/assign"
	"tokendrop/internal/core"
	"tokendrop/internal/graph"
	"tokendrop/internal/orient"
)

// This file defines the versioned on-disk snapshot format behind
// record/replay (td-run -record / -replay). A snapshot is written only at
// a quiescent engine boundary (a round barrier for games, a phase
// boundary for the orientation and assignment loops), so the file is
// crash-consistent by construction: it either decodes to a state every
// solver accepts through ResumeFrom, or it fails validation loudly. The
// format is self-describing — layer discriminator, graph content hash,
// and run provenance (workload spec, generator seed, tie rule, solve
// seed) — so a replay can refuse a snapshot that does not belong to the
// run it is being applied to instead of silently diverging.
//
// Compatibility contract: Version is bumped on any field change; readers
// reject unknown versions and unknown fields (json.DisallowUnknownFields),
// so format drift fails at decode time, never as a corrupted resume. The
// golden files under testdata/ pin the byte encoding.

// SnapshotVersion is the current on-disk snapshot format version.
const SnapshotVersion = 1

// Layer discriminators of SnapshotJSON.
const (
	// LayerCore marks a snapshot of a sharded token dropping game.
	LayerCore = "core"
	// LayerOrient marks a snapshot of an orientation phase loop.
	LayerOrient = "orient"
	// LayerAssign marks a snapshot of a stable-assignment phase loop.
	LayerAssign = "assign"
	// LayerBounded marks a snapshot of a k-bounded assignment phase loop
	// (an assign.Snapshot with K > 0).
	LayerBounded = "bounded"
	// LayerOverlay marks a snapshot of a live mutable overlay and its
	// incremental assignment (assign.Resolver). Unlike the phase-loop
	// layers it is self-contained: the graph travels inside the snapshot
	// (live ids, port-ordered adjacency), so a restore needs no external
	// input to bind to. GraphHash covers the serialized graph itself
	// (GraphHashOverlay) and catches torn or hand-edited state a decode
	// would otherwise accept.
	LayerOverlay = "overlay"
)

// RunMetaJSON records the provenance of a recorded run: enough to
// regenerate the input deterministically and to re-run the solve with
// the same decision streams.
type RunMetaJSON struct {
	// Workload is the generator spec of the input (the CLI's workload
	// flags in canonical form), empty when the input came from a file.
	Workload string `json:"workload,omitempty"`
	// GenSeed is the generator seed that produced the input.
	GenSeed int64 `json:"gen_seed,omitempty"`
	// Tie names the tie-breaking rule ("first-port" or "random").
	Tie string `json:"tie"`
	// Seed is the solve seed driving randomized tie-breaking.
	Seed int64 `json:"seed,omitempty"`
	// Shards is the worker count the run was recorded with. Informational:
	// results are shard-count invariant, and replays may use any value.
	Shards int `json:"shards,omitempty"`
}

// TieName returns the RunMetaJSON encoding of a tie rule.
func TieName(tie core.TieBreak) string {
	if tie == core.TieRandom {
		return "random"
	}
	return "first-port"
}

// ParseTie inverts TieName.
func ParseTie(name string) (core.TieBreak, error) {
	switch name {
	case "first-port":
		return core.TieFirstPort, nil
	case "random":
		return core.TieRandom, nil
	}
	return 0, fmt.Errorf("encode: unknown tie rule %q", name)
}

// PhaseRecordJSON is the on-disk form of a phase-log record, a field
// union of the orient and assign records (a LayerBounded log carries its
// badness as max_k_badness).
type PhaseRecordJSON struct {
	Phase       int `json:"phase"`
	Proposals   int `json:"proposals"`
	Accepted    int `json:"accepted"`
	GameEdges   int `json:"game_edges"`
	GameRounds  int `json:"game_rounds"`
	TokensMoved int `json:"tokens_moved,omitempty"`
	MaxBadness  int `json:"max_badness,omitempty"`
	MaxKBadness int `json:"max_k_badness,omitempty"`
}

// SnapshotJSON is the on-disk form of a mid-solve snapshot. Layer selects
// which state fields are populated; GraphHash binds the snapshot to the
// exact input it was captured on.
type SnapshotJSON struct {
	Version   int         `json:"version"`
	Layer     string      `json:"layer"`
	GraphHash string      `json:"graph_hash"`
	Meta      RunMetaJSON `json:"meta"`

	// LayerCore state: the round cursor, the vertices holding tokens
	// after that round, and the move-log length.
	Round    int   `json:"round,omitempty"`
	Occupied []int `json:"occupied,omitempty"`
	Moves    int   `json:"moves,omitempty"`

	// Phase-loop cursors (LayerOrient, LayerAssign, LayerBounded).
	Phase  int `json:"phase,omitempty"`
	Rounds int `json:"rounds,omitempty"`

	// LayerOrient state.
	Oriented int     `json:"oriented,omitempty"`
	Head     []int32 `json:"head,omitempty"`
	// Load serves LayerOrient (indegree per vertex) and
	// LayerAssign/LayerBounded (customers per server).
	Load []int32 `json:"load,omitempty"`
	// Rngs holds the per-vertex TieRandom streams of LayerOrient.
	Rngs []uint64 `json:"rngs,omitempty"`

	// LayerAssign / LayerBounded state.
	K          int      `json:"k,omitempty"`
	ServerOf   []int32  `json:"server_of,omitempty"`
	Unassigned []int32  `json:"unassigned,omitempty"`
	CustRng    []uint64 `json:"cust_rng,omitempty"`
	ServRng    []uint64 `json:"serv_rng,omitempty"`

	PhaseLog []PhaseRecordJSON `json:"phase_log,omitempty"`

	// LayerOverlay state: the live graph in serialized overlay form.
	// CustIDs lists the live customer ids ascending; customer CustIDs[i]
	// is assigned to server ServerOf[i] (the field above, repurposed as
	// parallel-to-CustIDs here) and its port-ordered adjacency is
	// AdjServer[AdjPtr[i]:AdjPtr[i+1]]. ServIDs lists the live server
	// ids ascending, isolated servers included.
	CustIDs   []int32 `json:"cust_ids,omitempty"`
	AdjPtr    []int32 `json:"adj_ptr,omitempty"`
	AdjServer []int32 `json:"adj_server,omitempty"`
	ServIDs   []int32 `json:"serv_ids,omitempty"`
}

// hashInts folds a label and an int32 slice into an FNV-1a stream.
func hashInts(h hash.Hash64, label byte, xs []int32) {
	var buf [4]byte
	buf[0] = label
	h.Write(buf[:1])
	for _, x := range xs {
		buf[0] = byte(x)
		buf[1] = byte(x >> 8)
		buf[2] = byte(x >> 16)
		buf[3] = byte(x >> 24)
		h.Write(buf[:4])
	}
}

// GraphHashCSR returns a content hash of a flat graph (FNV-1a over the
// CSR arrays), the identity a snapshot binds to.
func GraphHashCSR(c *graph.CSR) string {
	h := fnv.New64a()
	hashInts(h, 'R', c.Row)
	hashInts(h, 'C', c.Col)
	return fmt.Sprintf("fnv1a:%016x", h.Sum64())
}

// GraphHashBipartite returns a content hash of a flat bipartite network:
// the CSR hash folded with the customer/server split.
func GraphHashBipartite(fb *graph.CSRBipartite) string {
	h := fnv.New64a()
	hashInts(h, 'R', fb.C.Row)
	hashInts(h, 'C', fb.C.Col)
	hashInts(h, 'L', []int32{int32(fb.NumLeft)})
	return fmt.Sprintf("fnv1a:%016x", h.Sum64())
}

// GraphHashFlatInstance returns a content hash of a flat game instance:
// the CSR hash folded with levels and initial tokens.
func GraphHashFlatInstance(fi *core.FlatInstance) string {
	h := fnv.New64a()
	csr := fi.CSR()
	hashInts(h, 'R', csr.Row)
	hashInts(h, 'C', csr.Col)
	n := csr.N()
	lt := make([]int32, n)
	for v := 0; v < n; v++ {
		lt[v] = int32(fi.Level(v))
	}
	hashInts(h, 'V', lt)
	for v := 0; v < n; v++ {
		if fi.Token(v) {
			lt[v] = 1
		} else {
			lt[v] = 0
		}
	}
	hashInts(h, 'T', lt)
	return fmt.Sprintf("fnv1a:%016x", h.Sum64())
}

// GraphHashOverlay returns a content hash of an overlay-layer
// snapshot's serialized graph — live ids, port-ordered adjacency, live
// servers. Assignments are excluded on purpose: the hash names the
// network, and any stable assignment on it is a valid continuation.
func GraphHashOverlay(sj *SnapshotJSON) string {
	h := fnv.New64a()
	hashInts(h, 'c', sj.CustIDs)
	hashInts(h, 'p', sj.AdjPtr)
	hashInts(h, 'a', sj.AdjServer)
	hashInts(h, 's', sj.ServIDs)
	return fmt.Sprintf("fnv1a:%016x", h.Sum64())
}

// checkBinding validates the envelope a binding shares: layer, version,
// and graph identity.
func (sj *SnapshotJSON) checkBinding(layer, hash string) error {
	if sj.Version != SnapshotVersion {
		return fmt.Errorf("encode: snapshot version %d, this build reads %d", sj.Version, SnapshotVersion)
	}
	if sj.Layer != layer {
		return fmt.Errorf("encode: snapshot of layer %q applied to a %s run", sj.Layer, layer)
	}
	if sj.GraphHash != hash {
		return fmt.Errorf("encode: snapshot was captured on graph %s, this input hashes to %s", sj.GraphHash, hash)
	}
	return nil
}

// FromCoreSnapshot converts a game snapshot to its on-disk form, bound
// to the instance it was captured on.
func FromCoreSnapshot(snap *core.Snapshot, fi *core.FlatInstance, meta RunMetaJSON) *SnapshotJSON {
	sj := &SnapshotJSON{
		Version:   SnapshotVersion,
		Layer:     LayerCore,
		GraphHash: GraphHashFlatInstance(fi),
		Meta:      meta,
		Round:     snap.Round,
		Moves:     snap.Moves,
	}
	for v, occ := range snap.Occupied {
		if occ {
			sj.Occupied = append(sj.Occupied, v)
		}
	}
	return sj
}

// ToCoreSnapshot validates the on-disk form against the instance a
// resume will run on and rebuilds the in-memory snapshot.
func (sj *SnapshotJSON) ToCoreSnapshot(fi *core.FlatInstance) (*core.Snapshot, error) {
	if err := sj.checkBinding(LayerCore, GraphHashFlatInstance(fi)); err != nil {
		return nil, err
	}
	n := fi.N()
	snap := &core.Snapshot{Round: sj.Round, Moves: sj.Moves, Occupied: make([]bool, n)}
	for _, v := range sj.Occupied {
		if v < 0 || v >= n {
			return nil, fmt.Errorf("encode: snapshot token vertex %d out of range [0,%d)", v, n)
		}
		if snap.Occupied[v] {
			return nil, fmt.Errorf("encode: snapshot lists token vertex %d twice", v)
		}
		snap.Occupied[v] = true
	}
	return snap, nil
}

// fromPhaseLog converts a phase log to its on-disk form; a bounded
// layer's records carry their badness as max_k_badness.
func fromPhaseLog(log []core.PhaseRecord, bounded bool) []PhaseRecordJSON {
	out := make([]PhaseRecordJSON, 0, len(log))
	for _, r := range log {
		pr := PhaseRecordJSON{Phase: r.Phase, Proposals: r.Proposals, Accepted: r.Accepted,
			GameEdges: r.GameEdges, GameRounds: r.GameRounds, TokensMoved: r.TokensMoved}
		if bounded {
			pr.MaxKBadness = r.MaxBadness
		} else {
			pr.MaxBadness = r.MaxBadness
		}
		out = append(out, pr)
	}
	return out
}

// toPhaseLog inverts fromPhaseLog.
func toPhaseLog(log []PhaseRecordJSON, bounded bool) []core.PhaseRecord {
	out := make([]core.PhaseRecord, 0, len(log))
	for _, r := range log {
		badness := r.MaxBadness
		if bounded {
			badness = r.MaxKBadness
		}
		out = append(out, core.PhaseRecord{Phase: r.Phase, Proposals: r.Proposals, Accepted: r.Accepted,
			GameEdges: r.GameEdges, GameRounds: r.GameRounds, TokensMoved: r.TokensMoved, MaxBadness: badness})
	}
	return out
}

// FromOrientSnapshot converts an orientation snapshot to its on-disk
// form, bound to the graph it was captured on.
func FromOrientSnapshot(snap *orient.Snapshot, c *graph.CSR, meta RunMetaJSON) *SnapshotJSON {
	return &SnapshotJSON{
		Version:   SnapshotVersion,
		Layer:     LayerOrient,
		GraphHash: GraphHashCSR(c),
		Meta:      meta,
		Phase:     snap.Phase,
		Rounds:    snap.Rounds,
		Oriented:  snap.Oriented,
		Head:      append([]int32(nil), snap.Head...),
		Load:      append([]int32(nil), snap.Load...),
		Rngs:      append([]uint64(nil), snap.Rngs...),
		PhaseLog:  fromPhaseLog(snap.PhaseLog, false),
	}
}

// ToOrientSnapshot validates the on-disk form against the graph a resume
// will run on and rebuilds the in-memory snapshot. Deep state validation
// (head ranges, load consistency) happens in orient.SolveSharded.
func (sj *SnapshotJSON) ToOrientSnapshot(c *graph.CSR) (*orient.Snapshot, error) {
	if err := sj.checkBinding(LayerOrient, GraphHashCSR(c)); err != nil {
		return nil, err
	}
	return &orient.Snapshot{
		Phase:    sj.Phase,
		Oriented: sj.Oriented,
		Rounds:   sj.Rounds,
		Head:     append([]int32(nil), sj.Head...),
		Load:     append([]int32(nil), sj.Load...),
		Rngs:     append([]uint64(nil), sj.Rngs...),
		PhaseLog: toPhaseLog(sj.PhaseLog, false),
	}, nil
}

// FromAssignSnapshot converts an assignment snapshot to its on-disk
// form, bound to the bipartite network it was captured on. The
// snapshot's threshold picks the layer: LayerAssign for the general
// problem (K = 0), LayerBounded for the k-bounded relaxation, whose phase
// records carry their badness as max_k_badness.
func FromAssignSnapshot(snap *assign.Snapshot, fb *graph.CSRBipartite, meta RunMetaJSON) *SnapshotJSON {
	layer := LayerAssign
	if snap.K > 0 {
		layer = LayerBounded
	}
	return &SnapshotJSON{
		Version:    SnapshotVersion,
		Layer:      layer,
		GraphHash:  GraphHashBipartite(fb),
		Meta:       meta,
		K:          snap.K,
		Phase:      snap.Phase,
		Rounds:     snap.Rounds,
		ServerOf:   append([]int32(nil), snap.ServerOf...),
		Load:       append([]int32(nil), snap.Load...),
		Unassigned: append([]int32(nil), snap.Unassigned...),
		CustRng:    append([]uint64(nil), snap.CustRng...),
		ServRng:    append([]uint64(nil), snap.ServRng...),
		PhaseLog:   fromPhaseLog(snap.PhaseLog, snap.K > 0),
	}
}

// ToAssignSnapshot validates the on-disk form against the network a
// resume will run on and the layer the caller expects (LayerAssign or
// LayerBounded), and rebuilds the in-memory snapshot. Deep state
// validation, the threshold included, happens in assign.SolveSharded.
func (sj *SnapshotJSON) ToAssignSnapshot(fb *graph.CSRBipartite, layer string) (*assign.Snapshot, error) {
	if layer != LayerAssign && layer != LayerBounded {
		return nil, fmt.Errorf("encode: layer %q is not an assignment layer", layer)
	}
	if err := sj.checkBinding(layer, GraphHashBipartite(fb)); err != nil {
		return nil, err
	}
	if (sj.K > 0) != (layer == LayerBounded) {
		return nil, fmt.Errorf("encode: %s snapshot carries threshold k = %d", layer, sj.K)
	}
	return &assign.Snapshot{
		K:          sj.K,
		Phase:      sj.Phase,
		Rounds:     sj.Rounds,
		ServerOf:   append([]int32(nil), sj.ServerOf...),
		Load:       append([]int32(nil), sj.Load...),
		Unassigned: append([]int32(nil), sj.Unassigned...),
		CustRng:    append([]uint64(nil), sj.CustRng...),
		ServRng:    append([]uint64(nil), sj.ServRng...),
		PhaseLog:   toPhaseLog(sj.PhaseLog, layer == LayerBounded),
	}, nil
}

// FromResolver serializes a live Resolver — overlay graph plus
// assignment — into the self-contained overlay layer. Captures must
// happen at a delta boundary (the Resolver is quiescent between
// operations; serving layers hold their mutex across the walk).
func FromResolver(r *assign.Resolver, meta RunMetaJSON) *SnapshotJSON {
	ov := r.Overlay()
	sj := &SnapshotJSON{
		Version: SnapshotVersion,
		Layer:   LayerOverlay,
		Meta:    meta,
		AdjPtr:  []int32{0},
	}
	for c := 0; c < ov.CustomerIDs(); c++ {
		if !ov.CustomerLive(c) {
			continue
		}
		sj.CustIDs = append(sj.CustIDs, int32(c))
		sj.ServerOf = append(sj.ServerOf, int32(r.ServerOf(c)))
		sj.AdjServer = append(sj.AdjServer, ov.Adj(c)...)
		sj.AdjPtr = append(sj.AdjPtr, int32(len(sj.AdjServer)))
	}
	for s := 0; s < ov.ServerIDs(); s++ {
		if ov.ServerLive(s) {
			sj.ServIDs = append(sj.ServIDs, int32(s))
		}
	}
	sj.GraphHash = GraphHashOverlay(sj)
	return sj
}

// ToResolver restores a Resolver from an overlay-layer snapshot:
// identifiers survive the round-trip exactly, and the restored
// assignment is the snapshot's (repaired only if it fails stability,
// which a faithful snapshot of a quiescent Resolver never does). The
// options' Tie and Seed should come from the snapshot's Meta for a
// faithful continuation; the caller owns and closes the Resolver.
func (sj *SnapshotJSON) ToResolver(opt assign.ResolverOptions) (*assign.Resolver, error) {
	if sj.Layer != LayerOverlay {
		return nil, fmt.Errorf("encode: snapshot of layer %q applied to an overlay restore", sj.Layer)
	}
	// The self-hash is checked when present; snapshots predating it
	// (empty graph_hash) still restore, they just skip the integrity
	// check.
	if sj.GraphHash != "" {
		if got := GraphHashOverlay(sj); got != sj.GraphHash {
			return nil, fmt.Errorf("encode: overlay snapshot graph hashes to %s, header claims %s (torn or edited state)",
				got, sj.GraphHash)
		}
	}
	if len(sj.ServerOf) != len(sj.CustIDs) {
		return nil, fmt.Errorf("encode: overlay snapshot has %d assignments for %d customers",
			len(sj.ServerOf), len(sj.CustIDs))
	}
	ov, err := graph.RestoreBipartiteOverlay(sj.CustIDs, sj.AdjPtr, sj.AdjServer, sj.ServIDs)
	if err != nil {
		return nil, fmt.Errorf("encode: %w", err)
	}
	prior := make([]int32, ov.CustomerIDs())
	for i := range prior {
		prior[i] = -1
	}
	for i, c := range sj.CustIDs {
		prior[c] = sj.ServerOf[i]
	}
	r, err := assign.NewResolverFromOverlay(ov, prior, opt)
	if err != nil {
		return nil, fmt.Errorf("encode: %w", err)
	}
	return r, nil
}

// WriteSnapshot streams a snapshot as indented JSON. The encoding is
// deterministic (struct field order), which the golden-file tests pin.
func WriteSnapshot(w io.Writer, sj *SnapshotJSON) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(sj)
}

// ReadSnapshot parses a snapshot from JSON. Unknown fields and unknown
// versions are rejected — format drift fails here, never as a corrupted
// resume.
func ReadSnapshot(r io.Reader) (*SnapshotJSON, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var sj SnapshotJSON
	if err := dec.Decode(&sj); err != nil {
		return nil, fmt.Errorf("encode: %w", err)
	}
	if sj.Version != SnapshotVersion {
		return nil, fmt.Errorf("encode: snapshot version %d, this build reads %d", sj.Version, SnapshotVersion)
	}
	switch sj.Layer {
	case LayerCore, LayerOrient, LayerAssign, LayerBounded, LayerOverlay:
	default:
		return nil, fmt.Errorf("encode: unknown snapshot layer %q", sj.Layer)
	}
	return &sj, nil
}

// SaveSnapshotFile writes a snapshot crash-consistently: to a temporary
// file in the target directory, synced, then renamed over path, so a
// crash mid-write leaves either the old snapshot or the new one, never a
// torn file.
func SaveSnapshotFile(path string, sj *SnapshotJSON) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".snapshot-*.tmp")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if err := WriteSnapshot(tmp, sj); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// ReadSnapshotFile reads a snapshot written by SaveSnapshotFile.
func ReadSnapshotFile(path string) (*SnapshotJSON, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadSnapshot(f)
}
