package tokendrop

import (
	"io"

	"tokendrop/internal/assign"
	"tokendrop/internal/core"
	"tokendrop/internal/encode"
	"tokendrop/internal/orient"
)

// Record/replay facade: crash-consistent mid-solve snapshots of the
// sharded solvers, their versioned on-disk form, and the structured
// divergence report a failed replay produces. See ARCHITECTURE.md
// ("Replay and snapshots") for the format and the crash-consistency
// argument.

type (
	// GameSnapshot is a sharded game snapshot at a round boundary; feed
	// it back through ShardedGameOptions.ResumeFrom.
	GameSnapshot = core.Snapshot
	// OrientSnapshot is an orientation snapshot at a phase boundary; feed
	// it back through OrientShardedOptions.ResumeFrom.
	OrientSnapshot = orient.Snapshot
	// AssignSnapshot is a stable-assignment snapshot at a phase boundary;
	// feed it back through AssignShardedOptions.ResumeFrom. Its K records
	// the threshold of a k-bounded solve.
	AssignSnapshot = assign.Snapshot
	// BoundedSnapshot is a k-bounded assignment snapshot at a phase
	// boundary; feed it back through BoundedShardedOptions.ResumeFrom. It
	// is AssignSnapshot.
	BoundedSnapshot = assign.Snapshot
	// SnapshotJSON is the versioned on-disk snapshot form, self-describing
	// via a layer discriminator, a graph content hash, and run provenance.
	SnapshotJSON = encode.SnapshotJSON
	// RunMetaJSON records a run's provenance (workload spec, generator
	// seed, tie rule, solve seed, shard count) inside a SnapshotJSON.
	RunMetaJSON = encode.RunMetaJSON
	// PhaseRecordJSON is the on-disk form of one phase-log record.
	PhaseRecordJSON = encode.PhaseRecordJSON
	// ReplayDivergence is the structured replay-failure report: the first
	// differing field between a recording and its replay. It implements
	// error.
	ReplayDivergence = encode.Divergence
)

// SnapshotFormatVersion is the current on-disk snapshot format version;
// readers reject other versions and unknown fields.
const SnapshotFormatVersion = encode.SnapshotVersion

// Snapshot layer discriminators.
const (
	SnapshotLayerCore    = encode.LayerCore
	SnapshotLayerOrient  = encode.LayerOrient
	SnapshotLayerAssign  = encode.LayerAssign
	SnapshotLayerBounded = encode.LayerBounded
)

// TieName returns the RunMetaJSON encoding of a tie rule ("first-port"
// or "random").
func TieName(tie TieBreak) string { return encode.TieName(tie) }

// ParseTie inverts TieName.
func ParseTie(name string) (TieBreak, error) { return encode.ParseTie(name) }

// GameSnapshotJSON converts a game snapshot to its on-disk form, bound
// to the instance it was captured on.
func GameSnapshotJSON(snap *GameSnapshot, fi *FlatGame, meta RunMetaJSON) *SnapshotJSON {
	return encode.FromCoreSnapshot(snap, fi, meta)
}

// BindGameSnapshot validates an on-disk snapshot against the instance a
// resume will run on (layer, version, graph hash) and rebuilds the
// in-memory snapshot.
func BindGameSnapshot(sj *SnapshotJSON, fi *FlatGame) (*GameSnapshot, error) {
	return sj.ToCoreSnapshot(fi)
}

// OrientSnapshotJSON converts an orientation snapshot to its on-disk
// form, bound to the graph it was captured on.
func OrientSnapshotJSON(snap *OrientSnapshot, c *FlatGraph, meta RunMetaJSON) *SnapshotJSON {
	return encode.FromOrientSnapshot(snap, c, meta)
}

// BindOrientSnapshot validates an on-disk snapshot against the graph a
// resume will run on and rebuilds the in-memory snapshot.
func BindOrientSnapshot(sj *SnapshotJSON, c *FlatGraph) (*OrientSnapshot, error) {
	return sj.ToOrientSnapshot(c)
}

// AssignSnapshotJSON converts an assignment snapshot to its on-disk
// form, bound to the network it was captured on. The snapshot's K picks
// the layer: SnapshotLayerAssign at K = 0, SnapshotLayerBounded above.
func AssignSnapshotJSON(snap *AssignSnapshot, fb *FlatBipartite, meta RunMetaJSON) *SnapshotJSON {
	return encode.FromAssignSnapshot(snap, fb, meta)
}

// BindAssignSnapshot validates an on-disk SnapshotLayerAssign snapshot
// against the network a resume will run on and rebuilds the in-memory
// snapshot.
func BindAssignSnapshot(sj *SnapshotJSON, fb *FlatBipartite) (*AssignSnapshot, error) {
	return sj.ToAssignSnapshot(fb, encode.LayerAssign)
}

// BoundedSnapshotJSON converts a k-bounded assignment snapshot to its
// on-disk form, bound to the network it was captured on; it is
// AssignSnapshotJSON.
func BoundedSnapshotJSON(snap *BoundedSnapshot, fb *FlatBipartite, meta RunMetaJSON) *SnapshotJSON {
	return encode.FromAssignSnapshot(snap, fb, meta)
}

// BindBoundedSnapshot validates an on-disk SnapshotLayerBounded snapshot
// against the network a resume will run on and rebuilds the in-memory
// snapshot.
func BindBoundedSnapshot(sj *SnapshotJSON, fb *FlatBipartite) (*BoundedSnapshot, error) {
	return sj.ToAssignSnapshot(fb, encode.LayerBounded)
}

// WriteSnapshot streams a snapshot as indented JSON (deterministic
// encoding, pinned by golden-file tests).
func WriteSnapshot(w io.Writer, sj *SnapshotJSON) error { return encode.WriteSnapshot(w, sj) }

// ReadSnapshot parses a snapshot, rejecting unknown fields and unknown
// format versions.
func ReadSnapshot(r io.Reader) (*SnapshotJSON, error) { return encode.ReadSnapshot(r) }

// SaveSnapshotFile writes a snapshot crash-consistently (temp file in
// the target directory, synced, renamed over the destination).
func SaveSnapshotFile(path string, sj *SnapshotJSON) error { return encode.SaveSnapshotFile(path, sj) }

// ReadSnapshotFile reads a snapshot written by SaveSnapshotFile.
func ReadSnapshotFile(path string) (*SnapshotJSON, error) { return encode.ReadSnapshotFile(path) }

// DiffGameSolutions compares a replayed game solution against its
// recording and returns the first divergence (nil when bit-identical).
func DiffGameSolutions(recorded, replayed *GameSolution) *ReplayDivergence {
	return encode.DiffSolutions(recorded, replayed)
}

// DiffSnapshots compares a replayed run's snapshot against its recording
// and returns the first divergence (nil when bit-identical).
func DiffSnapshots(recorded, replayed *SnapshotJSON) *ReplayDivergence {
	return encode.DiffSnapshots(recorded, replayed)
}

// HashFlatGame returns the content hash a LayerCore snapshot binds to.
func HashFlatGame(fi *FlatGame) string { return encode.GraphHashFlatInstance(fi) }

// HashFlatGraph returns the content hash a LayerOrient snapshot binds to.
func HashFlatGraph(c *FlatGraph) string { return encode.GraphHashCSR(c) }

// HashFlatBipartite returns the content hash a LayerAssign or
// LayerBounded snapshot binds to.
func HashFlatBipartite(fb *FlatBipartite) string { return encode.GraphHashBipartite(fb) }
