package mp

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"slices"

	"tokendrop/internal/core"
	"tokendrop/internal/encode"
	"tokendrop/internal/local"
)

// This file is the worker-process side of the multi-process engine. A
// worker speaks the transport protocol over its stdin/stdout pipe:
//
//	worker → hello            (protocol version)
//	coord  → handshake        (run configuration, strict JSON)
//	coord  → instance         (the flat game, binary, hash-bound)
//	per round r:
//	  worker → msgs(r)        (own awake count + boundary words)
//	  coord  → deliv(r)       (global awake count + routed words)
//	  worker → snap(r)        (if r is on the snapshot cadence)
//	worker → result           (own range of the solution, binary)
//
// and refuses to run anything it cannot verify: protocol version,
// instance hash, solver and tie names, and the shard map are all
// checked against its own computation before round 1, so a coordinator
// and worker that would diverge fail at the handshake instead.

// snapPayload is the JSON body of a FrameSnap: the worker's slice of a
// quiescent snapshot — its own vertex range's placement and its own
// shards' move count at the round cursor.
type snapPayload struct {
	Round    int    `json:"round"`
	Moves    int    `json:"moves"`
	Occupied []byte `json:"occupied"`
}

// resultPayload is the body of a FrameResult: the worker's share of the
// finished solve. Moves carries only moves granted by the worker's own
// shards, already in the engine's per-worker order (round-major,
// vertices ascending), so the coordinator's stable merge reproduces the
// global move order exactly.
//
// Unlike the other control payloads it is binary, because it carries
// every move of the solve. Layout (big-endian): u32 rounds, u64
// messages, u32 max active, u32 bitmap length, u32 move count, the
// bitmap, then i32 edge, from, to and round per move.
type resultPayload struct {
	Rounds    int
	Messages  int64
	MaxActive int
	Final     []byte // own-range placement bitmap (PackBools)
	Moves     []core.Move
}

// resultHeader is the byte length of a result payload's fixed fields.
const resultHeader = 24

// encodeResult serializes rp for the FrameResult transfer.
func encodeResult(rp *resultPayload) []byte {
	be := binary.BigEndian
	b := make([]byte, 0, resultHeader+len(rp.Final)+16*len(rp.Moves))
	b = be.AppendUint32(b, uint32(rp.Rounds))
	b = be.AppendUint64(b, uint64(rp.Messages))
	b = be.AppendUint32(b, uint32(rp.MaxActive))
	b = be.AppendUint32(b, uint32(len(rp.Final)))
	b = be.AppendUint32(b, uint32(len(rp.Moves)))
	b = append(b, rp.Final...)
	for _, m := range rp.Moves {
		b = be.AppendUint32(b, uint32(m.Edge))
		b = be.AppendUint32(b, uint32(m.From))
		b = be.AppendUint32(b, uint32(m.To))
		b = be.AppendUint32(b, uint32(m.Round))
	}
	return b
}

// decodeResult parses an encodeResult payload, demanding exactly the
// length its header declares. The decoded moves are appended to moves,
// and the extended slice is the payload's Moves, so the coordinator
// collects every worker's moves into one slice; Final aliases b.
func decodeResult(b []byte, moves []core.Move) (resultPayload, error) {
	if len(b) < resultHeader {
		return resultPayload{}, &local.WireError{Op: "result payload",
			Detail: fmt.Sprintf("%d bytes, want at least the %d-byte header", len(b), resultHeader)}
	}
	be := binary.BigEndian
	bitmap, count := be.Uint32(b[16:20]), be.Uint32(b[20:24])
	if want := resultHeader + uint64(bitmap) + 16*uint64(count); uint64(len(b)) != want {
		return resultPayload{}, &local.WireError{Op: "result payload",
			Detail: fmt.Sprintf("%d bytes for a %d-byte bitmap and %d moves, want %d", len(b), bitmap, count, want)}
	}
	rp := resultPayload{
		Rounds:    int(be.Uint32(b[0:4])),
		Messages:  int64(be.Uint64(b[4:12])),
		MaxActive: int(be.Uint32(b[12:16])),
		Final:     b[resultHeader : resultHeader+int(bitmap)],
		Moves:     slices.Grow(moves, int(count)),
	}
	for off := resultHeader + int(bitmap); off < len(b); off += 16 {
		rp.Moves = append(rp.Moves, core.Move{
			Edge:  int(int32(be.Uint32(b[off:]))),
			From:  int(int32(be.Uint32(b[off+4:]))),
			To:    int(int32(be.Uint32(b[off+8:]))),
			Round: int(int32(be.Uint32(b[off+12:]))),
		})
	}
	return rp, nil
}

// WorkerMain runs one worker process's whole life over the given
// streams (stdin/stdout when spawned by the coordinator): handshake,
// solve, result. Errors are reported to the coordinator as a FrameError
// before returning, so the parent sees a reason rather than a bare
// exit. td-run's hidden -mp-worker mode and the test harness both call
// this directly.
func WorkerMain(r io.Reader, w io.Writer) error {
	conn := local.NewFrameConn(r, w)
	if err := workerRun(conn); err != nil {
		// Best-effort: the coordinator may already be gone.
		_ = conn.Write(local.FrameError, local.EncodeErrorFrame(err.Error()))
		_ = conn.Flush()
		return err
	}
	return nil
}

// expectFrame reads one frame and requires the given type, translating
// a peer's FrameError into a returned error.
func expectFrame(conn *local.FrameConn, want local.FrameType) ([]byte, error) {
	t, body, err := conn.Read()
	if err != nil {
		return nil, err
	}
	switch t {
	case want:
		return body, nil
	case local.FrameError:
		return nil, fmt.Errorf("mp: peer failed: %s", local.DecodeErrorFrame(body))
	default:
		return nil, &local.WireError{Op: "protocol",
			Detail: fmt.Sprintf("expected a %s frame, got %s", want, t)}
	}
}

func workerRun(conn *local.FrameConn) error {
	hello, err := json.Marshal(local.Hello{Version: local.WireVersion})
	if err != nil {
		return err
	}
	if err := conn.Write(local.FrameHello, hello); err != nil {
		return err
	}
	if err := conn.Flush(); err != nil {
		return err
	}

	body, err := expectFrame(conn, local.FrameHandshake)
	if err != nil {
		return err
	}
	h, err := local.DecodeHandshake(body)
	if err != nil {
		return err
	}
	if err := h.CheckBasic(); err != nil {
		return err
	}
	tie, err := encode.ParseTie(h.Tie)
	if err != nil {
		return &local.HandshakeError{Field: "tie", Got: h.Tie, Want: "a known tie rule"}
	}
	var solve func(*core.FlatInstance, core.ShardedSolveOptions) (*core.FlatResult, error)
	switch h.Solver {
	case "proposal":
		solve = core.SolveProposalSharded
	case "threelevel":
		solve = core.SolveThreeLevelSharded
	default:
		return &local.HandshakeError{Field: "solver", Got: h.Solver, Want: "proposal or threelevel"}
	}

	body, err = expectFrame(conn, local.FrameInstance)
	if err != nil {
		return err
	}
	if got := InstanceHash(body); got != h.GraphHash {
		return &local.HandshakeError{Field: "graph_hash", Got: h.GraphHash, Want: got}
	}
	fi, err := DecodeInstance(body)
	if err != nil {
		return err
	}
	// The shard map must be the one this worker would compute — the
	// engine recomputes it inside Run, so a handshake that disagrees
	// would route the exchange against a different partition.
	total := h.Procs * h.ShardsPerProc
	bounds := local.ShardBounds(fi.CSR(), total)
	if len(bounds) != len(h.Bounds) {
		return &local.HandshakeError{Field: "bounds",
			Got: fmt.Sprintf("%d entries", len(h.Bounds)), Want: fmt.Sprintf("%d entries", len(bounds))}
	}
	for i, b := range bounds {
		if h.Bounds[i] != b {
			return &local.HandshakeError{Field: "bounds",
				Got:  fmt.Sprintf("shard %d starts at vertex %d", i, h.Bounds[i]),
				Want: fmt.Sprintf("vertex %d (the engine's arc-balanced split)", b)}
		}
	}

	vLo := bounds[h.Proc*h.ShardsPerProc]
	vHi := bounds[(h.Proc+1)*h.ShardsPerProc]
	tr := local.NewProcTransport(conn, h.Proc, h.Procs, h.ShardsPerProc)
	sess := local.NewSessionTransport(h.ShardsPerProc, tr)
	defer sess.Close()

	sopt := core.ShardedSolveOptions{
		Tie:       tie,
		Seed:      h.Seed,
		MaxRounds: h.MaxRounds,
		Session:   sess,
	}
	var snapBits []byte
	if h.SnapshotEvery > 0 {
		sopt.SnapshotEvery = h.SnapshotEvery
		sopt.OnSnapshot = func(s *core.Snapshot) error {
			snapBits = local.PackBools(snapBits, s.Occupied[vLo:vHi])
			p, err := json.Marshal(snapPayload{Round: s.Round, Moves: s.Moves, Occupied: snapBits})
			if err != nil {
				return err
			}
			if err := conn.Write(local.FrameSnap, p); err != nil {
				return err
			}
			return conn.Flush()
		}
	}
	if h.Resume != nil {
		// Reconstitute a full-placement snapshot from the worker's own
		// slice: foreign vertices are never stepped here, so their
		// placement at any cursor equals their initial tokens, and the
		// move count at the cursor is the own-shard count the snapshot
		// recorded. Resume is then the standard validated fast-forward.
		occ := make([]bool, fi.N())
		for v := range occ {
			occ[v] = fi.Token(v)
		}
		own, err := local.UnpackBools(nil, h.Resume.Occupied, vHi-vLo)
		if err != nil {
			return err
		}
		copy(occ[vLo:vHi], own)
		sopt.ResumeFrom = &core.Snapshot{Round: h.Resume.Round, Moves: h.Resume.Moves, Occupied: occ}
	}

	res, err := solve(fi, sopt)
	if err != nil {
		return err
	}
	p := encodeResult(&resultPayload{
		Rounds:    res.Stats.Rounds,
		Messages:  res.Stats.Messages,
		MaxActive: res.Stats.MaxActiveUnoccupied,
		Final:     local.PackBools(nil, res.Final[vLo:vHi]),
		Moves:     res.Moves,
	})
	if err := conn.Write(local.FrameResult, p); err != nil {
		return err
	}
	return conn.Flush()
}

// decodeStrict strictly parses a JSON control payload into v.
func decodeStrict(body []byte, v any, what string) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return &local.WireError{Op: what, Detail: "strict decode failed", Err: err}
	}
	if dec.More() {
		return &local.WireError{Op: what, Detail: "trailing data"}
	}
	return nil
}

// roundHeader extracts the round/count header of a Msgs payload.
func roundHeader(body []byte) (round, count int, ok bool) {
	if len(body) < 8 {
		return 0, 0, false
	}
	return int(binary.BigEndian.Uint32(body[0:4])), int(binary.BigEndian.Uint32(body[4:8])), true
}
