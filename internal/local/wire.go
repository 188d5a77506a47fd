package local

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
)

// This file is the transport wire format: length-prefixed, type-tagged
// frames over any byte stream (the multi-process mode uses the worker
// processes' stdin/stdout pipes). The format is deliberately strict —
// every decoder rejects truncated, oversized, or unknown input with a
// structured error instead of guessing — because a torn frame in the
// round path would otherwise corrupt a solve silently. The handshake is
// JSON with unknown fields disallowed, mirroring the versioned-snapshot
// conventions of internal/encode: a coordinator and worker built from
// different revisions must fail loudly at the handshake, not diverge
// mid-run.
//
// Frame layout (all integers big-endian):
//
//	u32 length   — byte length of what follows (type byte + payload)
//	u8  type     — one of the Frame* constants
//	...payload
//
// Round payloads (FrameMsgs, FrameDeliv) are binary:
//
//	u32 round — echoed both ways; a mismatch aborts the run
//	u32 awake — sender's own awake count (Msgs) / global count (Deliv)
//	...blocks — ExchangePlan word blocks, destination (Msgs) or
//	            source (Deliv) process ascending, own process skipped
//
// The result payload (FrameResult) is binary too, because it carries
// every move of the solve; internal/mp owns its layout and its strict
// decoder. The other control payloads (hello, handshake, snapshot,
// error) are strict JSON; they are off the per-round hot path.

// WireVersion is the transport protocol version. It participates in the
// handshake; both ends must agree exactly.
const WireVersion = 2

// MaxFramePayload bounds a frame's declared length (type byte +
// payload). The largest legitimate frame is the instance transfer — a
// few dozen bytes per arc — so a quarter gigabyte leaves room for
// 10⁷-arc graphs while rejecting garbage lengths from a corrupted or
// adversarial stream before any allocation happens.
const MaxFramePayload = 1 << 28

// FrameType tags a frame.
type FrameType uint8

// The frame types of the transport protocol.
const (
	FrameHello     FrameType = 0x01 // worker → coordinator: version announcement
	FrameHandshake FrameType = 0x02 // coordinator → worker: run configuration
	FrameInstance  FrameType = 0x03 // coordinator → worker: the flat instance
	FrameMsgs      FrameType = 0x10 // worker → coordinator: one round's boundary words
	FrameDeliv     FrameType = 0x11 // coordinator → worker: routed boundary words
	FrameSnap      FrameType = 0x12 // worker → coordinator: quiescent snapshot of its range
	FrameResult    FrameType = 0x20 // worker → coordinator: final per-range result
	FrameError     FrameType = 0x7f // either direction: structured failure
)

// String names the frame type for error messages.
func (t FrameType) String() string {
	switch t {
	case FrameHello:
		return "hello"
	case FrameHandshake:
		return "handshake"
	case FrameInstance:
		return "instance"
	case FrameMsgs:
		return "msgs"
	case FrameDeliv:
		return "deliv"
	case FrameSnap:
		return "snap"
	case FrameResult:
		return "result"
	case FrameError:
		return "error"
	}
	return fmt.Sprintf("unknown(0x%02x)", uint8(t))
}

// validFrameType reports whether t is a declared frame type; the
// decoder rejects others (a stream that got out of sync lands here).
func validFrameType(t FrameType) bool {
	switch t {
	case FrameHello, FrameHandshake, FrameInstance, FrameMsgs, FrameDeliv,
		FrameSnap, FrameResult, FrameError:
		return true
	}
	return false
}

// WireError is a structured transport failure: what the decoder was
// doing, and why the stream cannot be trusted any further. Every frame
// and payload decoder returns one (wrapping the underlying I/O error
// when there is one), so transport failures are distinguishable from
// solver failures by type.
type WireError struct {
	Op     string // what was being decoded, e.g. "frame header", "deliv payload"
	Detail string // what was wrong
	Err    error  // underlying I/O error, if any
}

// Error describes the failure.
func (e *WireError) Error() string {
	msg := fmt.Sprintf("local: wire: %s: %s", e.Op, e.Detail)
	if e.Err != nil {
		msg += ": " + e.Err.Error()
	}
	return msg
}

// Unwrap exposes the underlying I/O error.
func (e *WireError) Unwrap() error { return e.Err }

// FrameConn frames a byte stream: buffered reads and writes of
// length-prefixed frames, with byte and frame accounting for the
// message-volume experiments. Not safe for concurrent use; the
// transport protocol is strictly sequential per connection.
type FrameConn struct {
	r    *bufio.Reader
	w    *bufio.Writer
	rbuf []byte // reused read-payload buffer; valid until the next Read
	hdr  [5]byte
	// Counters of everything that crossed this connection, headers
	// included. FramesRead/BytesRead count inbound, the Written pair
	// outbound.
	FramesRead, FramesWritten int64
	BytesRead, BytesWritten   int64
}

// NewFrameConn wraps a read and a write stream (for a worker process,
// its stdin and stdout; for the coordinator, the other ends).
func NewFrameConn(r io.Reader, w io.Writer) *FrameConn {
	return &FrameConn{r: bufio.NewReaderSize(r, 1<<16), w: bufio.NewWriterSize(w, 1<<16)}
}

// Read returns the next frame's type and payload. The payload slice is
// owned by the connection and overwritten by the next Read; decode or
// copy it before reading again. Truncated input, oversized lengths, and
// unknown types all return a *WireError.
func (c *FrameConn) Read() (FrameType, []byte, error) {
	if _, err := io.ReadFull(c.r, c.hdr[:4]); err != nil {
		return 0, nil, &WireError{Op: "frame header", Detail: "reading length prefix", Err: err}
	}
	length := binary.BigEndian.Uint32(c.hdr[:4])
	if length < 1 {
		return 0, nil, &WireError{Op: "frame header", Detail: "zero-length frame (missing type byte)"}
	}
	if length > MaxFramePayload {
		return 0, nil, &WireError{Op: "frame header",
			Detail: fmt.Sprintf("declared length %d exceeds the %d cap", length, MaxFramePayload)}
	}
	if _, err := io.ReadFull(c.r, c.hdr[4:5]); err != nil {
		return 0, nil, &WireError{Op: "frame header", Detail: "truncated before type byte", Err: err}
	}
	t := FrameType(c.hdr[4])
	if !validFrameType(t) {
		return 0, nil, &WireError{Op: "frame header", Detail: fmt.Sprintf("unknown frame type 0x%02x", c.hdr[4])}
	}
	n := int(length) - 1
	if cap(c.rbuf) < n {
		c.rbuf = make([]byte, n)
	}
	c.rbuf = c.rbuf[:n]
	if m, err := io.ReadFull(c.r, c.rbuf); err != nil {
		return 0, nil, &WireError{Op: t.String() + " payload",
			Detail: fmt.Sprintf("truncated at %d of %d bytes", m, n), Err: err}
	}
	c.FramesRead++
	c.BytesRead += int64(4 + int(length))
	return t, c.rbuf, nil
}

// Write appends one frame to the connection's write buffer; call Flush
// to push it to the peer. Oversized payloads are refused — the cap is
// part of the protocol, so a frame the peer would reject is never sent.
func (c *FrameConn) Write(t FrameType, payload []byte) error {
	if len(payload)+1 > MaxFramePayload {
		return &WireError{Op: t.String() + " write",
			Detail: fmt.Sprintf("payload of %d bytes exceeds the %d cap", len(payload), MaxFramePayload)}
	}
	binary.BigEndian.PutUint32(c.hdr[:4], uint32(len(payload)+1))
	c.hdr[4] = byte(t)
	if _, err := c.w.Write(c.hdr[:5]); err != nil {
		return &WireError{Op: t.String() + " write", Detail: "writing header", Err: err}
	}
	if _, err := c.w.Write(payload); err != nil {
		return &WireError{Op: t.String() + " write", Detail: "writing payload", Err: err}
	}
	c.FramesWritten++
	c.BytesWritten += int64(5 + len(payload))
	return nil
}

// Flush pushes buffered frames to the peer.
func (c *FrameConn) Flush() error {
	if err := c.w.Flush(); err != nil {
		return &WireError{Op: "flush", Detail: "flushing write buffer", Err: err}
	}
	return nil
}

// Hello is the worker's first frame: its protocol version, checked
// before anything else is interpreted.
type Hello struct {
	Version int `json:"version"`
}

// Handshake is the coordinator's run configuration: everything a worker
// needs to reproduce the exact solve — and everything it must verify
// before stepping a single round. A mismatch on any field is a
// *HandshakeError; the worker refuses the run rather than computing a
// divergent answer.
type Handshake struct {
	// Version is the transport protocol version (WireVersion).
	Version int `json:"version"`
	// GraphHash is the hex SHA-256 of the instance frame's payload; the
	// worker recomputes it over what it actually received.
	GraphHash string `json:"graph_hash"`
	// Solver and Tie name the algorithm and tie rule (the
	// internal/encode names), Seed feeds the TieRandom streams.
	Solver string `json:"solver"`
	Tie    string `json:"tie"`
	Seed   int64  `json:"seed"`
	// MaxRounds bounds the run as in ShardedOptions.
	MaxRounds int `json:"max_rounds"`
	// Procs × ShardsPerProc is the global shard layout; Proc is this
	// worker's index. Bounds is the coordinator's shard map (global
	// shard → first vertex, len Procs*ShardsPerProc+1); the worker
	// recomputes it from the instance and refuses on any difference.
	Procs         int   `json:"procs"`
	Proc          int   `json:"proc"`
	ShardsPerProc int   `json:"shards_per_proc"`
	Bounds        []int `json:"bounds"`
	// SnapshotEvery is the quiescent-snapshot cadence in rounds (0
	// disables capture, and with it crash recovery).
	SnapshotEvery int `json:"snapshot_every"`
	// Resume, when present, asks the worker to re-execute rounds
	// 1..Resume.Round and verify its range against the snapshot before
	// continuing (the validated fast-forward of internal/core).
	Resume *ResumeState `json:"resume,omitempty"`
}

// ResumeState is the per-worker slice of a retained quiescent snapshot.
type ResumeState struct {
	// Round is the snapshot cursor (completed rounds).
	Round int `json:"round"`
	// Moves is how many moves this worker's shards had logged at the
	// cursor.
	Moves int `json:"moves"`
	// Occupied packs the token placement of the worker's vertex range
	// at the cursor, LSB-first within each byte.
	Occupied []byte `json:"occupied"`
}

// EncodeHandshake serializes h.
func EncodeHandshake(h *Handshake) ([]byte, error) { return json.Marshal(h) }

// DecodeHandshake parses a handshake payload strictly: unknown fields,
// trailing garbage, and malformed JSON are all rejected, so protocol
// drift between coordinator and worker revisions fails here.
func DecodeHandshake(b []byte) (*Handshake, error) {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	var h Handshake
	if err := dec.Decode(&h); err != nil {
		return nil, &WireError{Op: "handshake", Detail: "strict decode failed", Err: err}
	}
	if dec.More() {
		return nil, &WireError{Op: "handshake", Detail: "trailing data after the handshake object"}
	}
	return &h, nil
}

// HandshakeError reports a handshake field the worker cannot accept:
// the run the coordinator describes is not the run this worker would
// execute, so it refuses loudly instead of diverging.
type HandshakeError struct {
	Field string // which handshake field mismatched
	Got   string // what the coordinator sent
	Want  string // what this worker requires
}

// Error describes the mismatch.
func (e *HandshakeError) Error() string {
	return fmt.Sprintf("local: handshake rejected: %s = %s, want %s", e.Field, e.Got, e.Want)
}

// CheckBasic validates the handshake's self-consistency: protocol
// version, layout sanity, and a shard map of the right shape. Graph
// hash and shard-map contents are checked against the instance after it
// arrives (the caller has the CSR; see ProcTransport.VerifyBounds).
func (h *Handshake) CheckBasic() error {
	if h.Version != WireVersion {
		return &HandshakeError{Field: "version", Got: fmt.Sprint(h.Version), Want: fmt.Sprint(WireVersion)}
	}
	if h.Procs < 1 || h.Proc < 0 || h.Proc >= h.Procs {
		return &HandshakeError{Field: "proc", Got: fmt.Sprintf("%d of %d", h.Proc, h.Procs),
			Want: "0 ≤ proc < procs"}
	}
	if h.ShardsPerProc < 1 {
		return &HandshakeError{Field: "shards_per_proc", Got: fmt.Sprint(h.ShardsPerProc), Want: "≥ 1"}
	}
	if want := h.Procs*h.ShardsPerProc + 1; len(h.Bounds) != want {
		return &HandshakeError{Field: "bounds", Got: fmt.Sprintf("%d entries", len(h.Bounds)),
			Want: fmt.Sprintf("%d entries", want)}
	}
	for i := 1; i < len(h.Bounds); i++ {
		if h.Bounds[i] < h.Bounds[i-1] {
			return &HandshakeError{Field: "bounds", Got: fmt.Sprintf("decreasing at shard %d", i),
				Want: "non-decreasing vertex bounds"}
		}
	}
	if h.Solver == "" {
		return &HandshakeError{Field: "solver", Got: "(empty)", Want: "a solver name"}
	}
	if h.Tie == "" {
		return &HandshakeError{Field: "tie", Got: "(empty)", Want: "a tie rule name"}
	}
	return nil
}

// PackBools packs a bool slice LSB-first (the ResumeState.Occupied and
// result bitmap format).
func PackBools(dst []byte, src []bool) []byte {
	dst = dst[:0]
	for i, b := range src {
		if i%8 == 0 {
			dst = append(dst, 0)
		}
		if b {
			dst[len(dst)-1] |= 1 << (i % 8)
		}
	}
	return dst
}

// UnpackBools unpacks n bools from a PackBools bitmap; it fails on a
// bitmap of the wrong size.
func UnpackBools(dst []bool, src []byte, n int) ([]bool, error) {
	if len(src) != (n+7)/8 {
		return nil, &WireError{Op: "bitmap",
			Detail: fmt.Sprintf("%d bytes for %d bools (want %d)", len(src), n, (n+7)/8)}
	}
	if cap(dst) < n {
		dst = make([]bool, n)
	}
	dst = dst[:n]
	for i := range dst {
		dst[i] = src[i/8]&(1<<(i%8)) != 0
	}
	return dst, nil
}
