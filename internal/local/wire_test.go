package local

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"strings"
	"testing"

	"tokendrop/internal/graph"
)

// frame builds one encoded frame for hand-crafted streams.
func frame(t FrameType, payload []byte) []byte {
	b := make([]byte, 5+len(payload))
	binary.BigEndian.PutUint32(b[:4], uint32(len(payload)+1))
	b[4] = byte(t)
	copy(b[5:], payload)
	return b
}

func TestFrameConnRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewFrameConn(strings.NewReader(""), &buf)
	payloads := [][]byte{[]byte(`{"version":1}`), {}, []byte("abc"), bytes.Repeat([]byte{7}, 1<<17)}
	types := []FrameType{FrameHello, FrameMsgs, FrameSnap, FrameInstance}
	for i := range payloads {
		if err := w.Write(types[i], payloads[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	wantBytes := int64(0)
	for _, p := range payloads {
		wantBytes += int64(5 + len(p))
	}
	if w.FramesWritten != int64(len(payloads)) || w.BytesWritten != wantBytes {
		t.Fatalf("write accounting %d frames / %d bytes, want %d / %d",
			w.FramesWritten, w.BytesWritten, len(payloads), wantBytes)
	}

	r := NewFrameConn(bytes.NewReader(buf.Bytes()), io.Discard)
	for i := range payloads {
		ft, body, err := r.Read()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if ft != types[i] || !bytes.Equal(body, payloads[i]) {
			t.Fatalf("frame %d: got %s/%d bytes, want %s/%d", i, ft, len(body), types[i], len(payloads[i]))
		}
	}
	if r.FramesRead != int64(len(payloads)) || r.BytesRead != wantBytes {
		t.Fatalf("read accounting %d frames / %d bytes, want %d / %d",
			r.FramesRead, r.BytesRead, len(payloads), wantBytes)
	}
	if _, _, err := r.Read(); err == nil {
		t.Fatal("read past the last frame succeeded")
	}
}

// TestFrameConnRejections pins the decoder's strictness: truncated,
// torn, oversized, and unknown input all return a *WireError naming
// what was wrong — never a silent misparse.
func TestFrameConnRejections(t *testing.T) {
	valid := frame(FrameHello, []byte(`{"version":1}`))
	oversize := make([]byte, 4)
	binary.BigEndian.PutUint32(oversize, uint32(MaxFramePayload+1))
	cases := []struct {
		name   string
		stream []byte
		detail string // substring of the WireError
	}{
		{"empty stream", nil, "length prefix"},
		{"truncated length prefix", valid[:2], "length prefix"},
		{"zero-length frame", []byte{0, 0, 0, 0}, "zero-length"},
		{"oversized declared length", oversize, "exceeds"},
		{"missing type byte", valid[:4], "truncated before type byte"},
		{"unknown frame type", frame(FrameType(0x42), []byte("x")), "unknown frame type"},
		{"truncated payload", valid[:len(valid)-3], "truncated at"},
		// A torn stream: one byte vanishes mid-payload, so the next
		// header is read one byte early and lands on garbage. The second
		// read must fail, not deliver a shifted frame.
		{"torn between frames",
			append(append([]byte{}, valid[:len(valid)-1]...), frame(FrameError, EncodeErrorFrame("x"))...),
			""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			conn := NewFrameConn(bytes.NewReader(tc.stream), io.Discard)
			var err error
			for i := 0; i < 4 && err == nil; i++ {
				_, _, err = conn.Read()
			}
			if err == nil {
				t.Fatal("corrupt stream decoded without error")
			}
			var we *WireError
			if !errors.As(err, &we) {
				t.Fatalf("error %v is not a *WireError", err)
			}
			if tc.detail != "" && !strings.Contains(err.Error(), tc.detail) {
				t.Fatalf("error %q does not mention %q", err, tc.detail)
			}
		})
	}
}

func TestFrameConnWriteRefusesOversized(t *testing.T) {
	conn := NewFrameConn(strings.NewReader(""), io.Discard)
	err := conn.Write(FrameInstance, make([]byte, MaxFramePayload))
	var we *WireError
	if !errors.As(err, &we) || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("oversized write not refused: %v", err)
	}
	if conn.FramesWritten != 0 {
		t.Fatal("refused write was counted")
	}
}

func TestHandshakeStrictDecode(t *testing.T) {
	h := &Handshake{Version: WireVersion, GraphHash: "abc", Solver: "proposal", Tie: "first-port",
		Procs: 2, Proc: 1, ShardsPerProc: 1, Bounds: []int{0, 3, 6}, MaxRounds: 10}
	b, err := EncodeHandshake(h)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeHandshake(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.GraphHash != "abc" || got.Procs != 2 || len(got.Bounds) != 3 {
		t.Fatalf("handshake did not round-trip: %+v", got)
	}
	if err := got.CheckBasic(); err != nil {
		t.Fatalf("valid handshake rejected: %v", err)
	}

	for name, raw := range map[string]string{
		"unknown field": `{"version":1,"future_knob":true}`,
		"trailing data": string(b) + `{"version":1}`,
		"not json":      `version=1`,
	} {
		if _, err := DecodeHandshake([]byte(raw)); err == nil {
			t.Fatalf("%s accepted", name)
		} else if !strings.Contains(err.Error(), "handshake") {
			t.Fatalf("%s: error %q does not name the handshake", name, err)
		}
	}
}

func TestHandshakeCheckBasic(t *testing.T) {
	valid := func() Handshake {
		return Handshake{Version: WireVersion, Solver: "proposal", Tie: "first-port",
			Procs: 2, Proc: 0, ShardsPerProc: 2, Bounds: []int{0, 1, 2, 3, 4}}
	}
	cases := []struct {
		name   string
		mutate func(*Handshake)
		field  string
	}{
		{"wrong version", func(h *Handshake) { h.Version = WireVersion + 1 }, "version"},
		{"proc out of range", func(h *Handshake) { h.Proc = 2 }, "proc"},
		{"negative proc", func(h *Handshake) { h.Proc = -1 }, "proc"},
		{"zero shards per proc", func(h *Handshake) { h.ShardsPerProc = 0 }, "shards_per_proc"},
		{"bounds wrong length", func(h *Handshake) { h.Bounds = []int{0, 4} }, "bounds"},
		{"decreasing bounds", func(h *Handshake) { h.Bounds = []int{0, 3, 2, 3, 4} }, "bounds"},
		{"empty solver", func(h *Handshake) { h.Solver = "" }, "solver"},
		{"empty tie", func(h *Handshake) { h.Tie = "" }, "tie"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := valid()
			tc.mutate(&h)
			err := h.CheckBasic()
			var he *HandshakeError
			if !errors.As(err, &he) || he.Field != tc.field {
				t.Fatalf("want a HandshakeError on %q, got %v", tc.field, err)
			}
		})
	}
}

func TestPackUnpackBools(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 7, 8, 9, 64, 1000} {
		src := make([]bool, n)
		for i := range src {
			src[i] = rng.Intn(2) == 1
		}
		packed := PackBools(nil, src)
		if len(packed) != (n+7)/8 {
			t.Fatalf("n=%d: packed to %d bytes", n, len(packed))
		}
		got, err := UnpackBools(nil, packed, n)
		if err != nil {
			t.Fatal(err)
		}
		for i := range src {
			if got[i] != src[i] {
				t.Fatalf("n=%d: bit %d did not round-trip", n, i)
			}
		}
		if _, err := UnpackBools(nil, append(packed, 0), n); err == nil {
			t.Fatalf("n=%d: oversized bitmap accepted", n)
		}
	}
}

// TestExchangePlanPartition checks the plan against first principles on
// a real graph: every boundary-crossing slot appears in exactly one
// block, no within-region slot appears anywhere, and the word totals
// agree between the send and receive sides.
func TestExchangePlanPartition(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	csr := graph.NewCSRFromGraph(graph.RandomRegular(400, 4, rng))
	for _, procs := range []int{2, 3, 5} {
		bounds := ShardBounds(csr, procs)
		pl := NewExchangePlan(csr, bounds)
		if pl.Procs() != procs {
			t.Fatalf("procs=%d: plan reports %d", procs, pl.Procs())
		}
		seen := map[int32]int{}
		for from := 0; from < procs; from++ {
			for to := 0; to < procs; to++ {
				for _, slot := range pl.Block(from, to) {
					seen[slot]++
					if from == to {
						t.Fatalf("procs=%d: self-block (%d,%d) is not empty", procs, from, to)
					}
				}
			}
		}
		crossing := 0
		owner := func(arc int32) int {
			for p := 0; p < procs; p++ {
				if arc < csr.Row[bounds[p+1]] {
					return p
				}
			}
			t.Fatalf("arc %d has no owner", arc)
			return -1
		}
		for p := 0; p < procs; p++ {
			for i := csr.Row[bounds[p]]; i < csr.Row[bounds[p+1]]; i++ {
				if owner(csr.Rev[i]) != p {
					crossing++
					if seen[csr.Rev[i]] != 1 {
						t.Fatalf("procs=%d: crossing slot %d appears %d times", procs, csr.Rev[i], seen[csr.Rev[i]])
					}
				} else if seen[csr.Rev[i]] != 0 {
					t.Fatalf("procs=%d: within-region slot %d appears in a block", procs, csr.Rev[i])
				}
			}
		}
		up, down := 0, 0
		for p := 0; p < procs; p++ {
			up += pl.UpWords(p)
			down += pl.DownWords(p)
		}
		if up != crossing || down != crossing || pl.CrossWords() != int64(crossing) {
			t.Fatalf("procs=%d: up/down/cross = %d/%d/%d, want %d crossing slots",
				procs, up, down, pl.CrossWords(), crossing)
		}
		frames, wireBytes, err := MPWireCost(csr, procs, 1)
		if err != nil {
			t.Fatal(err)
		}
		if frames != 2*procs || wireBytes != int64(frames)*13+2*int64(crossing) {
			t.Fatalf("procs=%d: MPWireCost %d frames / %d bytes, want %d / %d",
				procs, frames, wireBytes, 2*procs, 2*procs*13+2*crossing)
		}
	}
}

func TestProcBoundsFromShardsRejections(t *testing.T) {
	if _, err := ProcBoundsFromShards([]int{0, 1, 2}, 2, 0); err == nil {
		t.Fatal("zero shards per proc accepted")
	}
	if _, err := ProcBoundsFromShards([]int{0, 1, 2}, 2, 2); err == nil {
		t.Fatal("wrong bounds length accepted")
	}
	pb, err := ProcBoundsFromShards([]int{0, 2, 4, 6, 8}, 2, 2)
	if err != nil || len(pb) != 3 || pb[0] != 0 || pb[1] != 4 || pb[2] != 8 {
		t.Fatalf("fold = %v, %v", pb, err)
	}
}

// exchangeHarness builds a ProcTransport whose coordinator side is a
// scripted byte stream, for protocol-violation tests.
func exchangeHarness(t *testing.T, reply []byte) (*ProcTransport, []Word) {
	t.Helper()
	csr := graph.NewCSRFromGraph(graph.Cycle(8))
	tr := NewProcTransport(NewFrameConn(bytes.NewReader(reply), io.Discard), 0, 2, 1)
	if err := tr.BeginRun(csr, ShardBounds(csr, 2)); err != nil {
		t.Fatal(err)
	}
	return tr, make([]Word, csr.NumArcs())
}

func TestProcTransportExchangeRejections(t *testing.T) {
	// Discover the expected deliv payload size from the plan.
	probe, _ := exchangeHarness(t, nil)
	down := probe.Plan().DownWords(0)
	goodDeliv := func(round, awake int) []byte {
		p := make([]byte, 8+down)
		binary.BigEndian.PutUint32(p[0:4], uint32(round))
		binary.BigEndian.PutUint32(p[4:8], uint32(awake))
		return p
	}

	t.Run("clean round", func(t *testing.T) {
		tr, buf := exchangeHarness(t, frame(FrameDeliv, goodDeliv(1, 9)))
		awake, err := tr.Exchange(1, buf, 4)
		if err != nil || awake != 9 {
			t.Fatalf("awake=%d err=%v", awake, err)
		}
	})
	t.Run("wrong frame type", func(t *testing.T) {
		tr, buf := exchangeHarness(t, frame(FrameSnap, goodDeliv(1, 9)))
		_, err := tr.Exchange(1, buf, 4)
		var we *WireError
		if !errors.As(err, &we) || !strings.Contains(err.Error(), "expected a deliv frame") {
			t.Fatalf("reordered frame not rejected: %v", err)
		}
	})
	t.Run("error frame surfaces reason", func(t *testing.T) {
		tr, buf := exchangeHarness(t, frame(FrameError, EncodeErrorFrame("sibling worker died")))
		_, err := tr.Exchange(1, buf, 4)
		if err == nil || !strings.Contains(err.Error(), "sibling worker died") {
			t.Fatalf("coordinator abort reason lost: %v", err)
		}
	})
	t.Run("wrong payload size", func(t *testing.T) {
		tr, buf := exchangeHarness(t, frame(FrameDeliv, goodDeliv(1, 9)[:7]))
		_, err := tr.Exchange(1, buf, 4)
		var we *WireError
		if !errors.As(err, &we) || !strings.Contains(err.Error(), "want") {
			t.Fatalf("short deliv not rejected: %v", err)
		}
	})
	t.Run("stale round echo", func(t *testing.T) {
		tr, buf := exchangeHarness(t, frame(FrameDeliv, goodDeliv(2, 9)))
		_, err := tr.Exchange(1, buf, 4)
		var we *WireError
		if !errors.As(err, &we) || !strings.Contains(err.Error(), "out of sync") {
			t.Fatalf("stale round echo not rejected: %v", err)
		}
	})
	t.Run("dead coordinator", func(t *testing.T) {
		tr, buf := exchangeHarness(t, nil)
		_, err := tr.Exchange(1, buf, 4)
		var we *WireError
		if !errors.As(err, &we) {
			t.Fatalf("EOF mid-round is not a WireError: %v", err)
		}
	})
}

func TestErrorFrameCodec(t *testing.T) {
	if got := DecodeErrorFrame(EncodeErrorFrame("boom")); got != "boom" {
		t.Fatalf("round-trip = %q", got)
	}
	for _, garbage := range [][]byte{nil, []byte("{"), []byte(`{"msg":""}`), []byte("not json")} {
		if got := DecodeErrorFrame(garbage); !strings.Contains(got, "unparseable") {
			t.Fatalf("garbage %q decoded to %q", garbage, got)
		}
	}
}

// FuzzFrameDecode drives the frame decoder (and the strict control-
// payload decoders behind it) over arbitrary byte streams: any input
// must either parse into frames with valid types or fail with an
// error — never panic, never deliver an invalid type. The committed
// seed corpus in testdata/fuzz covers the interesting shapes: valid
// conversations, torn streams, garbage lengths, unknown types.
func FuzzFrameDecode(f *testing.F) {
	hello := frame(FrameHello, []byte(`{"version":1}`))
	hs, _ := EncodeHandshake(&Handshake{Version: 1, GraphHash: "h", Solver: "proposal", Tie: "first-port",
		Procs: 2, Proc: 0, ShardsPerProc: 1, Bounds: []int{0, 1, 2}})
	f.Add([]byte{})
	f.Add(hello)
	f.Add(append(append([]byte{}, hello...), frame(FrameHandshake, hs)...))
	f.Add(frame(FrameError, EncodeErrorFrame("x")))
	f.Add(frame(FrameMsgs, []byte{0, 0, 0, 1, 0, 0, 0, 2, 7, 7}))
	// A result: 3 rounds, 9 messages, max active 1, a 1-byte bitmap and
	// one move (edge 0 from 1 to 0 in round 1).
	f.Add(frame(FrameResult, []byte{0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0, 9, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1,
		0x01, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 1}))
	f.Add(hello[:3])
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x01})
	f.Add([]byte{0, 0, 0, 2, 0x42, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		conn := NewFrameConn(bytes.NewReader(data), io.Discard)
		for i := 0; i < 1024; i++ {
			ft, body, err := conn.Read()
			if err != nil {
				var we *WireError
				if !errors.As(err, &we) {
					t.Fatalf("decoder returned a non-WireError: %v", err)
				}
				return
			}
			if !validFrameType(ft) {
				t.Fatalf("decoder delivered invalid type 0x%02x", uint8(ft))
			}
			if len(body)+1 > MaxFramePayload {
				t.Fatalf("decoder delivered %d payload bytes past the cap", len(body))
			}
			switch ft {
			case FrameHandshake:
				if h, err := DecodeHandshake(body); err == nil {
					_ = h.CheckBasic()
				}
			case FrameError:
				_ = DecodeErrorFrame(body)
			}
		}
	})
}
