package mp

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/exec"
	"reflect"
	"strings"
	"testing"

	"tokendrop/internal/core"
	"tokendrop/internal/fault"
	"tokendrop/internal/graph"
	"tokendrop/internal/local"
)

// TestMain doubles as the worker executable: the coordinator respawns
// this test binary with TD_MP_WORKER=1 and speaks the transport
// protocol over its pipes, so the multi-process tests exercise real
// processes, real pipes, and real SIGKILL.
func TestMain(m *testing.M) {
	if os.Getenv("TD_MP_WORKER") == "1" {
		if err := WorkerMain(os.Stdin, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "worker:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// selfWorker builds worker commands that re-execute this test binary.
func selfWorker(proc int) *exec.Cmd {
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "TD_MP_WORKER=1")
	return cmd
}

// layered12k is the differential workhorse: a ~12k-vertex random
// layered game (the E22 shape at CI scale).
func layered12k(seed int64) *core.FlatInstance {
	rng := rand.New(rand.NewSource(seed))
	inst := core.RandomLayered(core.LayeredConfig{
		Levels: 5, Width: 2000, ParentDeg: 3, TokenProb: 0.6, FreeBottom: true,
	}, rng)
	return core.NewFlatInstance(inst)
}

// maxRounds caps every solve of these tests. Their games finish in at
// most 31 rounds; without a cap the engine default of 2^20 lockstep
// rounds over pipes lets a protocol bug that leaves one vertex awake run
// for minutes instead of failing.
const maxRounds = 1 << 10

// solveInMemory runs the reference in-memory sharded solve.
func solveInMemory(t *testing.T, fi *core.FlatInstance, solver string, tie core.TieBreak, seed int64, shards int) *core.FlatResult {
	t.Helper()
	sopt := core.ShardedSolveOptions{Tie: tie, Seed: seed, MaxRounds: maxRounds, Shards: shards}
	var res *core.FlatResult
	var err error
	if solver == "threelevel" {
		res, err = core.SolveThreeLevelSharded(fi, sopt)
	} else {
		res, err = core.SolveProposalSharded(fi, sopt)
	}
	if err != nil {
		t.Fatalf("in-memory solve: %v", err)
	}
	return res
}

// TestSolveMatchesInMemory is the multi-process lockstep contract: the
// same game solved across separate OS processes must be bit-identical —
// final placement, move log, every stat — to the in-memory engine,
// under both tie rules and across process counts.
func TestSolveMatchesInMemory(t *testing.T) {
	fi := layered12k(7)
	for _, tc := range []struct {
		tie   core.TieBreak
		procs int
		spp   int
	}{
		{core.TieFirstPort, 2, 1},
		{core.TieFirstPort, 3, 2},
		{core.TieRandom, 2, 2},
		{core.TieRandom, 3, 1},
	} {
		name := fmt.Sprintf("tie=%d/procs=%d/spp=%d", tc.tie, tc.procs, tc.spp)
		t.Run(name, func(t *testing.T) {
			want := solveInMemory(t, fi, "proposal", tc.tie, 42, tc.procs*tc.spp)
			got, stats, err := Solve(fi, Options{
				Procs: tc.procs, ShardsPerProc: tc.spp,
				Solver: "proposal", Tie: tc.tie, Seed: 42,
				MaxRounds: maxRounds, Command: selfWorker,
			})
			if err != nil {
				t.Fatalf("mp solve: %v", err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("mp result diverged from the in-memory engine:\n  mp: rounds=%d moves=%d messages=%d\n  mem: rounds=%d moves=%d messages=%d",
					got.Stats.Rounds, len(got.Moves), got.Stats.Messages,
					want.Stats.Rounds, len(want.Moves), want.Stats.Messages)
			}
			if stats.Rounds != want.Stats.Rounds || stats.Restarts != 0 {
				t.Fatalf("run stats %+v, want rounds=%d restarts=0", stats, want.Stats.Rounds)
			}
		})
	}
}

// TestSolveThreeLevel runs the second flat solver through the same
// multi-process path on a 3-level game.
func TestSolveThreeLevel(t *testing.T) {
	fi := core.FlatLayeredGrid(3, 2000, 1)
	for _, tie := range []core.TieBreak{core.TieFirstPort, core.TieRandom} {
		want := solveInMemory(t, fi, "threelevel", tie, 11, 2)
		got, _, err := Solve(fi, Options{
			Procs: 2, Solver: "threelevel", Tie: tie, Seed: 11, MaxRounds: maxRounds, Command: selfWorker,
		})
		if err != nil {
			t.Fatalf("tie=%d: mp solve: %v", tie, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("tie=%d: threelevel mp result diverged from the in-memory engine", tie)
		}
	}
}

// TestSolveArclessMatchesInMemory runs a fleet whose two workers both
// own vertices without arcs, with and without tokens, on every level of
// a 3-level game. The engine starts such vertices halted on the worker
// that owns them, so the fleet must still bit-match the in-memory solve
// for both solvers under both tie rules.
func TestSolveArclessMatchesInMemory(t *testing.T) {
	const levels, width = 3, 300
	rng := rand.New(rand.NewSource(13))
	n := levels * width
	level := make([]int32, n)
	token := make([]bool, n)
	arcless := func(v int) bool { return v%width%7 == 3 }
	b := graph.NewCSRBuilder(n, 2*n)
	for v := 0; v < n; v++ {
		level[v] = int32(v / width)
		token[v] = rng.Intn(5) < 3
		if level[v] == 0 || arcless(v) {
			continue
		}
		for _, c := range rng.Perm(width)[:3] {
			if u := v - width - v%width + c; !arcless(u) {
				b.AddEdge(v, u)
			}
		}
	}
	fi, err := core.NewFlatInstanceCSR(b.Build(), level, token)
	if err != nil {
		t.Fatal(err)
	}
	// Worker 0 owns the vertices before the arc-balanced split of a
	// 2-shard layout, worker 1 the rest; arc-less vertex 3 is on level
	// 0 and n-width+3 on level 2.
	csr := fi.CSR()
	split := 0
	for int(csr.Row[split]) < csr.NumArcs()/2 {
		split++
	}
	if split <= 3 || split >= n-width+3 {
		t.Fatalf("split at vertex %d of %d leaves a worker without arc-less vertices", split, n)
	}
	for _, solver := range []string{"proposal", "threelevel"} {
		for _, tie := range []core.TieBreak{core.TieFirstPort, core.TieRandom} {
			want := solveInMemory(t, fi, solver, tie, 17, 2)
			got, _, err := Solve(fi, Options{
				Procs: 2, Solver: solver, Tie: tie, Seed: 17, MaxRounds: maxRounds, Command: selfWorker,
			})
			if err != nil {
				t.Fatalf("%s tie=%d: mp solve: %v", solver, tie, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s tie=%d: mp result diverged from the in-memory engine", solver, tie)
			}
		}
	}
}

// TestSolveLarge is the scale acceptance bar: a ≥10⁵-vertex game across
// two processes, bit-identical under both tie rules.
func TestSolveLarge(t *testing.T) {
	if testing.Short() {
		t.Skip("10⁵-vertex solve in -short mode")
	}
	fi := core.FlatLayeredGrid(11, 10000, 3) // 110,000 vertices
	for _, tie := range []core.TieBreak{core.TieFirstPort, core.TieRandom} {
		want := solveInMemory(t, fi, "proposal", tie, 1, 2)
		got, _, err := Solve(fi, Options{
			Procs: 2, Solver: "proposal", Tie: tie, Seed: 1, MaxRounds: maxRounds, Command: selfWorker,
		})
		if err != nil {
			t.Fatalf("tie=%d: mp solve: %v", tie, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("tie=%d: 110k-vertex mp result diverged from the in-memory engine", tie)
		}
	}
}

// TestWireAccountingMatchesPlan ties the static E29 numbers to reality:
// the coordinator's actual frame and byte counters must equal
// local.MPWireCost's plan-derived per-round cost times the rounds
// routed.
func TestWireAccountingMatchesPlan(t *testing.T) {
	fi := layered12k(3)
	const procs, spp = 3, 2
	got, stats, err := Solve(fi, Options{
		Procs: procs, ShardsPerProc: spp, Solver: "proposal", Seed: 5, MaxRounds: maxRounds, Command: selfWorker,
	})
	if err != nil {
		t.Fatalf("mp solve: %v", err)
	}
	frames, bytes, err := local.MPWireCost(fi.CSR(), procs, spp)
	if err != nil {
		t.Fatalf("MPWireCost: %v", err)
	}
	rounds := int64(stats.RoundsExecuted)
	if stats.WireFrames != int64(frames)*rounds {
		t.Fatalf("WireFrames = %d, plan says %d frames/round × %d rounds = %d",
			stats.WireFrames, frames, rounds, int64(frames)*rounds)
	}
	if stats.WireBytes != bytes*rounds {
		t.Fatalf("WireBytes = %d, plan says %d bytes/round × %d rounds = %d",
			stats.WireBytes, bytes, rounds, bytes*rounds)
	}
	if got.Stats.Rounds != stats.RoundsExecuted {
		t.Fatalf("executed %d rounds for a %d-round solve with no restarts",
			stats.RoundsExecuted, got.Stats.Rounds)
	}
}

// TestKillWorkerAutoResume is the process-loss recovery story: a worker
// SIGKILLed mid-run is recovered by respawning the fleet and
// fast-forwarding through the retained quiescent snapshot, and the
// recovered result still bit-matches the uninterrupted in-memory run.
func TestKillWorkerAutoResume(t *testing.T) {
	fi := layered12k(9)
	want := solveInMemory(t, fi, "proposal", core.TieFirstPort, 42, 2)
	if want.Stats.Rounds < 10 {
		t.Fatalf("test instance solves in %d rounds; too short to kill at round 8", want.Stats.Rounds)
	}
	reg := fault.NewRegistry(1)
	if _, sched, err := fault.ParseSpec("mp/worker:crash:at=8"); err != nil {
		t.Fatal(err)
	} else {
		reg.Arm(FaultSiteWorker, sched)
	}
	got, stats, err := Solve(fi, Options{
		Procs: 2, Solver: "proposal", Seed: 42,
		SnapshotEvery: 4, AutoResume: 2,
		Fault: reg, MaxRounds: maxRounds, Command: selfWorker,
	})
	if err != nil {
		t.Fatalf("mp solve with kill at round 8: %v", err)
	}
	if stats.Restarts != 1 {
		t.Fatalf("restarts = %d, want 1", stats.Restarts)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("recovered mp result diverged from the uninterrupted in-memory run")
	}
}

// TestKillWorkerNoBudget: the same loss without AutoResume surfaces a
// structured WorkerLostError.
func TestKillWorkerNoBudget(t *testing.T) {
	fi := layered12k(9)
	reg := fault.NewRegistry(1)
	_, sched, err := fault.ParseSpec("mp/worker:crash:at=3")
	if err != nil {
		t.Fatal(err)
	}
	reg.Arm(FaultSiteWorker, sched)
	_, _, err = Solve(fi, Options{
		Procs: 2, Solver: "proposal", Seed: 42, Fault: reg, MaxRounds: maxRounds, Command: selfWorker,
	})
	var lost *WorkerLostError
	if !errors.As(err, &lost) {
		t.Fatalf("error = %v, want a *WorkerLostError", err)
	}
}

// dialWorker drives WorkerMain in-process over pipes, so the worker's
// side of the protocol is testable without subprocesses: it plays
// coordinator up to the instance transfer, sending proc 0 of procs a
// handshake altered by mutate and then the instance. finish closes the
// worker's input and returns WorkerMain's error.
func dialWorker(tb testing.TB, fi *core.FlatInstance, procs int, mutate func(*local.Handshake)) (conn *local.FrameConn, finish func() error) {
	tb.Helper()
	toWorkerR, toWorkerW := io.Pipe()
	fromWorkerR, fromWorkerW := io.Pipe()
	workerErr := make(chan error, 1)
	go func() {
		workerErr <- WorkerMain(toWorkerR, fromWorkerW)
		fromWorkerW.Close()
	}()
	conn = local.NewFrameConn(fromWorkerR, toWorkerW)
	if _, err := expectFrame(conn, local.FrameHello); err != nil {
		tb.Fatalf("hello: %v", err)
	}
	payload := EncodeInstance(fi)
	h := &local.Handshake{
		Version:       local.WireVersion,
		GraphHash:     InstanceHash(payload),
		Solver:        "proposal",
		Tie:           "first-port",
		Procs:         procs,
		Proc:          0,
		ShardsPerProc: 1,
		Bounds:        local.ShardBounds(fi.CSR(), procs),
	}
	mutate(h)
	hb, err := local.EncodeHandshake(h)
	if err != nil {
		tb.Fatal(err)
	}
	if err := conn.Write(local.FrameHandshake, hb); err != nil {
		tb.Fatal(err)
	}
	if err := conn.Write(local.FrameInstance, payload); err != nil {
		tb.Fatal(err)
	}
	if err := conn.Flush(); err != nil {
		tb.Fatal(err)
	}
	return conn, func() error {
		toWorkerW.Close()
		return <-workerErr
	}
}

// handshakeProbe sends a (possibly corrupted) handshake to an
// in-process worker and returns the worker's FrameError text.
func handshakeProbe(t *testing.T, fi *core.FlatInstance, mutate func(*local.Handshake)) string {
	t.Helper()
	conn, finish := dialWorker(t, fi, 2, mutate)
	ft, body, err := conn.Read()
	if err != nil {
		t.Fatalf("reading the worker's verdict: %v", err)
	}
	if ft != local.FrameError {
		t.Fatalf("worker accepted a corrupted handshake (sent a %s frame)", ft)
	}
	msg := local.DecodeErrorFrame(body)
	if err := finish(); err == nil {
		t.Fatal("WorkerMain returned nil after rejecting the handshake")
	}
	return msg
}

// TestHandshakeRejections: every mismatch the handshake guards —
// version, graph hash, tie rule, solver, shard map — fails loudly with
// a structured error naming the field.
func TestHandshakeRejections(t *testing.T) {
	fi := core.FlatLayeredGrid(3, 50, 1)
	cases := []struct {
		name   string
		mutate func(*local.Handshake)
		want   string
	}{
		{"version", func(h *local.Handshake) { h.Version = 99 }, "version"},
		{"graph hash", func(h *local.Handshake) { h.GraphHash = strings.Repeat("0", 64) }, "graph_hash"},
		{"tie rule", func(h *local.Handshake) { h.Tie = "coin-flip" }, "tie"},
		{"solver", func(h *local.Handshake) { h.Solver = "quantum" }, "solver"},
		{"shard map", func(h *local.Handshake) { h.Bounds[1]++ }, "bounds"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			msg := handshakeProbe(t, fi, tc.mutate)
			if !strings.Contains(msg, tc.want) {
				t.Fatalf("rejection %q does not name the %q field", msg, tc.want)
			}
			if !strings.Contains(msg, "handshake rejected") && !strings.Contains(msg, "wire") {
				t.Fatalf("rejection %q is not a structured handshake/wire error", msg)
			}
		})
	}
}

// TestInstanceCodecRoundTrip: the binary instance transfer reproduces
// the exact CSR, levels, and tokens.
func TestInstanceCodecRoundTrip(t *testing.T) {
	fi := layered12k(5)
	payload := EncodeInstance(fi)
	back, err := DecodeInstance(payload)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(back.CSR(), fi.CSR()) {
		t.Fatal("CSR did not round-trip")
	}
	for v := 0; v < fi.N(); v++ {
		if back.Level(v) != fi.Level(v) || back.Token(v) != fi.Token(v) {
			t.Fatalf("vertex %d: level/token did not round-trip", v)
		}
	}
	if InstanceHash(payload) != InstanceHash(EncodeInstance(back)) {
		t.Fatal("re-encoding changed the instance hash")
	}
}

// TestInstanceCodecRejectsCorruption: truncated, size-inconsistent and
// inconsistent-graph instance payloads fail with errors rather than
// panicking.
func TestInstanceCodecRejectsCorruption(t *testing.T) {
	payload := EncodeInstance(core.FlatLayeredGrid(3, 20, 1))
	for _, tc := range []struct {
		name string
		b    []byte
	}{
		{"empty", nil},
		{"header only", payload[:8]},
		{"truncated", payload[:len(payload)-3]},
		{"oversized", append(append([]byte(nil), payload...), 0xff)},
		{"shared edge id", sharedEdgeIDPayload()},
	} {
		if _, err := DecodeInstance(tc.b); err == nil {
			t.Fatalf("%s instance payload decoded without error", tc.name)
		}
	}
}

// sharedEdgeIDPayload is an instance payload in EncodeInstance's layout
// whose two edges, 0–1 and 2–3, both carry edge id 0. Every other field
// is consistent, so only Validate's one-edge-per-id rule rejects it;
// accepted, a solve reports two moves through edge 0 and Instance()
// panics on the edge id no edge carries.
func sharedEdgeIDPayload() []byte {
	var b []byte
	for _, xs := range [][]int32{
		{4, 4},          // n, arcs
		{0, 1, 2, 3, 4}, // Row
		{1, 0, 3, 2},    // Col
		{0, 0, 0, 0},    // EID
		{1, 0, 3, 2},    // Rev
		{1, 0, 1, 0},    // levels
	} {
		for _, x := range xs {
			b = binary.BigEndian.AppendUint32(b, uint32(x))
		}
	}
	return append(b, local.PackBools(nil, []bool{true, false, true, false})...)
}

// soloResult plays the coordinator of a one-worker fleet and returns the
// worker's FrameResult payload. With one worker every deliv frame
// echoes the msgs frame's header: the round, and the worker's own awake
// count as the global one.
func soloResult(tb testing.TB, fi *core.FlatInstance) []byte {
	tb.Helper()
	conn, finish := dialWorker(tb, fi, 1, func(*local.Handshake) {})
	for awake := -1; awake != 0; {
		body, err := expectFrame(conn, local.FrameMsgs)
		if err != nil {
			tb.Fatalf("msgs: %v", err)
		}
		_, awake, _ = roundHeader(body)
		if err := conn.Write(local.FrameDeliv, body); err != nil {
			tb.Fatal(err)
		}
		if err := conn.Flush(); err != nil {
			tb.Fatal(err)
		}
	}
	body, err := expectFrame(conn, local.FrameResult)
	if err != nil {
		tb.Fatalf("result: %v", err)
	}
	result := bytes.Clone(body)
	if err := finish(); err != nil {
		tb.Fatalf("worker: %v", err)
	}
	return result
}

// FuzzDecodeResult drives the coordinator's result decoder over
// arbitrary bytes: every input must either fail with a *local.WireError
// or decode to a payload that re-encodes to the same bytes.
func FuzzDecodeResult(f *testing.F) {
	good := soloResult(f, core.FlatLayeredGrid(3, 20, 1))
	if rp, err := decodeResult(good); err != nil || len(rp.Moves) == 0 {
		f.Fatalf("worker result: %d moves, error %v", len(rp.Moves), err)
	}
	overrun := bytes.Clone(good)
	binary.BigEndian.PutUint32(overrun[20:24], binary.BigEndian.Uint32(overrun[20:24])+1)
	f.Add(good)
	f.Add(good[:resultHeader-1])
	f.Add(good[:len(good)-1])
	f.Add(append(bytes.Clone(good), 0))
	f.Add(overrun)
	f.Fuzz(func(t *testing.T, data []byte) {
		rp, err := decodeResult(data)
		if err != nil {
			var we *local.WireError
			if !errors.As(err, &we) {
				t.Fatalf("decoder returned a non-WireError: %v", err)
			}
			return
		}
		if !bytes.Equal(encodeResult(&rp), data) {
			t.Fatal("an accepted result does not re-encode to its input")
		}
	})
}

// FuzzDecodeInstance drives the worker's instance decoder over arbitrary
// bytes: it must never panic, and an accepted instance must convert to
// object form and re-encode to a fixed point. The fixed point is checked
// from the first re-encoding, not the input, because the token bitmap's
// padding bits are ignored on decode.
func FuzzDecodeInstance(f *testing.F) {
	for _, fi := range []*core.FlatInstance{
		core.FlatLayeredGrid(3, 20, 1),
		core.FlatRandomLayered(core.LayeredConfig{Levels: 4, Width: 6, ParentDeg: 2, TokenProb: 0.5},
			rand.New(rand.NewSource(1))),
	} {
		payload := EncodeInstance(fi)
		f.Add(payload)
		f.Add(payload[:8])
		f.Add(payload[:len(payload)-3])
	}
	f.Add(sharedEdgeIDPayload())
	f.Fuzz(func(t *testing.T, data []byte) {
		fi, err := DecodeInstance(data)
		if err != nil {
			return
		}
		_ = fi.Instance()
		once := EncodeInstance(fi)
		back, err := DecodeInstance(once)
		if err != nil {
			t.Fatalf("re-encoded instance rejected: %v", err)
		}
		if !bytes.Equal(EncodeInstance(back), once) {
			t.Fatal("re-encode not a fixed point")
		}
	})
}
