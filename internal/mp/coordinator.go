package mp

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"time"

	"tokendrop/internal/core"
	"tokendrop/internal/encode"
	"tokendrop/internal/fault"
	"tokendrop/internal/local"
)

// FaultSiteWorker is the coordinator's failpoint: it is visited once
// per round before the round's frames are read, so 'mp/worker:crash:...'
// schedules deterministically SIGKILL a seeded-chosen worker process at
// a chosen round. Visit counts accumulate across AutoResume restarts
// (the registry outlives the attempt), so an at=N schedule fires once
// per run, exactly like the in-process engine/round site.
const FaultSiteWorker = "mp/worker"

// Options configure a multi-process solve.
type Options struct {
	// Procs is the worker-process count (≥ 1); ShardsPerProc the number
	// of engine shards each worker steps (default 1).
	Procs         int
	ShardsPerProc int
	// Solver names the flat solver: "proposal" or "threelevel".
	Solver string
	Tie    core.TieBreak
	Seed   int64
	// MaxRounds bounds the run (0 = the engine default).
	MaxRounds int
	// SnapshotEvery is the quiescent-snapshot cadence in rounds; workers
	// ship their slice of every capture to the coordinator, which
	// retains the latest complete set for crash recovery. Zero disables
	// capture (recovery then re-runs from round 1, equivalent by
	// determinism but unvalidated).
	SnapshotEvery int
	// AutoResume is the worker-loss retry budget: when a worker process
	// dies (EOF, broken pipe, injected kill), the coordinator kills the
	// fleet, respawns it, and re-runs with the retained snapshot as the
	// validated fast-forward cursor, up to AutoResume times. Zero
	// surfaces the first loss as an error.
	AutoResume int
	// Fault, if non-nil, arms FaultSiteWorker from this registry.
	Fault *fault.Registry
	// Command builds the (unstarted) worker process for the given proc
	// index; its stdin/stdout are claimed by the coordinator and its
	// process must run WorkerMain over them (td-run re-executes itself
	// with a hidden flag). Stderr passes through to this process's
	// stderr unless already set.
	Command func(proc int) *exec.Cmd
}

// RunStats describes a finished multi-process solve from the
// coordinator's seat.
type RunStats struct {
	// Rounds is the solved game's round count; RoundsExecuted counts
	// every round the coordinator routed, including rounds re-executed
	// by AutoResume restarts.
	Rounds, RoundsExecuted int
	// Restarts is how many times the fleet was respawned.
	Restarts int
	// WireFrames and WireBytes count the round-path frames (msgs +
	// deliv, headers included) across all attempts. With no restarts,
	// WireBytes == MPWireCost bytes/round × Rounds exactly — the
	// accounting the E29 benchmark entries and their gate rely on.
	WireFrames, WireBytes int64
}

// WorkerLostError reports a worker process that stopped answering —
// killed, crashed, or torn mid-frame. It unwraps to fault.ErrInjected
// only through the schedule that caused it; AutoResume treats every
// worker loss as recoverable.
type WorkerLostError struct {
	Proc  int
	Round int
	Err   error
}

// Error describes the loss.
func (e *WorkerLostError) Error() string {
	return fmt.Sprintf("mp: worker %d lost at round %d: %v", e.Proc, e.Round, e.Err)
}

// Unwrap exposes the underlying transport error.
func (e *WorkerLostError) Unwrap() error { return e.Err }

// recoverable reports whether the AutoResume loop may retry err: a lost
// worker process or an injected coordinator fault. Handshake
// rejections, resume-validation failures, and worker-reported solve
// errors are final.
func recoverable(err error) bool {
	var lost *WorkerLostError
	return errors.As(err, &lost) || errors.Is(err, fault.ErrInjected)
}

// retainedSnaps is the latest complete quiescent snapshot set: every
// worker's slice at the same round cursor.
type retainedSnaps struct {
	have  bool
	round int
	moves []int
	occ   [][]byte
}

// worker is one spawned worker process and its framed connection.
type worker struct {
	cmd   *exec.Cmd
	conn  *local.FrameConn
	stdin io.Closer
}

// Solve runs fi across opt.Procs worker processes and returns a result
// bit-identical to the in-memory engine's (the lockstep contract; the
// differential tests assert it under both tie rules). Worker-process
// loss is recovered through opt.AutoResume exactly like an in-process
// worker crash: respawn, validated fast-forward from the retained
// quiescent snapshot, continue.
func Solve(fi *core.FlatInstance, opt Options) (*core.FlatResult, RunStats, error) {
	var stats RunStats
	if opt.Procs < 1 {
		return nil, stats, fmt.Errorf("mp: %d worker processes", opt.Procs)
	}
	if opt.ShardsPerProc < 1 {
		opt.ShardsPerProc = 1
	}
	if opt.Solver == "" {
		opt.Solver = "proposal"
	}
	if opt.Command == nil {
		return nil, stats, fmt.Errorf("mp: no worker command configured")
	}
	payload := EncodeInstance(fi)
	hash := InstanceHash(payload)
	bounds := local.ShardBounds(fi.CSR(), opt.Procs*opt.ShardsPerProc)
	retained := &retainedSnaps{}
	for attempt := 0; ; attempt++ {
		res, err := runOnce(fi, payload, hash, bounds, opt, retained, &stats)
		if err == nil || attempt >= opt.AutoResume || !recoverable(err) {
			return res, stats, err
		}
		stats.Restarts++
	}
}

// killAll tears down every still-tracked worker process.
func killAll(workers []*worker) {
	for _, w := range workers {
		if w == nil {
			continue
		}
		if w.cmd.Process != nil {
			_ = w.cmd.Process.Kill()
		}
		_ = w.stdin.Close()
		_ = w.cmd.Wait()
	}
}

// runOnce executes one attempt: spawn the fleet, handshake, route
// rounds, collect the result. retained is updated with every complete
// snapshot set so a later attempt can fast-forward.
func runOnce(fi *core.FlatInstance, payload []byte, hash string, bounds []int,
	opt Options, retained *retainedSnaps, stats *RunStats) (result *core.FlatResult, err error) {
	procs, spp := opt.Procs, opt.ShardsPerProc
	csr := fi.CSR()
	workers := make([]*worker, procs)
	defer killAll(workers)

	for p := 0; p < procs; p++ {
		cmd := opt.Command(p)
		stdin, err := cmd.StdinPipe()
		if err != nil {
			return nil, err
		}
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			return nil, err
		}
		if cmd.Stderr == nil {
			cmd.Stderr = os.Stderr
		}
		if err := cmd.Start(); err != nil {
			return nil, fmt.Errorf("mp: spawning worker %d: %w", p, err)
		}
		workers[p] = &worker{cmd: cmd, conn: local.NewFrameConn(stdout, stdin), stdin: stdin}
	}

	// Handshake every worker: hello in, configuration + instance out.
	for p, w := range workers {
		body, err := expectFrame(w.conn, local.FrameHello)
		if err != nil {
			return nil, &WorkerLostError{Proc: p, Err: err}
		}
		var hello local.Hello
		if err := decodeStrict(body, &hello, "hello"); err != nil {
			return nil, &WorkerLostError{Proc: p, Err: err}
		}
		if hello.Version != local.WireVersion {
			return nil, &local.HandshakeError{Field: "version",
				Got: fmt.Sprint(hello.Version), Want: fmt.Sprint(local.WireVersion)}
		}
		h := &local.Handshake{
			Version:       local.WireVersion,
			GraphHash:     hash,
			Solver:        opt.Solver,
			Tie:           encode.TieName(opt.Tie),
			Seed:          opt.Seed,
			MaxRounds:     opt.MaxRounds,
			Procs:         procs,
			Proc:          p,
			ShardsPerProc: spp,
			Bounds:        bounds,
			SnapshotEvery: opt.SnapshotEvery,
		}
		if retained.have {
			h.Resume = &local.ResumeState{
				Round:    retained.round,
				Moves:    retained.moves[p],
				Occupied: retained.occ[p],
			}
		}
		hb, err := local.EncodeHandshake(h)
		if err != nil {
			return nil, err
		}
		if err := w.conn.Write(local.FrameHandshake, hb); err != nil {
			return nil, &WorkerLostError{Proc: p, Err: err}
		}
		if err := w.conn.Write(local.FrameInstance, payload); err != nil {
			return nil, &WorkerLostError{Proc: p, Err: err}
		}
		if err := w.conn.Flush(); err != nil {
			return nil, &WorkerLostError{Proc: p, Err: err}
		}
	}

	procBounds, err := local.ProcBoundsFromShards(bounds, procs, spp)
	if err != nil {
		return nil, err
	}
	plan := local.NewExchangePlan(csr, procBounds)
	// offsets[q*procs+p]: where Block(q,p) starts inside worker q's msgs
	// payload (after the 8-byte round/awake header, destination
	// processes ascending, q itself skipped).
	offsets := make([]int, procs*procs)
	for q := 0; q < procs; q++ {
		off := 8
		for p := 0; p < procs; p++ {
			if p == q {
				continue
			}
			offsets[q*procs+p] = off
			off += len(plan.Block(q, p))
		}
	}

	site := opt.Fault.Site(FaultSiteWorker)
	maxRounds := opt.MaxRounds
	if maxRounds == 0 {
		maxRounds = 1 << 20
	}
	msgs := make([][]byte, procs)
	var dbuf []byte
	pendingMoves := make([]int, procs)
	pendingOcc := make([][]byte, procs)

	for round := 1; ; round++ {
		if round > maxRounds+1 {
			// The workers bound their own loops; reaching this means they
			// did not, which is a protocol bug, not a solve outcome.
			return nil, fmt.Errorf("mp: coordinator still routing after %d rounds", maxRounds)
		}
		if f, ok := site.Hit(); ok {
			switch f.Kind {
			case fault.KindCrash:
				victim := site.Intn(procs)
				if w := workers[victim]; w.cmd.Process != nil {
					_ = w.cmd.Process.Kill()
				}
			case fault.KindStall:
				time.Sleep(f.Delay)
			default:
				return nil, f.Err()
			}
		}

		awake := 0
		for p, w := range workers {
			body, err := expectMsgsFrame(w.conn, p, round)
			if err != nil {
				return nil, err
			}
			if want := 8 + plan.UpWords(p); len(body) != want {
				return nil, &WorkerLostError{Proc: p, Round: round, Err: &local.WireError{
					Op: "msgs payload", Detail: fmt.Sprintf("%d bytes, want %d", len(body), want)}}
			}
			r, a, _ := roundHeader(body)
			if r != round {
				return nil, &WorkerLostError{Proc: p, Round: round, Err: &local.WireError{
					Op: "msgs payload", Detail: fmt.Sprintf("round echo %d, want %d", r, round)}}
			}
			awake += a
			msgs[p] = body
			stats.WireFrames++
			stats.WireBytes += int64(5 + len(body))
		}

		for p, w := range workers {
			d := append(dbuf[:0], 0, 0, 0, 0, 0, 0, 0, 0)
			binary.BigEndian.PutUint32(d[0:4], uint32(round))
			binary.BigEndian.PutUint32(d[4:8], uint32(awake))
			for q := 0; q < procs; q++ {
				if q == p {
					continue
				}
				off := offsets[q*procs+p]
				d = append(d, msgs[q][off:off+len(plan.Block(q, p))]...)
			}
			dbuf = d
			if err := w.conn.Write(local.FrameDeliv, d); err != nil {
				return nil, &WorkerLostError{Proc: p, Round: round, Err: err}
			}
			if err := w.conn.Flush(); err != nil {
				return nil, &WorkerLostError{Proc: p, Round: round, Err: err}
			}
			stats.WireFrames++
			stats.WireBytes += int64(5 + len(d))
		}
		stats.RoundsExecuted++

		if opt.SnapshotEvery > 0 && round%opt.SnapshotEvery == 0 {
			for p, w := range workers {
				body, err := expectFrame(w.conn, local.FrameSnap)
				if err != nil {
					return nil, wrapLost(p, round, err)
				}
				var sp snapPayload
				if err := decodeStrict(body, &sp, "snap payload"); err != nil {
					return nil, &WorkerLostError{Proc: p, Round: round, Err: err}
				}
				if sp.Round != round {
					return nil, &WorkerLostError{Proc: p, Round: round, Err: &local.WireError{
						Op: "snap payload", Detail: fmt.Sprintf("cursor %d, want %d", sp.Round, round)}}
				}
				pendingMoves[p] = sp.Moves
				pendingOcc[p] = append(pendingOcc[p][:0], sp.Occupied...)
			}
			// Commit only complete sets: every worker's slice at the same
			// cursor, so a restart resumes a consistent global state.
			retained.have = true
			retained.round = round
			retained.moves = append(retained.moves[:0], pendingMoves...)
			if retained.occ == nil {
				retained.occ = make([][]byte, procs)
			}
			for p := range pendingOcc {
				retained.occ[p] = append(retained.occ[p][:0], pendingOcc[p]...)
			}
		}

		if awake == 0 {
			res, err := collectResults(fi, workers, bounds, spp, round)
			if err != nil {
				return nil, err
			}
			stats.Rounds = round
			for p, w := range workers {
				_ = w.stdin.Close()
				if err := w.cmd.Wait(); err != nil {
					return nil, fmt.Errorf("mp: worker %d exited uncleanly after the result: %w", p, err)
				}
				workers[p] = nil
			}
			return res, nil
		}
	}
}

// wrapLost classifies an error from a worker conversation: transport
// failures mean the process is gone (recoverable), while a relayed
// FrameError or protocol violation is a final, structured failure.
func wrapLost(p, round int, err error) error {
	var we *local.WireError
	if errors.As(err, &we) && we.Err != nil {
		return &WorkerLostError{Proc: p, Round: round, Err: err}
	}
	return fmt.Errorf("mp: worker %d at round %d: %w", p, round, err)
}

// expectMsgsFrame reads worker p's round frame, classifying transport
// failures as worker loss and relaying worker-reported errors verbatim.
func expectMsgsFrame(conn *local.FrameConn, p, round int) ([]byte, error) {
	t, body, err := conn.Read()
	if err != nil {
		return nil, &WorkerLostError{Proc: p, Round: round, Err: err}
	}
	switch t {
	case local.FrameMsgs:
		return body, nil
	case local.FrameError:
		return nil, fmt.Errorf("mp: worker %d failed at round %d: %s", p, round, local.DecodeErrorFrame(body))
	default:
		return nil, &WorkerLostError{Proc: p, Round: round, Err: &local.WireError{
			Op: "protocol", Detail: fmt.Sprintf("expected a msgs frame, got %s", t)}}
	}
}

// collectResults reads every worker's result frame and assembles the
// global FlatResult: placements are disjoint slices, and the per-worker
// move logs — each already round-major — merge by round
// (core.MergeByRound) into the exact global order of the in-memory
// engine.
func collectResults(fi *core.FlatInstance, workers []*worker, bounds []int, spp, round int) (*core.FlatResult, error) {
	n := fi.N()
	final := make([]bool, n)
	logs := make([][]core.Move, len(workers))
	total := 0
	var messages int64
	maxActive := 0
	for p, w := range workers {
		body, err := expectFrame(w.conn, local.FrameResult)
		if err != nil {
			return nil, wrapLost(p, round, err)
		}
		rp, err := decodeResult(body)
		if err != nil {
			return nil, &WorkerLostError{Proc: p, Round: round, Err: err}
		}
		logs[p] = rp.Moves
		total += len(rp.Moves)
		if rp.Rounds != round {
			return nil, fmt.Errorf("mp: worker %d solved %d rounds, coordinator routed %d", p, rp.Rounds, round)
		}
		vLo, vHi := bounds[p*spp], bounds[(p+1)*spp]
		own, err := local.UnpackBools(nil, rp.Final, vHi-vLo)
		if err != nil {
			return nil, &WorkerLostError{Proc: p, Round: round, Err: err}
		}
		copy(final[vLo:vHi], own)
		messages += rp.Messages
		if rp.MaxActive > maxActive {
			maxActive = rp.MaxActive
		}
	}
	all := make([]core.Move, 0, total)
	core.MergeByRound(logs, func(m core.Move) int { return m.Round }, func(ms []core.Move) {
		all = append(all, ms...)
	})
	return &core.FlatResult{
		Final: final,
		Moves: all,
		Stats: core.DistStats{Rounds: round, Messages: messages, MaxActiveUnoccupied: maxActive},
	}, nil
}
