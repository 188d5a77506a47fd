package local

import "fmt"

// This file is the sharded engine's side of the failure model
// (ARCHITECTURE.md §"Failure model and recovery"). Two mechanisms
// compose:
//
//   - The worker pool self-heals: any panic on a worker's round path —
//     injected or organic (a buggy program) — is recovered at the
//     goroutine boundary, the barrier still completes, the worker
//     respawns, and Run returns a *WorkerCrashError instead of killing
//     the process. The session remains usable; the crashed run's
//     program state is undefined (a shard died mid-step), which is why
//     recovery means re-running, not patching — the snapshot layer in
//     internal/core resumes from the last quiescent capture and the
//     result bit-matches an uninterrupted run.
//
//   - ShardedOptions.Fault names the engine's one injection point,
//     FaultSiteRound: the coordinator visits it once per round, so site
//     visit numbers are round numbers and a TriggerAt schedule crashes
//     a deterministic round. KindCrash panics one seeded-chosen worker
//     mid-round (exercising the recovery path above); KindStall sleeps
//     that worker, which must not change any result (the barrier
//     already tolerates arbitrary shard skew); KindError aborts the run
//     at the quiescent barrier without touching any worker.
//
// Both are free when unused: the per-round site visit is a nil check,
// and the goroutine-boundary recover costs nothing until a panic
// actually unwinds — the warmed AllocsPerRun == 0 pins and the tdbench
// CPU-time bounds both hold with this code compiled in.

// FaultSiteRound is the engine's failpoint, visited by the run
// coordinator once per round before the round is dispatched (visit n =
// round n). Arm it through the fault.Registry wired into
// core.ShardedSolveOptions.Fault, or directly via ShardedOptions.Fault.
const FaultSiteRound = "engine/round"

// WorkerCrashError reports that a worker goroutine panicked during a
// round — an injected crash or an organic program bug. The barrier
// completed, the worker respawned, and the session remains usable, but
// the run's program state is undefined and the caller must re-run
// (typically resuming from a snapshot; see core.ShardedSolveOptions
// AutoResume). If several shards crashed in the same round, the lowest
// shard is reported.
type WorkerCrashError struct {
	// Shard is the worker that crashed.
	Shard int
	// Round is the round being executed when it crashed.
	Round int
	// Value is the recovered panic value; for injected crashes it is a
	// *fault.Panic.
	Value any
}

// Error describes the crash.
func (e *WorkerCrashError) Error() string {
	return fmt.Sprintf("local: shard %d crashed in round %d: %v", e.Shard, e.Round, e.Value)
}

// Unwrap exposes the panic value's error chain, so an injected crash
// matches errors.Is(err, fault.ErrInjected).
func (e *WorkerCrashError) Unwrap() error {
	if err, ok := e.Value.(error); ok {
		return err
	}
	return nil
}

var _ error = (*WorkerCrashError)(nil)
