package local

import (
	"math/rand"
	"sync/atomic"
	"testing"

	"tokendrop/internal/graph"
)

// instrumentedCountdown wraps flatCountdown with an in-flight StepShard
// counter, so a test can assert the OnRound quiescence contract: no
// worker is inside StepShard while the hook runs.
type instrumentedCountdown struct {
	*flatCountdown
	inFlight atomic.Int32
	steps    atomic.Int64
}

func (p *instrumentedCountdown) StepShard(round, shard int, verts []int32, recv, send []Word, halted []bool) {
	p.inFlight.Add(1)
	p.steps.Add(1)
	p.flatCountdown.StepShard(round, shard, verts, recv, send, halted)
	p.inFlight.Add(-1)
}

// TestOnRoundQuiescence pins the capture contract the snapshot layers
// build on: OnRound fires exactly once per round, with strictly
// consecutive round numbers, while every worker is parked — so the hook
// can read all program state without synchronization.
func TestOnRoundQuiescence(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	csr := graph.CSRRandomRegular(64, 4, rng)
	prog := &instrumentedCountdown{flatCountdown: newFlatCountdown(csr, 6)}
	var rounds []int
	var stepsAtHook []int64
	stats, err := runOnce(csr, prog, 4, ShardedOptions{
		OnRound: func(round, awake int) {
			if got := prog.inFlight.Load(); got != 0 {
				t.Errorf("round %d: %d StepShard calls in flight during OnRound", round, got)
			}
			if awake < 0 || awake > csr.N() {
				t.Errorf("round %d: awake = %d out of range", round, awake)
			}
			rounds = append(rounds, round)
			stepsAtHook = append(stepsAtHook, prog.steps.Load())
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rounds) != stats.Rounds {
		t.Fatalf("OnRound fired %d times over %d rounds", len(rounds), stats.Rounds)
	}
	for i, r := range rounds {
		if r != i+1 {
			t.Fatalf("OnRound sequence %v is not 1..%d", rounds, stats.Rounds)
		}
	}
	// The step count observed by the hook never moves between the hook's
	// return and the next round's start: each round's hook sees every
	// step of rounds 1..r and none of round r+1.
	for i := 1; i < len(stepsAtHook); i++ {
		if stepsAtHook[i] <= stepsAtHook[i-1] {
			t.Fatalf("hook at round %d saw %d total steps, round %d saw %d",
				i, stepsAtHook[i-1], i+1, stepsAtHook[i])
		}
	}
}

// TestOnRoundStopInterplay: Stop is consulted after OnRound each round,
// and once it returns true neither hook fires again.
func TestOnRoundStopInterplay(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	csr := graph.CSRRandomRegular(32, 4, rng)
	prog := newFlatCountdown(csr, 100) // far more rounds than the stop cutoff
	var hookRounds, stopRounds []int
	const cutoff = 3
	stats, err := runOnce(csr, prog, 2, ShardedOptions{
		OnRound: func(round, awake int) {
			hookRounds = append(hookRounds, round)
		},
		Stop: func(round int) bool {
			if len(hookRounds) == 0 || hookRounds[len(hookRounds)-1] != round {
				t.Errorf("Stop(%d) ran before that round's OnRound", round)
			}
			stopRounds = append(stopRounds, round)
			return round >= cutoff
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Rounds != cutoff {
		t.Fatalf("run ended after %d rounds, want %d", stats.Rounds, cutoff)
	}
	if len(hookRounds) != cutoff || len(stopRounds) != cutoff {
		t.Fatalf("OnRound fired %d times, Stop %d times, want %d each",
			len(hookRounds), len(stopRounds), cutoff)
	}
}
