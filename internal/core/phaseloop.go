package core

import (
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"tokendrop/internal/local"
	"tokendrop/internal/reuse"
)

// PhaseLoop runs the sharded phase loops, one frame for both. Theorems 5.1
// and 7.3 run the same phase: a load broadcast and an accept (two
// communication rounds), then one token dropping game on the badness-1
// edges, which Section 7 swaps for customers. A layer supplies its
// PhaseBody and its budget; the loop owns the rest — the resume cursor
// and the checks every restore shares, the budget guard, the phase log
// and round counter, the max-badness reduction, and the capture buffer.
// A value drives any number of solves, one at a time.
type PhaseLoop[S any] struct {
	// Layer prefixes every error the loop returns. Lemma and Param name
	// the phase budget in its error, Bound the parameter's value: the
	// loop aborts past phase 4·Bound + 8, which only non-termination
	// crosses.
	Layer, Lemma, Param string
	Bound               int
	// Body is the layer's half; before the first phase and after each
	// phase the loop runs its Badness pass over BadnessItems items.
	Body         PhaseBody[S]
	BadnessItems int

	// Phases, Rounds and Log are the outcome of the last Run.
	Phases, Rounds int
	Log            []PhaseRecord

	rec    PhaseRecord // the open phase's record
	snap   S           // the capture buffer, rewritten per capture
	part   []int32     // per-shard badness maxima
	kernel local.Kernel
}

// PhaseBody is a layer's half of a PhaseLoop over snapshots of type S:
// Done reports that every edge or customer is placed; Step runs steps
// 1–6 of a phase into its numbered record, filling every counter but
// MaxBadness; Badness is the maximum badness over items [lo, hi), and
// it marks the items that enter the next phase's game (steps 1 and 2
// change no load or placement, so step 3 reads the marks as written);
// Capture fills snap from the layer's arrays after a phase; Cursor
// checks a resume snapshot's shape and reads its cursor, and Restore
// validates the rest and installs the layer's arrays.
type PhaseBody[S any] interface {
	Done() bool
	Step(phase int, rec *PhaseRecord) error
	Badness(lo, hi int) int32
	Capture(snap *S, phase, rounds int, log []PhaseRecord)
	Cursor(rs *S) (PhaseCursor, error)
	Restore(rs *S) error
}

// PhaseCursor is what a phase-loop snapshot says about the loop.
type PhaseCursor struct {
	Phase, Rounds int
	Log           []PhaseRecord
	Streams       []TieStreams
}

// TieStreams pairs a solve's TieRandom streams (nil under TieFirstPort)
// with a snapshot's; Owners ("vertices") names them in errors.
type TieStreams struct {
	Owners      string
	Live, Saved []uint64
}

// Run drives one solve on sess until the body is Done: from phase 1, or
// from the cursor of ck.ResumeFrom.
func (l *PhaseLoop[S]) Run(sess *local.Session, tie TieBreak, ck Checkpoint[S]) error {
	l.Phases, l.Rounds, l.Log = 0, 0, l.Log[:0]
	if rs := ck.ResumeFrom; rs != nil {
		if err := l.resume(rs, tie); err != nil {
			return fmt.Errorf("%s: %w", l.Layer, err)
		}
	}
	l.part = reuse.Grown(l.part, sess.Shards())
	if l.kernel == nil {
		l.kernel = func(sh, lo, hi int) { l.part[sh] = l.Body.Badness(lo, hi) }
	}
	sess.ParallelFor(l.BadnessItems, l.kernel) // the first phase's game marks
	for phase := l.Phases + 1; !l.Body.Done(); phase++ {
		if phase > 4*l.Bound+8 {
			return fmt.Errorf("%s: phase %d exceeds the %s budget (%s=%d)", l.Layer, phase, l.Lemma, l.Param, l.Bound)
		}
		l.rec = PhaseRecord{Phase: phase}
		if err := l.Body.Step(phase, &l.rec); err != nil {
			return fmt.Errorf("%s: %w", l.Layer, err)
		}
		l.Rounds += 2 + l.rec.GameRounds
		sess.ParallelFor(l.BadnessItems, l.kernel)
		l.rec.MaxBadness = int(slices.Max(l.part))
		l.Log = append(l.Log, l.rec)
		l.Phases = phase
		if ck.Due(phase) {
			l.Body.Capture(&l.snap, phase, l.Rounds, l.Log)
			if err := ck.OnSnapshot(&l.snap); err != nil {
				return fmt.Errorf("%s: snapshot at phase %d: %w", l.Layer, phase, err)
			}
		}
	}
	return nil
}

// resume checks rs in a fixed order — its shape (Cursor), its phase log
// against its cursors, its TieRandom streams against the tie rule and
// the solve's stream counts, the rest of its state (Restore) — and only
// then installs its streams and its cursor.
func (l *PhaseLoop[S]) resume(rs *S, tie TieBreak) error {
	cur, err := l.Body.Cursor(rs)
	if err != nil {
		return err
	}
	if err := CheckPhaseLog(cur.Phase, cur.Rounds, cur.Log); err != nil {
		return fmt.Errorf("resume snapshot: %w", err)
	}
	if err := checkStreams(tie, cur.Streams); err != nil {
		return err
	}
	if err := l.Body.Restore(rs); err != nil {
		return err
	}
	for _, s := range cur.Streams {
		copy(s.Live, s.Saved)
	}
	l.Phases, l.Rounds = cur.Phase, cur.Rounds
	l.Log = append(l.Log, cur.Log...)
	return nil
}

// checkStreams checks a snapshot's TieRandom streams against the solve's
// tie rule and stream counts.
func checkStreams(tie TieBreak, ss []TieStreams) error {
	var have, want []string
	ok := true
	for _, s := range ss {
		if tie != TieRandom && s.Saved != nil {
			return errors.New("resume snapshot carries TieRandom streams but the solve uses TieFirstPort")
		}
		ok = ok && len(s.Saved) == len(s.Live)
		have = append(have, strconv.Itoa(len(s.Saved)))
		want = append(want, fmt.Sprintf("%d %s", len(s.Live), s.Owners))
	}
	if tie == TieRandom && !ok {
		return fmt.Errorf("resume snapshot carries %s TieRandom streams for %s",
			strings.Join(have, "/"), strings.Join(want, " / "))
	}
	return nil
}

// Bid is step 2 of a phase, the accept, for one proposal: proposer p
// bids for target t, in one pass over the phase's proposers in
// ascending order. accepted[t] holds t's pick, -1 until t's first bid.
// Under TieFirstPort (streams nil) the first bid wins; under TieRandom
// every bid draws TieKeep once from t's stream, counting t's bids in
// bids, so the pick is uniform. It reports whether the bid was t's first.
func Bid(accepted, bids []int32, streams []uint64, t int, p int32) (first bool) {
	first = accepted[t] < 0
	if first {
		accepted[t] = p
	}
	if streams != nil {
		if first {
			bids[t] = 0
		}
		if bids[t]++; TieKeep(&streams[t], int(bids[t])) {
			accepted[t] = p
		}
	}
	return first
}

// CheckPotential checks a phase game's potential identity: every move
// drops one token one level, so Σ level over the final placement is Σ
// level over the initial tokens minus the move count.
func CheckPotential(level []int32, token, final []bool, moves int) error {
	var before, after int64
	for v, l := range level {
		if token[v] {
			before += int64(l)
		}
		if final[v] {
			after += int64(l)
		}
	}
	if got := before - int64(moves); got != after {
		return fmt.Errorf("potential identity broken: %d != %d", got, after)
	}
	return nil
}

// CheckLoadGrowth checks Lemma 5.3 and its Section 7.2 analogue: a phase
// raises by one the load of exactly the vertices (servers) where a token
// rests when its game ends. Errors name entry i as at, i + offset.
func CheckLoadGrowth(before, load []int32, final []bool, at string, offset int) error {
	for v, b := range before {
		want := b
		if final[v] {
			want++
		}
		if load[v] != want {
			return fmt.Errorf("%s %d: load %d -> %d, destination=%v", at, v+offset, b, load[v], final[v])
		}
	}
	return nil
}
