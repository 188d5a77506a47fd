package core

import (
	"math"
	"testing"
)

// TestCheckPhaseLog pins each condition of the phase-log check on its
// own: a log that fails exactly one of them is rejected, including the
// ones the resume suites cannot isolate (a truncated log whose round
// counter was shortened to match, a negative game-round count the sum
// hides, and a sum that only matches by integer overflow).
func TestCheckPhaseLog(t *testing.T) {
	log := []PhaseRecord{{Phase: 1, GameRounds: 3}, {Phase: 2, GameRounds: 0}}
	for _, c := range []struct {
		name          string
		phase, rounds int
		log           []PhaseRecord
		ok            bool
	}{
		{"valid", 2, 7, log, true},
		{"empty at phase 0", 0, 0, nil, true},
		{"negative phase", -1, 0, nil, false},
		{"truncated with rounds to match", 2, 5, log[:1], false},
		{"renumbered", 2, 7, []PhaseRecord{{Phase: 1, GameRounds: 3}, {Phase: 3}}, false},
		{"rounds above the log", 2, 8, log, false},
		{"rounds below the log", 2, 6, log, false},
		{"negative game rounds", 2, 7, []PhaseRecord{{Phase: 1, GameRounds: -1}, {Phase: 2, GameRounds: 4}}, false},
		{"sum matches only by overflow", 2, 2,
			[]PhaseRecord{{Phase: 1, GameRounds: math.MaxInt}, {Phase: 2, GameRounds: math.MaxInt}}, false},
	} {
		if err := CheckPhaseLog(c.phase, c.rounds, c.log); (err == nil) != c.ok {
			t.Errorf("%s: CheckPhaseLog = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}
