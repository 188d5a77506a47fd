package orient

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"tokendrop/internal/core"
	"tokendrop/internal/graph"
)

// orientFamilies enumerates the graph families of the orientation
// resume-equivalence suite: regular, heavy-tailed, grid, caterpillar.
var orientFamilies = []struct {
	name  string
	build func(i int, rng *rand.Rand) *graph.CSR
}{
	{"regular", func(i int, rng *rand.Rand) *graph.CSR {
		return graph.CSRRandomRegular(40+2*(i%5), 4+2*(i%2), rng)
	}},
	{"powerlaw", func(i int, rng *rand.Rand) *graph.CSR {
		return graph.CSRPowerLaw(60+5*i, 2.0+0.2*float64(i%3), 8+i, rng)
	}},
	{"grid", func(i int, rng *rand.Rand) *graph.CSR {
		return graph.NewCSRFromGraph(graph.Grid2D(4+i%4, 5+i%3))
	}},
	{"caterpillar", func(i int, rng *rand.Rand) *graph.CSR {
		return graph.NewCSRFromGraph(graph.Caterpillar(10+3*i, 2+i%3))
	}},
}

// checkOrientResumeMatch compares a resumed run against the
// uninterrupted baseline field by field.
func checkOrientResumeMatch(t *testing.T, label string, base, resumed *ShardedResult) {
	t.Helper()
	if !reflect.DeepEqual(base.Head, resumed.Head) {
		t.Fatalf("%s: resumed orientation diverged", label)
	}
	if !reflect.DeepEqual(base.Load, resumed.Load) {
		t.Fatalf("%s: resumed loads diverged", label)
	}
	if base.Phases != resumed.Phases || base.Rounds != resumed.Rounds {
		t.Fatalf("%s: phases/rounds %d/%d != %d/%d", label,
			base.Phases, base.Rounds, resumed.Phases, resumed.Rounds)
	}
	if !reflect.DeepEqual(base.PhaseLog, resumed.PhaseLog) {
		t.Fatalf("%s: resumed phase log diverged", label)
	}
}

// captureEvery solves with a capture after every phase and returns the
// result with a copy of each capture (the solver rewrites its buffer).
func captureEvery(t *testing.T, c *graph.CSR, opt ShardedOptions) (*ShardedResult, []*Snapshot) {
	t.Helper()
	var snaps []*Snapshot
	opt.SnapshotEvery = 1
	opt.OnSnapshot = func(s *Snapshot) error {
		cp := new(Snapshot)
		captureSnapshot(cp, s.Phase, s.Oriented, s.Rounds, s.Head, s.Load, s.Rngs, s.PhaseLog)
		snaps = append(snaps, cp)
		return nil
	}
	res, err := SolveSharded(c, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != res.Phases {
		t.Fatalf("%d snapshots over %d phases", len(snaps), res.Phases)
	}
	return res, snaps
}

// TestOrientResumeEquivalence: across graph families, tie rules, and
// shard counts, a run resumed from the snapshot at every phase cursor
// bit-matches the uninterrupted run.
func TestOrientResumeEquivalence(t *testing.T) {
	shardChoices := []int{1, 2, 8}
	for fam := range orientFamilies {
		f := orientFamilies[fam]
		t.Run(f.name, func(t *testing.T) {
			for i := 0; i < 6; i++ {
				rng := rand.New(rand.NewSource(int64(200*fam + i)))
				c := f.build(i, rng)
				for _, tie := range []core.TieBreak{core.TieFirstPort, core.TieRandom} {
					opt := ShardedOptions{
						Tie: tie, Seed: int64(i), Shards: shardChoices[i%len(shardChoices)],
						CheckInvariants: true,
					}
					base, err := SolveSharded(c, opt)
					if err != nil {
						t.Fatal(err)
					}
					again, snaps := captureEvery(t, c, opt)
					checkOrientResumeMatch(t, "capture run", base, again)

					ropt := opt
					ropt.Shards = shardChoices[(i+1)%len(shardChoices)]
					for _, snap := range snaps {
						ropt.ResumeFrom = snap
						resumed, err := SolveSharded(c, ropt)
						if err != nil {
							t.Fatalf("resume at phase %d: %v", snap.Phase, err)
						}
						checkOrientResumeMatch(t, fmt.Sprintf("run resumed at phase %d", snap.Phase), base, resumed)
					}
				}
			}
		})
	}
}

// TestOrientResumeRejectsBadSnapshots checks restore validation: shape
// mismatches, inconsistent counters and loads, heads off their edges,
// tie-rule mismatches, a phase log that does not account for the
// cursors, and a state breaking Lemma 5.4 fail loudly, on a mid-run
// snapshot and on the last phase's (which has no later phase to trip
// over a corrupt state by accident). A snapshot that has spent the
// whole phase budget fails at its next phase.
func TestOrientResumeRejectsBadSnapshots(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	c := graph.CSRRandomRegular(40, 4, rng)
	opt := ShardedOptions{Tie: core.TieFirstPort, Seed: 1, Shards: 2}
	base, all := captureEvery(t, c, opt)
	snaps := []*Snapshot{all[max(base.Phases/2, 1)-1], all[base.Phases-1]}

	cases := []struct {
		name   string
		mutate func(s *Snapshot)
	}{
		{"truncated heads", func(s *Snapshot) { s.Head = s.Head[:len(s.Head)-1] }},
		{"negative phase", func(s *Snapshot) { s.Phase = -1 }},
		{"oriented count drift", func(s *Snapshot) { s.Oriented++ }},
		{"head out of range", func(s *Snapshot) { s.Head[0] = int32(c.N()) }},
		{"load drift", func(s *Snapshot) { s.Load[0]++ }},
		{"head not an endpoint", func(s *Snapshot) {
			// Point the first oriented edge at a vertex off the edge,
			// keeping the loads consistent with the moved head.
			for v := 0; v < c.N(); v++ {
				lo, hi := c.ArcRange(v)
				for i := lo; i < hi; i++ {
					id, h := c.EID[i], s.Head[c.EID[i]]
					if h < 0 {
						continue
					}
					x := int32(0)
					for x == int32(v) || x == c.Col[i] {
						x++
					}
					s.Head[id] = x
					s.Load[h]--
					s.Load[x]++
					return
				}
			}
			panic("no oriented edge")
		}},
		{"stray rng streams", func(s *Snapshot) { s.Rngs = make([]uint64, c.N()) }},
		{"phase log truncated", func(s *Snapshot) { s.PhaseLog = s.PhaseLog[:len(s.PhaseLog)-1] }},
		{"phase record renumbered", func(s *Snapshot) { s.PhaseLog[len(s.PhaseLog)-1].Phase++ }},
		{"rounds drift", func(s *Snapshot) { s.Rounds++ }},
		{"badness above 1", func(s *Snapshot) {
			// Flip an oriented edge whose head is no more loaded than its
			// tail, keeping the loads consistent: it ends at badness ≥ 2.
			for v := 0; v < c.N(); v++ {
				lo, hi := c.ArcRange(v)
				for i := lo; i < hi; i++ {
					id, w := c.EID[i], c.Col[i]
					if s.Head[id] == w && s.Load[w] <= s.Load[v] {
						s.Head[id] = int32(v)
						s.Load[w]--
						s.Load[v]++
						return
					}
				}
			}
			panic("no oriented edge of badness ≤ 0")
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, snap := range snaps {
				bad := &Snapshot{
					Phase:    snap.Phase,
					Oriented: snap.Oriented,
					Rounds:   snap.Rounds,
					Head:     append([]int32(nil), snap.Head...),
					Load:     append([]int32(nil), snap.Load...),
					PhaseLog: append([]PhaseRecord(nil), snap.PhaseLog...),
				}
				tc.mutate(bad)
				ropt := opt
				ropt.ResumeFrom = bad
				if _, err := SolveSharded(c, ropt); err == nil {
					t.Fatalf("tampered snapshot at phase %d resumed without error", snap.Phase)
				}
			}
		})
	}

	// The phase budget stays outside the table, whose rows also run on
	// the last capture, where no phase remains: a valid all-unoriented
	// snapshot that has spent all 4·Δ + 8 phases crosses the Lemma 5.5
	// guard on its next phase.
	budget := 4*c.MaxDegree() + 8
	spent := &Snapshot{Phase: budget, Rounds: 2 * budget, Head: make([]int32, c.M()), Load: make([]int32, c.N())}
	for id := range spent.Head {
		spent.Head[id] = -1
	}
	for p := 1; p <= budget; p++ {
		spent.PhaseLog = append(spent.PhaseLog, PhaseRecord{Phase: p})
	}
	ropt := opt
	ropt.ResumeFrom = spent
	if _, err := SolveSharded(c, ropt); err == nil || !strings.Contains(err.Error(), "exceeds the Lemma 5.5 budget") {
		t.Fatalf("resume at the phase budget: %v", err)
	}
}

// TestOrientSnapshotBufferReuse checks the solver-owned buffer: every
// capture of a solve arrives in the same Snapshot value and its slices
// are reused once grown.
func TestOrientSnapshotBufferReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	c := graph.CSRRandomRegular(60, 6, rng)
	var buf *Snapshot
	var captures int
	var firstHead *int32
	opt := ShardedOptions{Tie: core.TieFirstPort, Seed: 1, Shards: 2}
	opt.SnapshotEvery = 1
	opt.OnSnapshot = func(s *Snapshot) error {
		if buf == nil {
			buf = s
		} else if s != buf {
			t.Fatal("capture bypassed the solver-owned buffer")
		}
		captures++
		if firstHead == nil {
			firstHead = &s.Head[0]
		} else if firstHead != &s.Head[0] {
			t.Fatal("snapshot buffer reallocated between captures")
		}
		return nil
	}
	res, err := SolveSharded(c, opt)
	if err != nil {
		t.Fatal(err)
	}
	if captures != res.Phases {
		t.Fatalf("%d captures over %d phases", captures, res.Phases)
	}
}
