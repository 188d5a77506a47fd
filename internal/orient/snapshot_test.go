package orient

import (
	"math/rand"
	"reflect"
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

// TestOrientResumeEquivalence: across graph families, tie rules, and
// shard counts, a run snapshotted at a random phase cursor and resumed
// from the snapshot bit-matches the uninterrupted run.
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
					if base.Phases < 1 {
						continue
					}
					cursor := 1 + rng.Intn(base.Phases)

					var snap *Snapshot
					sopt := opt
					sopt.SnapshotAt = cursor
					sopt.OnSnapshot = func(s *Snapshot) error { snap = s; return nil }
					again, err := SolveSharded(c, sopt)
					if err != nil {
						t.Fatal(err)
					}
					checkOrientResumeMatch(t, "capture run", base, again)
					if snap == nil {
						t.Fatalf("no snapshot at phase %d of %d", cursor, base.Phases)
					}

					ropt := opt
					ropt.Shards = shardChoices[(i+1)%len(shardChoices)]
					ropt.ResumeFrom = snap
					resumed, err := SolveSharded(c, ropt)
					if err != nil {
						t.Fatalf("resume at phase %d: %v", cursor, err)
					}
					checkOrientResumeMatch(t, "resumed run", base, resumed)
				}
			}
		})
	}
}

// TestOrientResumeRejectsBadSnapshots checks restore validation: shape
// mismatches, inconsistent counters and loads, heads off their edges, and
// tie-rule mismatches fail loudly, on a mid-run snapshot and on the last
// phase's (which has no later phase to trip over a corrupt state by
// accident).
func TestOrientResumeRejectsBadSnapshots(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	c := graph.CSRRandomRegular(40, 4, rng)
	opt := ShardedOptions{Tie: core.TieFirstPort, Seed: 1, Shards: 2}
	base, err := SolveSharded(c, opt)
	if err != nil {
		t.Fatal(err)
	}
	var snaps []*Snapshot
	for _, at := range []int{max(base.Phases/2, 1), base.Phases} {
		sopt := opt
		sopt.SnapshotAt = at
		sopt.OnSnapshot = func(s *Snapshot) error { snaps = append(snaps, s); return nil }
		if _, err := SolveSharded(c, sopt); err != nil {
			t.Fatal(err)
		}
	}

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
}

// TestOrientSnapshotBufferReuse checks the caller-owned buffer
// discipline: with SnapshotInto set, every capture arrives in the same
// Snapshot value and its slices are reused once grown.
func TestOrientSnapshotBufferReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	c := graph.CSRRandomRegular(60, 6, rng)
	buf := new(Snapshot)
	var captures int
	var firstHead *int32
	opt := ShardedOptions{
		Tie: core.TieFirstPort, Seed: 1, Shards: 2,
		SnapshotEvery: 1,
		SnapshotInto:  buf,
		OnSnapshot: func(s *Snapshot) error {
			if s != buf {
				t.Fatal("capture bypassed the caller-owned buffer")
			}
			captures++
			if firstHead == nil {
				firstHead = &s.Head[0]
			} else if firstHead != &s.Head[0] {
				t.Fatal("snapshot buffer reallocated between captures")
			}
			return nil
		},
	}
	res, err := SolveSharded(c, opt)
	if err != nil {
		t.Fatal(err)
	}
	if captures != res.Phases {
		t.Fatalf("%d captures over %d phases", captures, res.Phases)
	}
}
