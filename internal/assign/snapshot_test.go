package assign

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"tokendrop/internal/core"
	"tokendrop/internal/graph"
)

// assignFamilies enumerates the network families of the assignment
// resume-equivalence suite.
var assignFamilies = []struct {
	name  string
	build func(i int, rng *rand.Rand) *graph.CSRBipartite
}{
	{"random", func(i int, rng *rand.Rand) *graph.CSRBipartite {
		nl, nr := 30+4*i, 8+i%5
		return graph.NewCSRBipartiteFromBipartite(
			graph.MustBipartite(graph.RandomBipartite(nl, nr, 2+i%3, rng), nl))
	}},
	{"regular", func(i int, rng *rand.Rand) *graph.CSRBipartite {
		nl, nr := 24+6*(i%3), 12+3*(i%3)
		return graph.NewCSRBipartiteFromBipartite(
			graph.MustBipartite(graph.RandomBipartiteRegular(nl, nr, 3, nl*3/nr, rng), nl))
	}},
	{"powerlaw", func(i int, rng *rand.Rand) *graph.CSRBipartite {
		nl, nr := 40+5*i, 10+i%4
		return graph.MustCSRBipartite(graph.CSRPowerLawBipartite(nl, nr, 2.0+0.2*float64(i%3), 1+nr/2, rng), nl)
	}},
	{"narrow", func(i int, rng *rand.Rand) *graph.CSRBipartite {
		// Few servers, many customers: long phase loops.
		nl, nr := 50+10*(i%3), 3+i%2
		return graph.NewCSRBipartiteFromBipartite(
			graph.MustBipartite(graph.RandomBipartite(nl, nr, 2, rng), nl))
	}},
}

// checkAssignResumeMatch compares a resumed run against the
// uninterrupted baseline field by field.
func checkAssignResumeMatch(t *testing.T, label string, base, resumed *ShardedResult) {
	t.Helper()
	if !reflect.DeepEqual(base.ServerOf, resumed.ServerOf) {
		t.Fatalf("%s: resumed assignment diverged", label)
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

// TestAssignResumeEquivalence: across network families, thresholds
// (the general problem and k = 2, 3), tie rules, and shard counts, a run
// snapshotted at a random phase cursor and resumed from the snapshot
// bit-matches the uninterrupted run.
func TestAssignResumeEquivalence(t *testing.T) {
	shardChoices := []int{1, 2, 8}
	for fam := range assignFamilies {
		f := assignFamilies[fam]
		t.Run(f.name, func(t *testing.T) {
			for i := 0; i < 6; i++ {
				rng := rand.New(rand.NewSource(int64(300*fam + i)))
				fb := f.build(i, rng)
				for _, k := range []int{0, 2 + i%2} {
					for _, tie := range []core.TieBreak{core.TieFirstPort, core.TieRandom} {
						opt := ShardedOptions{
							K: k, Tie: tie, Seed: int64(i), Shards: shardChoices[i%len(shardChoices)],
							CheckInvariants: true,
						}
						base, err := SolveSharded(fb, opt)
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
						again, err := SolveSharded(fb, sopt)
						if err != nil {
							t.Fatal(err)
						}
						checkAssignResumeMatch(t, "capture run", base, again)
						if snap == nil {
							t.Fatalf("no snapshot at phase %d of %d", cursor, base.Phases)
						}

						ropt := opt
						ropt.Shards = shardChoices[(i+1)%len(shardChoices)]
						ropt.ResumeFrom = snap
						resumed, err := SolveSharded(fb, ropt)
						if err != nil {
							t.Fatalf("resume at phase %d: %v", cursor, err)
						}
						checkAssignResumeMatch(t, "resumed run", base, resumed)
					}
				}
			}
		})
	}
}

// TestAssignResumeRejectsBadSnapshots checks restore validation for the
// general problem and the k-bounded relaxation, on a mid-run snapshot
// and on the last phase's (which has no later phase to trip over a
// corrupt state by accident).
func TestAssignResumeRejectsBadSnapshots(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	fb := graph.NewCSRBipartiteFromBipartite(
		graph.MustBipartite(graph.RandomBipartite(40, 8, 3, rng), 40))
	var snaps []*Snapshot
	for _, k := range []int{0, 2} {
		opt := ShardedOptions{K: k, Tie: core.TieFirstPort, Seed: 1, Shards: 2}
		base, err := SolveSharded(fb, opt)
		if err != nil {
			t.Fatal(err)
		}
		for _, at := range []int{min(1+base.Phases/2, base.Phases), base.Phases} {
			sopt := opt
			sopt.SnapshotAt = at
			sopt.OnSnapshot = func(s *Snapshot) error { snaps = append(snaps, s); return nil }
			if _, err := SolveSharded(fb, sopt); err != nil {
				t.Fatal(err)
			}
		}
	}

	cases := []struct {
		name   string
		mutate func(s *Snapshot)
	}{
		{"threshold mismatch", func(s *Snapshot) { s.K++ }},
		{"truncated assignment", func(s *Snapshot) { s.ServerOf = s.ServerOf[:len(s.ServerOf)-1] }},
		{"server out of range", func(s *Snapshot) { s.ServerOf[0] = int32(fb.NumServers()) }},
		{"load drift", func(s *Snapshot) { s.Load[0]++ }},
		{"customer on non-adjacent server", func(s *Snapshot) {
			// Move the first assigned customer to a server it cannot see,
			// keeping the loads consistent with the moved assignment.
			for c, so := range s.ServerOf {
				if so < 0 {
					continue
				}
				lo, hi := fb.C.ArcRange(c)
				for x := int32(0); int(x) < fb.NumServers(); x++ {
					if !slices.ContainsFunc(fb.C.Col[lo:hi], func(v int32) bool { return int(v)-fb.NumLeft == int(x) }) {
						s.ServerOf[c] = x
						s.Load[so]--
						s.Load[x]++
						return
					}
				}
			}
			panic("no customer with a non-adjacent server")
		}},
		{"unassigned lists assigned customer", func(s *Snapshot) {
			for c, so := range s.ServerOf {
				if so >= 0 {
					s.Unassigned = append([]int32{int32(c)}, s.Unassigned...)
					return
				}
			}
		}},
		{"stray rng streams", func(s *Snapshot) {
			s.CustRng = make([]uint64, len(s.ServerOf))
			s.ServRng = make([]uint64, len(s.Load))
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, snap := range snaps {
				bad := &Snapshot{
					K:          snap.K,
					Phase:      snap.Phase,
					Rounds:     snap.Rounds,
					ServerOf:   append([]int32(nil), snap.ServerOf...),
					Load:       append([]int32(nil), snap.Load...),
					Unassigned: append([]int32(nil), snap.Unassigned...),
					PhaseLog:   append([]PhaseRecord(nil), snap.PhaseLog...),
				}
				tc.mutate(bad)
				ropt := ShardedOptions{K: snap.K, Tie: core.TieFirstPort, Seed: 1, Shards: 2, ResumeFrom: bad}
				if _, err := SolveSharded(fb, ropt); err == nil {
					t.Fatalf("tampered k=%d snapshot at phase %d resumed without error", snap.K, snap.Phase)
				}
			}
		})
	}
}
