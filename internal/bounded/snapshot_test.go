package bounded

import (
	"math/rand"
	"reflect"
	"testing"

	"tokendrop/internal/assign"
	"tokendrop/internal/core"
	"tokendrop/internal/graph"
)

// boundedFamilies enumerates the network families of the k-bounded
// resume-equivalence suite.
var boundedFamilies = []struct {
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
		nl, nr := 50+10*(i%3), 3+i%2
		return graph.NewCSRBipartiteFromBipartite(
			graph.MustBipartite(graph.RandomBipartite(nl, nr, 2, rng), nl))
	}},
}

// checkBoundedResumeMatch compares a resumed run against the
// uninterrupted baseline field by field.
func checkBoundedResumeMatch(t *testing.T, label string, base, resumed *assign.ShardedResult) {
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

// TestBoundedResumeEquivalence: across network families, thresholds, tie
// rules, and shard counts, a run snapshotted at a random phase cursor and
// resumed from the snapshot bit-matches the uninterrupted run.
func TestBoundedResumeEquivalence(t *testing.T) {
	shardChoices := []int{1, 2, 8}
	for fam := range boundedFamilies {
		f := boundedFamilies[fam]
		t.Run(f.name, func(t *testing.T) {
			for i := 0; i < 6; i++ {
				rng := rand.New(rand.NewSource(int64(400*fam + i)))
				fb := f.build(i, rng)
				for _, tie := range []core.TieBreak{core.TieFirstPort, core.TieRandom} {
					opt := assign.ShardedOptions{
						K: 2 + i%2, Tie: tie, Seed: int64(i),
						Shards:          shardChoices[i%len(shardChoices)],
						CheckInvariants: true,
					}
					base, err := assign.SolveSharded(fb, opt)
					if err != nil {
						t.Fatal(err)
					}
					if base.Phases < 1 {
						continue
					}
					cursor := 1 + rng.Intn(base.Phases)

					var snap *assign.Snapshot
					sopt := opt
					sopt.SnapshotAt = cursor
					sopt.OnSnapshot = func(s *assign.Snapshot) error { snap = s; return nil }
					again, err := assign.SolveSharded(fb, sopt)
					if err != nil {
						t.Fatal(err)
					}
					checkBoundedResumeMatch(t, "capture run", base, again)
					if snap == nil {
						t.Fatalf("no snapshot at phase %d of %d", cursor, base.Phases)
					}

					ropt := opt
					ropt.Shards = shardChoices[(i+1)%len(shardChoices)]
					ropt.ResumeFrom = snap
					resumed, err := assign.SolveSharded(fb, ropt)
					if err != nil {
						t.Fatalf("resume at phase %d: %v", cursor, err)
					}
					checkBoundedResumeMatch(t, "resumed run", base, resumed)
				}
			}
		})
	}
}

// TestBoundedResumeRejectsBadSnapshots checks restore validation,
// including the threshold-mismatch guard unique to the k-bounded layer.
func TestBoundedResumeRejectsBadSnapshots(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	fb := graph.NewCSRBipartiteFromBipartite(
		graph.MustBipartite(graph.RandomBipartite(40, 8, 3, rng), 40))
	opt := assign.ShardedOptions{K: 2, Tie: core.TieFirstPort, Seed: 1, Shards: 2}
	base, err := assign.SolveSharded(fb, opt)
	if err != nil {
		t.Fatal(err)
	}
	var snap *assign.Snapshot
	sopt := opt
	sopt.SnapshotAt = 1 + base.Phases/2
	if sopt.SnapshotAt > base.Phases {
		sopt.SnapshotAt = base.Phases
	}
	sopt.OnSnapshot = func(s *assign.Snapshot) error { snap = s; return nil }
	if _, err := assign.SolveSharded(fb, sopt); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name   string
		mutate func(s *assign.Snapshot)
	}{
		{"threshold mismatch", func(s *assign.Snapshot) { s.K++ }},
		{"truncated assignment", func(s *assign.Snapshot) { s.ServerOf = s.ServerOf[:len(s.ServerOf)-1] }},
		{"server out of range", func(s *assign.Snapshot) { s.ServerOf[0] = int32(fb.NumServers()) }},
		{"load drift", func(s *assign.Snapshot) { s.Load[0]++ }},
		{"stray rng streams", func(s *assign.Snapshot) {
			s.CustRng = make([]uint64, len(s.ServerOf))
			s.ServRng = make([]uint64, len(s.Load))
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			bad := &assign.Snapshot{
				K:          snap.K,
				Phase:      snap.Phase,
				Rounds:     snap.Rounds,
				ServerOf:   append([]int32(nil), snap.ServerOf...),
				Load:       append([]int32(nil), snap.Load...),
				Unassigned: append([]int32(nil), snap.Unassigned...),
				PhaseLog:   append([]assign.PhaseRecord(nil), snap.PhaseLog...),
			}
			tc.mutate(bad)
			ropt := opt
			ropt.ResumeFrom = bad
			if _, err := assign.SolveSharded(fb, ropt); err == nil {
				t.Fatal("tampered snapshot resumed without error")
			}
		})
	}
}
