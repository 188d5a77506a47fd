package bounded

import (
	"fmt"
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

// copySnapshot deep-copies a capture, which the solver rewrites in place
// at the next one.
func copySnapshot(s *assign.Snapshot) *assign.Snapshot {
	return &assign.Snapshot{
		K:          s.K,
		Phase:      s.Phase,
		Rounds:     s.Rounds,
		ServerOf:   append([]int32(nil), s.ServerOf...),
		Load:       append([]int32(nil), s.Load...),
		Unassigned: append([]int32(nil), s.Unassigned...),
		CustRng:    append([]uint64(nil), s.CustRng...),
		ServRng:    append([]uint64(nil), s.ServRng...),
		PhaseLog:   append([]assign.PhaseRecord(nil), s.PhaseLog...),
	}
}

// captureEvery solves with a capture after every phase and returns the
// result with a copy of each capture.
func captureEvery(t *testing.T, fb *graph.CSRBipartite, opt assign.ShardedOptions) (*assign.ShardedResult, []*assign.Snapshot) {
	t.Helper()
	var snaps []*assign.Snapshot
	opt.SnapshotEvery = 1
	opt.OnSnapshot = func(s *assign.Snapshot) error {
		snaps = append(snaps, copySnapshot(s))
		return nil
	}
	res, err := assign.SolveSharded(fb, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != res.Phases {
		t.Fatalf("%d snapshots over %d phases", len(snaps), res.Phases)
	}
	return res, snaps
}

// TestBoundedResumeEquivalence: across network families, thresholds, tie
// rules, and shard counts, a run resumed from the snapshot at every phase
// cursor bit-matches the uninterrupted run.
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
					again, snaps := captureEvery(t, fb, opt)
					checkBoundedResumeMatch(t, "capture run", base, again)

					ropt := opt
					ropt.Shards = shardChoices[(i+1)%len(shardChoices)]
					for _, snap := range snaps {
						ropt.ResumeFrom = snap
						resumed, err := assign.SolveSharded(fb, ropt)
						if err != nil {
							t.Fatalf("resume at phase %d: %v", snap.Phase, err)
						}
						checkBoundedResumeMatch(t, fmt.Sprintf("run resumed at phase %d", snap.Phase), base, resumed)
					}
				}
			}
		})
	}
}

// TestBoundedResumeRejectsBadSnapshots checks restore validation,
// including the threshold-mismatch guard unique to the k-bounded layer,
// on a mid-run snapshot and on the last phase's.
func TestBoundedResumeRejectsBadSnapshots(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	fb := graph.NewCSRBipartiteFromBipartite(
		graph.MustBipartite(graph.RandomBipartite(40, 8, 3, rng), 40))
	opt := assign.ShardedOptions{K: 2, Tie: core.TieFirstPort, Seed: 1, Shards: 2}
	base, all := captureEvery(t, fb, opt)
	snaps := []*assign.Snapshot{all[min(1+base.Phases/2, base.Phases)-1], all[base.Phases-1]}

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
		{"phase log truncated", func(s *assign.Snapshot) { s.PhaseLog = s.PhaseLog[:len(s.PhaseLog)-1] }},
		{"phase record renumbered", func(s *assign.Snapshot) { s.PhaseLog[len(s.PhaseLog)-1].Phase++ }},
		{"rounds drift", func(s *assign.Snapshot) { s.Rounds++ }},
		{"badness above 1", func(s *assign.Snapshot) {
			// Drain the least-loaded nonempty server onto its customers'
			// most-loaded other servers, keeping the loads consistent: a
			// moved customer then sits on a server of load at least 2
			// next to an empty one, badness 2 at k = 2. (No single move
			// does this once every load is at least 2.)
			d := int32(-1)
			for x, l := range s.Load {
				if l > 0 && (d < 0 || l < s.Load[d]) {
					d = int32(x)
				}
			}
			for c, so := range s.ServerOf {
				if so != d {
					continue
				}
				to := int32(-1)
				lo, hi := fb.C.ArcRange(c)
				for i := lo; i < hi; i++ {
					if x := fb.C.Col[i] - int32(fb.NumLeft); x != d && (to < 0 || s.Load[x] > s.Load[to]) {
						to = x
					}
				}
				s.ServerOf[c] = to
				s.Load[d]--
				s.Load[to]++
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, snap := range snaps {
				bad := copySnapshot(snap)
				tc.mutate(bad)
				ropt := opt
				ropt.ResumeFrom = bad
				if _, err := assign.SolveSharded(fb, ropt); err == nil {
					t.Fatalf("tampered snapshot at phase %d resumed without error", snap.Phase)
				}
			}
		})
	}
}
