package assign

import (
	"fmt"
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

// captureEvery solves with a capture after every phase and returns the
// result with a copy of each capture (the solver rewrites its buffer).
func captureEvery(t *testing.T, fb *graph.CSRBipartite, opt ShardedOptions) (*ShardedResult, []*Snapshot) {
	t.Helper()
	var snaps []*Snapshot
	opt.SnapshotEvery = 1
	opt.OnSnapshot = func(s *Snapshot) error {
		cp := new(Snapshot)
		captureAssignSnapshot(cp, s.K, s.Phase, s.Rounds, s.ServerOf, s.Load, s.Unassigned, s.CustRng, s.ServRng, s.PhaseLog)
		snaps = append(snaps, cp)
		return nil
	}
	res, err := SolveSharded(fb, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != res.Phases {
		t.Fatalf("%d snapshots over %d phases", len(snaps), res.Phases)
	}
	return res, snaps
}

// TestAssignResumeEquivalence: across network families, thresholds
// (the general problem and k = 2, 3), tie rules, and shard counts, a run
// resumed from the snapshot at every phase cursor bit-matches the
// uninterrupted run.
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
						again, snaps := captureEvery(t, fb, opt)
						checkAssignResumeMatch(t, "capture run", base, again)

						ropt := opt
						ropt.Shards = shardChoices[(i+1)%len(shardChoices)]
						for _, snap := range snaps {
							ropt.ResumeFrom = snap
							resumed, err := SolveSharded(fb, ropt)
							if err != nil {
								t.Fatalf("resume at phase %d: %v", snap.Phase, err)
							}
							checkAssignResumeMatch(t, fmt.Sprintf("run resumed at phase %d", snap.Phase), base, resumed)
						}
					}
				}
			}
		})
	}
}

// TestAssignResumeRejectsBadSnapshots checks restore validation — shape,
// ranges, recounted loads, the phase log against the cursors, and the
// inter-phase badness bound — for the general problem and the k-bounded
// relaxation, on a mid-run snapshot and on the last phase's (which has
// no later phase to trip over a corrupt state by accident).
func TestAssignResumeRejectsBadSnapshots(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	fb := graph.NewCSRBipartiteFromBipartite(
		graph.MustBipartite(graph.RandomBipartite(40, 8, 3, rng), 40))
	var snaps []*Snapshot
	for _, k := range []int{0, 2} {
		base, all := captureEvery(t, fb, ShardedOptions{K: k, Tie: core.TieFirstPort, Seed: 1, Shards: 2})
		snaps = append(snaps, all[min(1+base.Phases/2, base.Phases)-1], all[base.Phases-1])
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
		{"phase log truncated", func(s *Snapshot) { s.PhaseLog = s.PhaseLog[:len(s.PhaseLog)-1] }},
		{"phase record renumbered", func(s *Snapshot) { s.PhaseLog[len(s.PhaseLog)-1].Phase++ }},
		{"rounds drift", func(s *Snapshot) { s.Rounds++ }},
		{"badness above 1", func(s *Snapshot) { drainLeastLoaded(fb, s) }},
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
				ropt := ShardedOptions{K: snap.K, Tie: core.TieFirstPort, Seed: 1, Shards: 2}
				ropt.ResumeFrom = bad
				if _, err := SolveSharded(fb, ropt); err == nil {
					t.Fatalf("tampered k=%d snapshot at phase %d resumed without error", snap.K, snap.Phase)
				}
			}
		})
	}
}

// drainLeastLoaded moves every customer of the least-loaded nonempty
// server to its most-loaded other adjacent server, keeping the loads
// consistent. A moved customer then sits on a server of load at least 2
// next to an empty one: badness 2 on effective loads at any threshold.
// (At k = 2 no single move does this once every load is at least 2.)
func drainLeastLoaded(fb *graph.CSRBipartite, s *Snapshot) {
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
}
