package bounded

import (
	"math/rand"
	"testing"

	"tokendrop/internal/assign"
	"tokendrop/internal/core"
	"tokendrop/internal/graph"
)

// TestWarmStartSharded checks the k-bounded warm-start path: release a
// random subset of a stable assignment and re-solve with WarmStart; the
// result must pass the k-stability oracle. Both tie rules, shards 1/2/8,
// and two thresholds (k=2 exercises the three-level solver).
func TestWarmStartSharded(t *testing.T) {
	for _, k := range []int{2, 3} {
		for _, tie := range []core.TieBreak{core.TieFirstPort, core.TieRandom} {
			for _, shards := range []int{1, 2, 8} {
				rng := rand.New(rand.NewSource(200 + int64(k)*10 + int64(shards) + int64(tie)))
				b := graph.MustBipartite(graph.RandomBipartite(60, 15, 3, rng), 60)
				fb := graph.NewCSRBipartiteFromBipartite(b)
				res, err := assign.SolveSharded(fb, assign.ShardedOptions{K: k, Tie: tie, Seed: 4, Shards: shards, CheckInvariants: true})
				if err != nil {
					t.Fatal(err)
				}
				dirty := make([]int32, 0, 20)
				for c := 0; c < fb.NumLeft; c++ {
					if rng.Intn(4) == 0 {
						dirty = append(dirty, int32(c))
					}
				}
				warm, err := assign.SolveSharded(fb, assign.ShardedOptions{
					K: k, Tie: tie, Seed: 5, Shards: shards, CheckInvariants: true,
					WarmStart: &assign.WarmStart{ServerOf: res.ServerOf, Load: res.Load, Dirty: dirty},
				})
				if err != nil {
					t.Fatalf("k %d tie %v shards %d: warm solve: %v", k, tie, shards, err)
				}
				if !warm.KStable() {
					t.Fatalf("k %d tie %v shards %d: warm solve not k-stable", k, tie, shards)
				}
				if len(warm.PhaseLog) > 0 && warm.PhaseLog[0].Proposals < len(dirty) {
					t.Fatalf("k %d tie %v shards %d: warm solve proposed %d customers for %d dirty",
						k, tie, shards, warm.PhaseLog[0].Proposals, len(dirty))
				}
			}
		}
	}
}

// TestWarmStartValidation pins the k-bounded warm-start error paths,
// including the ResumeFrom exclusion.
func TestWarmStartValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	b := graph.MustBipartite(graph.RandomBipartite(30, 8, 3, rng), 30)
	fb := graph.NewCSRBipartiteFromBipartite(b)
	res, err := assign.SolveSharded(fb, assign.ShardedOptions{K: 2, CheckInvariants: true})
	if err != nil {
		t.Fatal(err)
	}
	solve := func(ws *assign.WarmStart) error {
		_, err := assign.SolveSharded(fb, assign.ShardedOptions{K: 2, CheckInvariants: true, WarmStart: ws})
		return err
	}
	if err := solve(&assign.WarmStart{ServerOf: res.ServerOf[:5], Load: res.Load}); err == nil {
		t.Fatal("short ServerOf accepted")
	}
	if err := solve(&assign.WarmStart{ServerOf: res.ServerOf, Load: res.Load, Dirty: []int32{9, 2}}); err == nil {
		t.Fatal("non-ascending dirty list accepted")
	}
	badLoad := append([]int32(nil), res.Load...)
	badLoad[0]++
	if err := solve(&assign.WarmStart{ServerOf: res.ServerOf, Load: badLoad}); err == nil {
		t.Fatal("inconsistent loads accepted")
	}
	if _, err := assign.SolveSharded(fb, assign.ShardedOptions{
		K:          2,
		WarmStart:  &assign.WarmStart{ServerOf: res.ServerOf, Load: res.Load},
		Checkpoint: core.Checkpoint[assign.Snapshot]{ResumeFrom: &assign.Snapshot{K: 2}},
	}); err == nil {
		t.Fatal("WarmStart+ResumeFrom accepted")
	}
}
