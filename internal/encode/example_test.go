package encode_test

import (
	"fmt"
	"math/rand"

	"tokendrop/internal/core"
	"tokendrop/internal/encode"
	"tokendrop/internal/graph"
	"tokendrop/internal/orient"
)

// Example_recordAndResume records a mid-solve snapshot of a stable
// orientation run, serializes it through the on-disk format, and resumes
// a second run from it — reproducing the uninterrupted result exactly.
// This is the library form of `td-orient -record` + resume.
func Example_recordAndResume() {
	rng := rand.New(rand.NewSource(1))
	c := graph.CSRRandomRegular(64, 4, rng)
	meta := encode.RunMetaJSON{
		Workload: "regular n=64 d=4", GenSeed: 1,
		Tie: encode.TieName(core.TieFirstPort), Shards: 2,
	}

	// The uninterrupted run, for reference.
	base, err := orient.SolveSharded(c, orient.ShardedOptions{Shards: 2})
	if err != nil {
		panic(err)
	}

	// Record: capture a snapshot after every second phase and encode the
	// first (phase 2) as the versioned, graph-hash-bound interchange form,
	// which copies the solver-owned capture.
	var captured *encode.SnapshotJSON
	_, err = orient.SolveSharded(c, orient.ShardedOptions{
		Shards: 2,
		Checkpoint: core.Checkpoint[orient.Snapshot]{
			SnapshotEvery: 2,
			OnSnapshot: func(s *orient.Snapshot) error {
				if captured == nil {
					captured = encode.FromOrientSnapshot(s, c, meta)
				}
				return nil
			},
		},
	})
	if err != nil {
		panic(err)
	}

	// Resume: bind the snapshot back to the graph (layer, version, and
	// graph hash are checked) and continue from phase 3.
	snap, err := captured.ToOrientSnapshot(c)
	if err != nil {
		panic(err)
	}
	resumed, err := orient.SolveSharded(c, orient.ShardedOptions{
		Shards:     4, // results are shard-count invariant
		Checkpoint: core.Checkpoint[orient.Snapshot]{ResumeFrom: snap},
	})
	if err != nil {
		panic(err)
	}

	fmt.Println("layer:", captured.Layer, "snapshot at phase:", captured.Phase)
	fmt.Println("same phases:", resumed.Phases == base.Phases)
	fmt.Println("same rounds:", resumed.Rounds == base.Rounds)
	fmt.Println("same orientation:", fmt.Sprint(resumed.Head) == fmt.Sprint(base.Head))
	// Output:
	// layer: orient snapshot at phase: 2
	// same phases: true
	// same rounds: true
	// same orientation: true
}
