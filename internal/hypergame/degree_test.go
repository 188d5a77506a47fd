//go:build !race

package hypergame

import "testing"

// TestIncidenceDegreeGuard pins the flat programs' incidence-degree limit
// (checkIncidenceDegree): they count live channels in hcntBits-bit
// fields. One hyperedge gives its relay one incidence arc per endpoint;
// at 2^hcntBits − 1 endpoints the head's token drops once, one endpoint
// more and the instance is refused.
func TestIncidenceDegreeGuard(t *testing.T) {
	for _, rank := range []int{1<<hcntBits - 1, 1 << hcntBits} {
		// Endpoint 0 is the head at level 1 with the only token.
		level := make([]int32, rank)
		level[0] = 1
		token := make([]bool, rank)
		token[0] = true
		ends := make([]int32, rank)
		for v := range ends {
			ends[v] = int32(v)
		}
		fi, err := NewFlatInstance(level, token, []int32{0, int32(rank)}, ends, []int32{0})
		if rank >= 1<<hcntBits {
			if err == nil {
				t.Fatalf("incidence degree %d accepted", rank)
			}
			continue
		}
		if err != nil {
			t.Fatalf("incidence degree %d: %v", rank, err)
		}
		res, err := SolveProposalSharded(fi, ShardedSolveOptions{Shards: 2})
		if err != nil {
			t.Fatalf("incidence degree %d: %v", rank, err)
		}
		if len(res.Moves) != 1 || res.Final[0] {
			t.Fatalf("incidence degree %d: %d moves, head occupied %v; want 1 move and an empty head",
				rank, len(res.Moves), res.Final[0])
		}
	}
}
