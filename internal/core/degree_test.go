//go:build !race

package core

import (
	"testing"

	"tokendrop/internal/graph"
)

// TestProposalDegreeGuard pins the proposal program's degree limit. It
// counts live ports in cntBits-bit fields, so a vertex of degree
// 2^cntBits would carry into the next field: on the star below the
// occupied centre then reads no live child and halts with its token, a
// wrong answer returned without an error. The solve must refuse that
// degree and still solve the largest one it can count.
func TestProposalDegreeGuard(t *testing.T) {
	for _, leaves := range []int{1<<cntBits - 1, 1 << cntBits} {
		// A level-1 centre holds the only token over token-free leaves.
		b := graph.NewCSRBuilder(leaves+1, leaves)
		for v := 1; v <= leaves; v++ {
			b.AddEdge(0, v)
		}
		level := make([]int32, leaves+1)
		level[0] = 1
		token := make([]bool, leaves+1)
		token[0] = true
		fi := MustFlatInstanceCSR(b.Build(), level, token)
		res, err := SolveProposalSharded(fi, ShardedSolveOptions{Shards: 2})
		if leaves >= 1<<cntBits {
			if err == nil {
				t.Fatalf("degree %d accepted: %d moves", leaves, len(res.Moves))
			}
			continue
		}
		if err != nil {
			t.Fatalf("degree %d: %v", leaves, err)
		}
		if len(res.Moves) != 1 || res.Final[0] {
			t.Fatalf("degree %d: %d moves, centre occupied %v; want 1 move and an empty centre",
				leaves, len(res.Moves), res.Final[0])
		}
	}
}
