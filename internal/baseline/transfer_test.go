package baseline

import (
	"math/rand"
	"slices"
	"testing"

	"tokendrop/internal/graph"
)

// TestTransferDynamicsPinned pins exact runs of both drivers of the
// unit-transfer machine on seeded instances, at 1 and 3 workers. A change
// to the machine, its termination oracle or either driver's seed mix moves
// these numbers, which E8 and E15 print.
func TestTransferDynamicsPinned(t *testing.T) {
	flips := []struct {
		rounds, flips int
		messages      int64
		heads         []int
	}{
		{25, 9, 561, []int{5, 1, 8, 4, 2, 6, 2, 5, 11, 10, 7, 7, 6, 1, 9, 9, 9, 10, 3, 3, 10, 1, 3, 4, 8, 11, 0, 2, 0, 7}},
		{28, 11, 625, []int{10, 8, 2, 0, 0, 3, 4, 11, 2, 10, 6, 7, 3, 7, 5, 1, 10, 9, 8, 4, 9, 11, 1, 5, 2, 7, 1, 6, 0, 11}},
		{22, 8, 503, []int{5, 6, 5, 0, 3, 2, 7, 6, 10, 9, 10, 5, 3, 4, 7, 8, 4, 2, 0, 8, 9, 11, 1, 4, 9, 10, 7, 11, 1, 0}},
	}
	balance := []struct {
		rounds, moves int
		load          []int
	}{
		{85, 23, []int{7, 7, 9, 8, 7, 7, 8, 8, 7, 8}},
		{52, 29, []int{7, 8, 8, 7, 7, 7, 8, 7, 8, 7}},
		{43, 20, []int{10, 11, 10, 10, 10, 9, 10, 10, 9, 11}},
	}
	for _, workers := range []int{1, 3} {
		for i, want := range flips {
			seed := int64(i + 1)
			rng := rand.New(rand.NewSource(seed))
			g := graph.RandomGNM(12, 30, rng)
			res, err := SelfishFlips(OrientAll(g, InitTowardHigherID, nil), seed, 1<<18, workers)
			if err != nil {
				t.Fatal(err)
			}
			heads := make([]int, g.M())
			for id := range heads {
				heads[id] = res.Orientation.Head(id)
			}
			if res.Rounds != want.rounds || res.Flips != want.flips || res.Messages != want.messages ||
				!slices.Equal(heads, want.heads) {
				t.Errorf("flips seed %d workers %d: rounds %d flips %d messages %d heads %v, want %d %d %d %v",
					seed, workers, res.Rounds, res.Flips, res.Messages, heads,
					want.rounds, want.flips, want.messages, want.heads)
			}
		}
		for i, want := range balance {
			seed := int64(i + 1)
			rng := rand.New(rand.NewSource(seed))
			g := graph.RandomGNM(10, 20, rng)
			load := make([]int, g.N())
			for v := range load {
				load[v] = rng.Intn(16)
			}
			s, err := NewState(g, load)
			if err != nil {
				t.Fatal(err)
			}
			res, err := Balance(s, seed, 1<<20, workers)
			if err != nil {
				t.Fatal(err)
			}
			if res.Rounds != want.rounds || res.UnitMoves != want.moves || !slices.Equal(res.Final.Load, want.load) {
				t.Errorf("balance seed %d workers %d: rounds %d moves %d loads %v, want %d %d %v",
					seed, workers, res.Rounds, res.UnitMoves, res.Final.Load, want.rounds, want.moves, want.load)
			}
		}
	}
}
