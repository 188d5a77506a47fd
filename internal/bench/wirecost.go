package bench

import (
	"fmt"
	"math/rand"

	"tokendrop/internal/core"
	"tokendrop/internal/local"
)

// E29 — the multi-process transport's wire cost. The star-routed
// exchange (internal/mp) ships, per round, one upstream and one
// downstream frame per worker process, and exactly the buffer words
// whose sender and receiver live in different processes. Both numbers
// are pure functions of the graph and the engine's arc-balanced shard
// map (local.MPWireCost), so they are exactly reproducible: any change
// is a real message-volume change in the transport or the partitioner
// — never timing noise. ProcTransport's live frame accounting matches
// these figures byte-for-byte (asserted by internal/mp's wire-accounting
// test), and TestE29WireCostGolden pins them on the quick profile. Only
// the game layer is costed: it is the only layer the multi-process
// engine runs.

// E29WireCost renders the game layer's wire cost across a
// worker-process sweep.
func E29WireCost(p Profile) *Table {
	t := &Table{
		ID:    "E29",
		Title: "Multi-process transport wire cost of the game layer (frames and bytes per round)",
		Claim: "round communication is O(boundary-crossing arcs): a pure function of graph and shard map, measured exactly",
		Columns: []string{"workload", "n", "m", "procs",
			"frames/round", "bytes/round", "cross words"},
		Notes: []string{
			"bytes/round = frames × 13-byte frame header + 2 bytes per boundary-crossing buffer word",
		},
	}
	cfg := core.LayeredConfig{Levels: 5, Width: 20_000, ParentDeg: 4, TokenProb: 0.6, FreeBottom: true}
	if p.Quick {
		cfg.Width = 60
	}
	csr := core.FlatRandomLayered(cfg, rand.New(rand.NewSource(p.Seed))).CSR()
	workload := fmt.Sprintf("random layered L=%d w=%d d=%d", cfg.Levels, cfg.Width, cfg.ParentDeg)
	for _, procs := range []int{2, 4} {
		frames, wireBytes, err := local.MPWireCost(csr, procs, 1)
		if err != nil {
			t.AddRow(workload, csr.N(), csr.M(), procs, "error", err.Error(), "")
			continue
		}
		pb, _ := local.ProcBoundsFromShards(local.ShardBounds(csr, procs), procs, 1)
		cross := local.NewExchangePlan(csr, pb).CrossWords()
		t.AddRow(workload, csr.N(), csr.M(), procs, frames, wireBytes, cross)
	}
	return t
}
