package bench

import (
	"errors"
	"fmt"
	"math/rand"

	"tokendrop/internal/core"
	"tokendrop/internal/hypergame"
	"tokendrop/internal/lowerbound"
)

// E21: message-size audit. The LOCAL model allows unbounded messages, but
// every protocol in this reproduction uses O(1)-bit game messages and
// O(log n)-bit load broadcasts — so the paper's algorithms also run in the
// CONGEST model. This experiment measures the largest message actually
// delivered, per protocol, at two instance sizes ten times apart: a
// protocol passes only if its largest message does not grow with n.
func E21MessageSizes(p Profile) *Table {
	t := &Table{
		ID:      "E21",
		Title:   "Message-size audit: the algorithms fit the CONGEST model",
		Claim:   "token dropping needs O(1)-bit messages; only load broadcasts reach Θ(log n) bits",
		Columns: []string{"protocol", "n (small / 10×)", "max message bits", "CONGEST-compatible"},
	}
	rng := rand.New(rand.NewSource(p.Seed))
	for _, proto := range []struct {
		name string
		run  func(scale int) (n, bits int, err error)
	}{
		{"token dropping (proposal)", func(scale int) (int, int, error) {
			cfg := core.LayeredConfig{Levels: 5, Width: 12 * scale, ParentDeg: 4, TokenProb: 0.7, FreeBottom: true}
			inst := core.RandomLayered(cfg, rng)
			_, stats, err := core.SolveProposal(inst, core.SolveOptions{MaxRounds: 1 << 20, MeasureBits: true})
			return inst.N(), stats.MaxMessageBits, err
		}},
		{"token dropping (3-level)", func(scale int) (int, int, error) {
			inst := core.ThreeLevelRandom(12*scale, 12*scale, 4, 0.4, rng)
			_, stats, err := core.SolveThreeLevel(inst, core.SolveOptions{MaxRounds: 1 << 20, MeasureBits: true})
			return inst.N(), stats.MaxMessageBits, err
		}},
		{"hypergraph game (relayed)", func(scale int) (int, int, error) {
			cfg := hypergame.LayeredConfig{Levels: 3, Width: 8 * scale, Edges: 20 * scale, Rank: 3, TokenProb: 0.5}
			inst := hypergame.RandomLayered(cfg, rng)
			_, stats, err := hypergame.SolveProposal(inst, hypergame.SolveOptions{MaxRounds: 1 << 20, MeasureBits: true})
			return inst.N() + inst.M(), stats.MaxMessageBits, err
		}},
	} {
		n, bits, err := proto.run(1)
		n10, bits10, err10 := proto.run(10)
		if err = errors.Join(err, err10); err != nil {
			t.AddRow(proto.name, fmt.Sprintf("%d / %d", n, n10), fmt.Sprintf("solve failed: %v", err), mark(false))
			continue
		}
		t.AddRow(proto.name, fmt.Sprintf("%d / %d", n, n10), fmt.Sprintf("%d / %d", bits, bits10),
			mark(bits >= 0 && bits == bits10))
	}

	// Contrast: the anonymous view-collection machine of the Section 6
	// experiment ships whole neighbourhood encodings — a genuinely
	// LOCAL-only protocol. Its payloads implement no size bound, which the
	// runtime reports as -1 ("unknown").
	views := lowerbound.Views(core.Figure2().Graph(), 2)
	t.Notes = append(t.Notes, fmt.Sprintf(
		"contrast: the Section 6 view-collection machine ships ball encodings of up to %d bytes — LOCAL-only by design",
		maxLen(views)))
	return t
}

func maxLen(ss []string) int {
	m := 0
	for _, s := range ss {
		if len(s) > m {
			m = len(s)
		}
	}
	return m
}
