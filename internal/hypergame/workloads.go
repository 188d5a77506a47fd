package hypergame

import (
	"fmt"
	"math/rand"
	"slices"
)

// Workload generators: the Section 7.1 adversary hands out levels, heads,
// and tokens; these builders cover the shapes the experiments exercise.
// Each hyperedge lists its endpoints in draw order, head first, so one
// seed gives one game down to the incidence port numbering.

// LayeredConfig describes a random layered hypergraph game: Levels+1
// layers of Width vertices, Edges hyperedges of rank Rank. Every
// hyperedge picks a head on a layer ℓ ≥ 1, one guaranteed child on layer
// ℓ-1, and its remaining endpoints on layers ≥ ℓ-1 (so the head's
// level-validity constraint can always be met). Tokens appear on layers
// above 0 with probability TokenProb.
type LayeredConfig struct {
	Levels    int
	Width     int
	Edges     int
	Rank      int
	TokenProb float64
}

// RandomLayered builds an instance per cfg. Construction resamples
// internally until the level constraints hold, which takes O(1) attempts
// in expectation for any sane configuration.
func RandomLayered(cfg LayeredConfig, rng *rand.Rand) *Instance {
	if cfg.Levels < 1 || cfg.Width < 1 || cfg.Rank < 2 {
		panic(fmt.Sprintf("hypergame: bad layered config %+v", cfg))
	}
	if cfg.Rank > cfg.Width*2 {
		panic("hypergame: rank too large for the layer width")
	}
	n := (cfg.Levels + 1) * cfg.Width
	level := make([]int, n)
	id := func(l, i int) int { return l*cfg.Width + i }
	for l := 0; l <= cfg.Levels; l++ {
		for i := 0; i < cfg.Width; i++ {
			level[id(l, i)] = l
		}
	}
	for attempt := 0; ; attempt++ {
		if attempt > 1000 {
			panic("hypergame: layered workload generation failed to converge")
		}
		var edges [][]int
		var heads []int
		ok := true
		for e := 0; e < cfg.Edges && ok; e++ {
			hl := 1 + rng.Intn(cfg.Levels)
			head := id(hl, rng.Intn(cfg.Width))
			edge := append(make([]int, 0, cfg.Rank), head, id(hl-1, rng.Intn(cfg.Width)))
			tries := 0
			for len(edge) < cfg.Rank {
				l := hl - 1 + rng.Intn(cfg.Levels-hl+2)
				if l > cfg.Levels {
					l = cfg.Levels
				}
				if v := id(l, rng.Intn(cfg.Width)); !slices.Contains(edge, v) {
					edge = append(edge, v)
				}
				if tries++; tries > 100*cfg.Rank {
					ok = false
					break
				}
			}
			edges = append(edges, edge)
			heads = append(heads, head)
		}
		if !ok {
			continue
		}
		token := make([]bool, n)
		for v := range token {
			if level[v] > 0 && rng.Float64() < cfg.TokenProb {
				token[v] = true
			}
		}
		inst, err := NewInstance(level, token, edges, heads)
		if err == nil {
			return inst
		}
	}
}

// ThreeLevelConfig describes a random game on levels {0, 1, 2} with
// separate pull (head on 2) and push (head on 1) hyperedge counts — the
// Theorem 7.5 shape.
type ThreeLevelConfig struct {
	Width     int
	PullEdges int
	PushEdges int
	Rank      int
	MidProb   float64 // token probability on the middle layer
}

// RandomThreeLevel builds an instance per cfg: every level-2 vertex holds
// a token, middle-layer tokens appear with MidProb.
func RandomThreeLevel(cfg ThreeLevelConfig, rng *rand.Rand) *Instance {
	if cfg.Width < 2 || cfg.Rank < 2 {
		panic(fmt.Sprintf("hypergame: bad 3-level config %+v", cfg))
	}
	n := 3 * cfg.Width
	level := make([]int, n)
	id := func(l, i int) int { return l*cfg.Width + i }
	for l := 0; l < 3; l++ {
		for i := 0; i < cfg.Width; i++ {
			level[id(l, i)] = l
		}
	}
	for attempt := 0; ; attempt++ {
		if attempt > 1000 {
			panic("hypergame: 3-level workload generation failed to converge")
		}
		var edges [][]int
		var heads []int
		add := func(headLevel int) {
			head := id(headLevel, rng.Intn(cfg.Width))
			edge := append(make([]int, 0, cfg.Rank), head, id(headLevel-1, rng.Intn(cfg.Width)))
			for len(edge) < cfg.Rank {
				l := headLevel - 1 + rng.Intn(2)
				if l > 2 {
					l = 2
				}
				if v := id(l, rng.Intn(cfg.Width)); !slices.Contains(edge, v) {
					edge = append(edge, v)
				}
			}
			edges = append(edges, edge)
			heads = append(heads, head)
		}
		for i := 0; i < cfg.PullEdges; i++ {
			add(2)
		}
		for i := 0; i < cfg.PushEdges; i++ {
			add(1)
		}
		token := make([]bool, n)
		for i := 0; i < cfg.Width; i++ {
			token[id(2, i)] = true
			if rng.Float64() < cfg.MidProb {
				token[id(1, i)] = true
			}
		}
		inst, err := NewInstance(level, token, edges, heads)
		if err == nil {
			return inst
		}
	}
}
