package local

import (
	"fmt"
	"testing"

	"tokendrop/internal/graph"
)

// runOnce is a one-shot engine run, as the solvers do it without a
// caller-held session: start a session of the given worker count (0 =
// GOMAXPROCS), run prog once, and close it.
func runOnce(csr *graph.CSR, prog FlatProgram, shards int, opt ShardedOptions) (ShardedStats, error) {
	s := NewSession(shards)
	defer s.Close()
	return s.Run(csr, prog, opt)
}

// flatCountdown mirrors countdownMachine for the sharded engine: every
// vertex broadcasts its remaining count and halts when it reaches zero.
type flatCountdown struct {
	csr        *graph.CSR
	left       []int
	seen       [][]Word // per vertex: received words, rounds concatenated
	shardTotal []int64
}

func newFlatCountdown(csr *graph.CSR, left int) *flatCountdown {
	p := &flatCountdown{csr: csr, left: make([]int, csr.N()), seen: make([][]Word, csr.N())}
	for v := range p.left {
		p.left[v] = left
	}
	return p
}

func (p *flatCountdown) InitShards(bounds []int) {
	p.shardTotal = make([]int64, len(bounds)-1)
}

func (p *flatCountdown) total() int64 {
	var t int64
	for _, s := range p.shardTotal {
		t += s
	}
	return t
}

func (p *flatCountdown) StepShard(round, shard int, verts []int32, recv, send []Word, halted []bool) {
	for _, v32 := range verts {
		v := int(v32)
		a0, a1 := p.csr.ArcRange(v)
		for i := a0; i < a1; i++ {
			w := recv[i]
			p.seen[v] = append(p.seen[v], w)
			if w != 0 {
				p.shardTotal[shard]++
			}
		}
		for i := a0; i < a1; i++ {
			send[p.csr.Rev[i]] = Word(p.left[v])
		}
		p.left[v]--
		if p.left[v] <= 0 {
			halted[v] = true
		}
	}
}

func TestShardedHaltsAndCountsRounds(t *testing.T) {
	csr := graph.NewCSRFromGraph(graph.Cycle(5))
	p := newFlatCountdown(csr, 3)
	stats, err := runOnce(csr, p, 2, ShardedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Rounds != 3 {
		t.Fatalf("rounds = %d, want 3", stats.Rounds)
	}
	if stats.Halted != 5 {
		t.Fatalf("halted = %d, want 5", stats.Halted)
	}
	// As in TestRunHaltsAndCountsRounds: everyone halts together in round
	// 3, so only the broadcasts of rounds 1 and 2 are observed.
	if got := p.total(); got != 5*2*2 {
		t.Fatalf("delivered = %d, want 20", got)
	}
}

// flatFinalWord: vertex 0 sends once in round 1 and halts; vertex 1 stays
// awake four rounds and must see exactly one non-zero word — the final
// message is delivered, and nothing stale is ever redelivered.
type flatFinalWord struct {
	csr      *graph.CSR
	lifetime int
	nonZero  int
}

func (p *flatFinalWord) InitShards(bounds []int) {}

func (p *flatFinalWord) StepShard(round, shard int, verts []int32, recv, send []Word, halted []bool) {
	for _, v32 := range verts {
		v := int(v32)
		a0, a1 := p.csr.ArcRange(v)
		if v == 0 {
			for i := a0; i < a1; i++ {
				send[p.csr.Rev[i]] = 42
			}
			halted[v] = true
			continue
		}
		for i := a0; i < a1; i++ {
			if recv[i] != 0 {
				p.nonZero++
			}
			send[p.csr.Rev[i]] = 0
		}
		p.lifetime++
		if p.lifetime >= 4 {
			halted[v] = true
		}
	}
}

func TestShardedFinalWordNoStaleRedelivery(t *testing.T) {
	csr := graph.NewCSRFromGraph(graph.Path(2))
	p := &flatFinalWord{csr: csr}
	if _, err := runOnce(csr, p, 2, ShardedOptions{}); err != nil {
		t.Fatal(err)
	}
	if p.nonZero != 1 {
		t.Fatalf("receiver saw %d non-zero words, want exactly 1", p.nonZero)
	}
}

// flatDigest mirrors schedulerProbe: each vertex sums its id with the
// received words and broadcasts the sum, recording the per-round digests.
type flatDigest struct {
	csr    *graph.CSR
	rounds int
	digest [][]Word
}

func (p *flatDigest) InitShards(bounds []int) {}

func (p *flatDigest) StepShard(round, shard int, verts []int32, recv, send []Word, halted []bool) {
	for _, v32 := range verts {
		v := int(v32)
		a0, a1 := p.csr.ArcRange(v)
		sum := Word(v)
		for i := a0; i < a1; i++ {
			sum += recv[i]
		}
		p.digest[v] = append(p.digest[v], sum)
		for i := a0; i < a1; i++ {
			send[p.csr.Rev[i]] = sum
		}
		if round >= p.rounds {
			halted[v] = true
		}
	}
}

func TestShardedDeterminismAcrossShardCounts(t *testing.T) {
	csr := graph.NewCSRFromGraph(graph.Torus2D(6, 6))
	run := func(shards int) [][]Word {
		p := &flatDigest{csr: csr, rounds: 8, digest: make([][]Word, csr.N())}
		if _, err := runOnce(csr, p, shards, ShardedOptions{}); err != nil {
			t.Fatal(err)
		}
		return p.digest
	}
	seq := run(1)
	for _, shards := range []int{2, 3, 4, 16, 100} {
		par := run(shards)
		for v := range seq {
			for r := range seq[v] {
				if seq[v][r] != par[v][r] {
					t.Fatalf("shards=%d: vertex %d round %d digest %d != %d",
						shards, v, r, par[v][r], seq[v][r])
				}
			}
		}
	}
}

func TestShardedMaxRoundsGuard(t *testing.T) {
	csr := graph.NewCSRFromGraph(graph.Path(3))
	p := newFlatCountdown(csr, 1<<30)
	if _, err := runOnce(csr, p, 0, ShardedOptions{MaxRounds: 10}); err == nil {
		t.Fatal("runaway protocol not caught")
	}
}

func TestShardedEmptyGraph(t *testing.T) {
	csr := graph.NewCSRFromGraph(graph.New(0))
	stats, err := runOnce(csr, newFlatCountdown(csr, 1), 0, ShardedOptions{})
	if err != nil || stats.Rounds != 0 {
		t.Fatalf("empty graph: %v %+v", err, stats)
	}
}

func TestShardedStopCallback(t *testing.T) {
	csr := graph.NewCSRFromGraph(graph.Cycle(4))
	p := newFlatCountdown(csr, 1<<20)
	var rounds []int
	stats, err := runOnce(csr, p, 2, ShardedOptions{
		OnRound: func(round, awake int) { rounds = append(rounds, round) },
		Stop:    func(round int) bool { return round >= 5 },
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Rounds != 5 || len(rounds) != 5 {
		t.Fatalf("stats %+v, callbacks %v", stats, rounds)
	}
}

// TestShardedStressBarrier runs many tiny graphs with shard counts above
// the vertex count and assorted halting patterns; under -race this
// flushes synchronization bugs in the persistent-worker barrier.
func TestShardedStressBarrier(t *testing.T) {
	for n := 1; n <= 24; n++ {
		var g *graph.Graph
		switch n % 3 {
		case 0:
			g = graph.Path(n)
		case 1:
			g = graph.Star(n)
		default:
			g = graph.Complete(n%6 + 2)
		}
		csr := graph.NewCSRFromGraph(g)
		p := newFlatCountdown(csr, n%5+1)
		if _, err := runOnce(csr, p, 16, ShardedOptions{}); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

// TestShardBoundsCoverAndBalance checks the arc-balanced partition is a
// partition (monotone, covering) on a skewed-degree graph.
func TestShardBoundsCoverAndBalance(t *testing.T) {
	csr := graph.NewCSRFromGraph(graph.Star(1000))
	for _, shards := range []int{1, 2, 3, 7, 16} {
		bounds := shardBoundsInto(make([]int, shards+1), csr, shards)
		if bounds[0] != 0 || bounds[shards] != csr.N() {
			t.Fatalf("shards=%d: bounds %v do not cover", shards, bounds)
		}
		for s := 0; s < shards; s++ {
			if bounds[s] > bounds[s+1] {
				t.Fatalf("shards=%d: bounds %v not monotone", shards, bounds)
			}
		}
	}
}

// arclessProbe is flatCountdown with the engine's arc-less rule as an
// assertion: it panics (a WorkerCrashError from Run) if it is ever handed
// a vertex without arcs, and records the round each vertex was first
// stepped in (0 = never).
type arclessProbe struct {
	*flatCountdown
	firstStep []int
}

func newArclessProbe(csr *graph.CSR) *arclessProbe {
	p := &arclessProbe{flatCountdown: newFlatCountdown(csr, 0), firstStep: make([]int, csr.N())}
	for v := range p.left {
		p.left[v] = 1 + v%4
	}
	return p
}

func (p *arclessProbe) StepShard(round, shard int, verts []int32, recv, send []Word, halted []bool) {
	for _, v := range verts {
		if p.csr.Degree(int(v)) == 0 {
			panic(fmt.Sprintf("arc-less vertex %d stepped in round %d", v, round))
		}
		if p.firstStep[v] == 0 {
			p.firstStep[v] = round
		}
	}
	p.flatCountdown.StepShard(round, shard, verts, recv, send, halted)
}

// TestShardedArclessVerticesStartHalted pins the engine rule: a vertex
// without arcs is never stepped, every other vertex is stepped in round
// 1, every vertex counts as halted at the end, and the run takes as many
// rounds as the seed engine running the same countdowns with each
// arc-less machine halting in its first step — one round on a graph with
// no edges. One session per shard count runs both graphs, so the rule
// also holds on a reused session.
func TestShardedArclessVerticesStartHalted(t *testing.T) {
	mixed := graph.New(40)
	for v := 1; v+1 < 40; v++ {
		if v%3 != 0 && (v+1)%3 != 0 {
			mixed.AddEdge(v, v+1)
		}
		if v%5 == 1 && v+5 < 40 && (v+5)%3 != 0 {
			mixed.AddEdge(v, v+5)
		}
	}
	for _, shards := range []int{1, 2, 8} {
		sess := NewSession(shards)
		for _, tc := range []struct {
			name string
			g    *graph.Graph
		}{{"mixed", mixed}, {"edgeless", graph.New(12)}} {
			csr := graph.NewCSRFromGraph(tc.g)
			p := newArclessProbe(csr)
			stats, err := sess.Run(csr, p, ShardedOptions{})
			if err != nil {
				t.Fatalf("%s shards=%d: %v", tc.name, shards, err)
			}
			seed, err := NewNetwork(tc.g, func(v int) Machine {
				if tc.g.Degree(v) == 0 {
					return &countdownMachine{left: 1}
				}
				return &countdownMachine{left: 1 + v%4}
			}).Run(Options{})
			if err != nil {
				t.Fatalf("%s: seed engine: %v", tc.name, err)
			}
			if stats.Rounds != seed.Rounds || stats.Halted != csr.N() {
				t.Fatalf("%s shards=%d: %d rounds, %d halted; want %d rounds, %d halted",
					tc.name, shards, stats.Rounds, stats.Halted, seed.Rounds, csr.N())
			}
			if tc.g.M() == 0 && stats.Rounds != 1 {
				t.Fatalf("%s shards=%d: %d rounds on a graph with no edges, want 1", tc.name, shards, stats.Rounds)
			}
			for v, r := range p.firstStep {
				if csr.Degree(v) > 0 && r != 1 {
					t.Fatalf("%s shards=%d: vertex %d with arcs first stepped in round %d, want 1",
						tc.name, shards, v, r)
				}
			}
		}
		sess.Close()
	}
}
