package encode

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"tokendrop/internal/assign"
	"tokendrop/internal/core"
	"tokendrop/internal/graph"
	"tokendrop/internal/orient"
)

// The fuzz targets pin the decoder hardening contract: arbitrary bytes
// never panic or allocate beyond the input's own size (every slice the
// decoders build is bounded by a length check against fields already
// decoded), and any input that decodes successfully survives an
// encode/decode round trip unchanged. FuzzResumeSnapshot carries the
// contract on to the phase-loop solvers: a snapshot either fails restore
// validation or resumes to a stable result with a consistent phase log.
// Seed corpora live under testdata/fuzz/ or are built in the target; CI
// runs each target briefly on every push.

// FuzzReadInstance: hostile instance JSON either errors or round-trips.
func FuzzReadInstance(f *testing.F) {
	f.Add([]byte(`{"n":3,"edges":[[0,1],[1,2]],"level":[1,0,1],"tokens":[0]}`))
	f.Add([]byte(`{"n":0,"edges":[],"level":[],"tokens":[]}`))
	f.Add([]byte(`{"n":1000000000,"level":[0]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		inst, err := ReadInstance(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteInstance(&buf, inst); err != nil {
			t.Fatalf("accepted instance fails to encode: %v", err)
		}
		again, err := ReadInstance(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded instance fails to decode: %v", err)
		}
		if !reflect.DeepEqual(FromInstance(inst), FromInstance(again)) {
			t.Fatal("instance changed across encode/decode")
		}
	})
}

// FuzzReadSolution: hostile solution JSON either errors or round-trips.
func FuzzReadSolution(f *testing.F) {
	f.Add([]byte(`{"instance":{"n":2,"edges":[[0,1]],"level":[1,0],"tokens":[0]},` +
		`"moves":[{"from":0,"to":1,"round":1}],"final":[1],"rounds":1}`))
	f.Add([]byte(`{"instance":{"n":0,"edges":[],"level":[],"tokens":[]},"rounds":0}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		sol, err := ReadSolution(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteSolution(&buf, sol); err != nil {
			t.Fatalf("accepted solution fails to encode: %v", err)
		}
		again, err := ReadSolution(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded solution fails to decode: %v", err)
		}
		if !reflect.DeepEqual(FromSolution(sol), FromSolution(again)) {
			t.Fatal("solution changed across encode/decode")
		}
	})
}

// FuzzReadSnapshot: hostile snapshot JSON either errors or round-trips
// bit-identically, and DiffSnapshots agrees the round trip is clean.
func FuzzReadSnapshot(f *testing.F) {
	f.Add([]byte(`{"version":1,"layer":"core","graph_hash":"fnv1a:0123456789abcdef",` +
		`"meta":{"tie":"first-port"},"round":3,"occupied":[0,2],"moves":1}`))
	f.Add([]byte(`{"version":1,"layer":"orient","graph_hash":"fnv1a:0","meta":{"tie":"random","seed":7},` +
		`"phase":2,"rounds":9,"oriented":4,"head":[1,0],"load":[1,1],"rngs":[12345,67890]}`))
	f.Add([]byte(`{"version":1,"layer":"bounded","graph_hash":"fnv1a:0","meta":{"tie":"first-port"},` +
		`"phase":1,"rounds":3,"k":2,"server_of":[0,-1],"unassigned":[1],"load":[1],` +
		`"phase_log":[{"phase":1,"proposals":2,"accepted":1,"game_edges":2,"game_rounds":3,"max_k_badness":1}]}`))
	f.Add([]byte(`{"version":2,"layer":"core","graph_hash":"","meta":{"tie":"first-port"}}`))
	f.Add([]byte(`{"version":1,"layer":"warp","graph_hash":"","meta":{"tie":"first-port"}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		sj, err := ReadSnapshot(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteSnapshot(&buf, sj); err != nil {
			t.Fatalf("accepted snapshot fails to encode: %v", err)
		}
		again, err := ReadSnapshot(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded snapshot fails to decode: %v", err)
		}
		// Compare in canonical form: omitempty legitimately collapses
		// empty slices to absent fields, so the stable property is that
		// the encoding reaches a byte-identical fixed point.
		var buf2 bytes.Buffer
		if err := WriteSnapshot(&buf2, again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
			t.Fatal("snapshot encoding is not a fixed point")
		}
		if d := DiffSnapshots(sj, again); d != nil {
			t.Fatalf("DiffSnapshots flags a clean round trip: %v", d)
		}
	})
}

// FuzzResumeSnapshot: hostile snapshot bytes, bound to a fixed graph
// (orient layer) or network (assign and bounded layers), either fail to
// decode, bind or restore, or resume SolveSharded — under the tie rule and
// seed of their meta — to a Stable (orient) or KStable (assign) result
// whose log holds Phases records numbered 1..Phases and whose Rounds is
// the sum of 2 + GameRounds over them. The seeds are every capture of
// orient under both tie rules and of assign at K = 0 and K = 2, plus each
// run's last capture tampered in the four ways restore must reject.
func FuzzResumeSnapshot(f *testing.F) {
	c := graph.CSRRandomRegular(24, 4, rand.New(rand.NewSource(42)))
	fb := bipartiteFixture(f)
	for _, sj := range resumeSeeds(f, c, fb) {
		var buf bytes.Buffer
		if err := WriteSnapshot(&buf, sj); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sj, err := ReadSnapshot(bytes.NewReader(data))
		if err != nil {
			return
		}
		tie, err := ParseTie(sj.Meta.Tie)
		if err != nil {
			return
		}
		var stable bool
		var phases, rounds int
		var log []core.PhaseRecord
		switch sj.Layer {
		case LayerOrient:
			snap, err := sj.ToOrientSnapshot(c)
			if err != nil {
				return
			}
			opt := orient.ShardedOptions{Tie: tie, Seed: sj.Meta.Seed, Shards: 1}
			opt.ResumeFrom = snap
			res, err := orient.SolveSharded(c, opt)
			if err != nil {
				return
			}
			stable, phases, rounds, log = res.Stable(), res.Phases, res.Rounds, res.PhaseLog
		case LayerAssign, LayerBounded:
			snap, err := sj.ToAssignSnapshot(fb, sj.Layer)
			if err != nil {
				return
			}
			opt := assign.ShardedOptions{K: snap.K, Tie: tie, Seed: sj.Meta.Seed, Shards: 1}
			opt.ResumeFrom = snap
			res, err := assign.SolveSharded(fb, opt)
			if err != nil {
				return
			}
			stable, phases, rounds, log = res.KStable(), res.Phases, res.Rounds, res.PhaseLog
		default:
			return
		}
		if !stable {
			t.Fatalf("%s snapshot at phase %d resumed to an unstable result", sj.Layer, sj.Phase)
		}
		if len(log) != phases {
			t.Fatalf("%s result: %d phases, %d log records", sj.Layer, phases, len(log))
		}
		sum := 0
		for i, r := range log {
			if r.Phase != i+1 {
				t.Fatalf("%s result: log record %d numbered %d", sj.Layer, i+1, r.Phase)
			}
			sum += 2 + r.GameRounds
		}
		if sum != rounds {
			t.Fatalf("%s result: %d rounds, log charges %d", sj.Layer, rounds, sum)
		}
	})
}

// resumeSeeds returns FuzzResumeSnapshot's seeds in on-disk form.
func resumeSeeds(f *testing.F, c *graph.CSR, fb *graph.CSRBipartite) []*SnapshotJSON {
	var seeds []*SnapshotJSON
	tamper := func(last *SnapshotJSON, badness func(*SnapshotJSON)) {
		for _, mutate := range []func(*SnapshotJSON){
			func(sj *SnapshotJSON) { sj.PhaseLog = sj.PhaseLog[:len(sj.PhaseLog)-1] },
			func(sj *SnapshotJSON) { sj.PhaseLog[len(sj.PhaseLog)-1].Phase++ },
			func(sj *SnapshotJSON) { sj.Rounds++ },
			badness,
		} {
			sj := *last
			sj.Head = append([]int32(nil), last.Head...)
			sj.Load = append([]int32(nil), last.Load...)
			sj.ServerOf = append([]int32(nil), last.ServerOf...)
			sj.PhaseLog = append([]PhaseRecordJSON(nil), last.PhaseLog...)
			mutate(&sj)
			seeds = append(seeds, &sj)
		}
	}
	for _, tie := range []core.TieBreak{core.TieFirstPort, core.TieRandom} {
		meta := RunMetaJSON{Tie: TieName(tie), Seed: 7}
		opt := orient.ShardedOptions{Tie: tie, Seed: meta.Seed, Shards: 2}
		opt.SnapshotEvery = 1
		opt.OnSnapshot = func(s *orient.Snapshot) error {
			seeds = append(seeds, FromOrientSnapshot(s, c, meta))
			return nil
		}
		if _, err := orient.SolveSharded(c, opt); err != nil {
			f.Fatal(err)
		}
		tamper(seeds[len(seeds)-1], func(sj *SnapshotJSON) {
			// Flip an oriented edge whose head is no more loaded than
			// its tail, loads kept consistent: badness ≥ 2.
			for v := 0; v < c.N(); v++ {
				lo, hi := c.ArcRange(v)
				for i := lo; i < hi; i++ {
					if id, w := c.EID[i], c.Col[i]; sj.Head[id] == w && sj.Load[w] <= sj.Load[v] {
						sj.Head[id] = int32(v)
						sj.Load[w]--
						sj.Load[v]++
						return
					}
				}
			}
		})
	}
	for _, k := range []int{0, 2} {
		meta := RunMetaJSON{Tie: TieName(core.TieFirstPort), Seed: 1}
		opt := assign.ShardedOptions{K: k, Tie: core.TieFirstPort, Seed: meta.Seed, Shards: 2}
		opt.SnapshotEvery = 1
		opt.OnSnapshot = func(s *assign.Snapshot) error {
			seeds = append(seeds, FromAssignSnapshot(s, fb, meta))
			return nil
		}
		if _, err := assign.SolveSharded(fb, opt); err != nil {
			f.Fatal(err)
		}
		tamper(seeds[len(seeds)-1], func(sj *SnapshotJSON) {
			// Drain the least-loaded nonempty server onto its customers'
			// most-loaded other servers, loads kept consistent: a moved
			// customer sits on a server of load ≥ 2 next to an empty one.
			d := int32(-1)
			for x, l := range sj.Load {
				if l > 0 && (d < 0 || l < sj.Load[d]) {
					d = int32(x)
				}
			}
			for cu, so := range sj.ServerOf {
				if so != d {
					continue
				}
				to := int32(-1)
				lo, hi := fb.C.ArcRange(cu)
				for i := lo; i < hi; i++ {
					if x := fb.C.Col[i] - int32(fb.NumLeft); x != d && (to < 0 || sj.Load[x] > sj.Load[to]) {
						to = x
					}
				}
				sj.ServerOf[cu] = to
				sj.Load[d]--
				sj.Load[to]++
			}
		})
	}
	return seeds
}
