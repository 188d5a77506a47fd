package encode

import (
	"bytes"
	"flag"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"tokendrop/internal/assign"
	"tokendrop/internal/core"
	"tokendrop/internal/graph"
	"tokendrop/internal/orient"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden snapshot files under testdata/")

// Deterministic fixtures: one mid-solve snapshot per layer, captured at a
// fixed cursor on a fixed seeded input. The golden files pin their byte
// encoding; the round-trip tests pin the bindings.

func coreFixture(t *testing.T) (*core.Snapshot, *core.FlatInstance, RunMetaJSON) {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	fi := core.FlatRandomLayered(core.LayeredConfig{
		Levels: 4, Width: 6, ParentDeg: 2, TokenProb: 0.6, FreeBottom: true,
	}, rng)
	var snap *core.Snapshot
	opt := core.ShardedSolveOptions{Tie: core.TieFirstPort, MaxRounds: 1 << 16, Shards: 2}
	opt.SnapshotEvery = 2
	opt.OnSnapshot = func(s *core.Snapshot) error {
		if snap == nil {
			snap = &core.Snapshot{Round: s.Round, Moves: s.Moves, Occupied: append([]bool(nil), s.Occupied...)}
		}
		return nil
	}
	if _, err := core.SolveProposalSharded(fi, opt); err != nil {
		t.Fatal(err)
	}
	if snap == nil {
		t.Fatal("fixture solve finished before round 2")
	}
	meta := RunMetaJSON{Workload: "layered levels=4 width=6", GenSeed: 42,
		Tie: TieName(core.TieFirstPort), Shards: 2}
	return snap, fi, meta
}

func orientFixture(t *testing.T) (*orient.Snapshot, *graph.CSR, RunMetaJSON) {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	c := graph.CSRRandomRegular(24, 4, rng)
	var snap *orient.Snapshot
	opt := orient.ShardedOptions{Tie: core.TieRandom, Seed: 7, Shards: 2}
	opt.SnapshotEvery = 1
	opt.OnSnapshot = func(s *orient.Snapshot) error {
		if snap == nil {
			snap = &orient.Snapshot{
				Phase: s.Phase, Oriented: s.Oriented, Rounds: s.Rounds,
				Head:     append([]int32(nil), s.Head...),
				Load:     append([]int32(nil), s.Load...),
				Rngs:     append([]uint64(nil), s.Rngs...),
				PhaseLog: append([]orient.PhaseRecord(nil), s.PhaseLog...),
			}
		}
		return nil
	}
	if _, err := orient.SolveSharded(c, opt); err != nil {
		t.Fatal(err)
	}
	if snap == nil {
		t.Fatal("fixture solve finished before phase 1")
	}
	meta := RunMetaJSON{Workload: "regular n=24 d=4", GenSeed: 42,
		Tie: TieName(core.TieRandom), Seed: 7, Shards: 2}
	return snap, c, meta
}

func bipartiteFixture(t testing.TB) *graph.CSRBipartite {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	return graph.NewCSRBipartiteFromBipartite(
		graph.MustBipartite(graph.RandomBipartite(24, 6, 3, rng), 24))
}

// firstAssignCapture returns a copy of the phase-1 capture of a solve.
func firstAssignCapture(t *testing.T, fb *graph.CSRBipartite, opt assign.ShardedOptions) *assign.Snapshot {
	t.Helper()
	var snap *assign.Snapshot
	opt.SnapshotEvery = 1
	opt.OnSnapshot = func(s *assign.Snapshot) error {
		if snap == nil {
			snap = &assign.Snapshot{
				K: s.K, Phase: s.Phase, Rounds: s.Rounds,
				ServerOf:   append([]int32(nil), s.ServerOf...),
				Load:       append([]int32(nil), s.Load...),
				Unassigned: append([]int32(nil), s.Unassigned...),
				CustRng:    append([]uint64(nil), s.CustRng...),
				ServRng:    append([]uint64(nil), s.ServRng...),
				PhaseLog:   append([]assign.PhaseRecord(nil), s.PhaseLog...),
			}
		}
		return nil
	}
	if _, err := assign.SolveSharded(fb, opt); err != nil {
		t.Fatal(err)
	}
	if snap == nil {
		t.Fatal("fixture solve finished before phase 1")
	}
	return snap
}

func assignFixture(t *testing.T) (*assign.Snapshot, *graph.CSRBipartite, RunMetaJSON) {
	t.Helper()
	fb := bipartiteFixture(t)
	snap := firstAssignCapture(t, fb, assign.ShardedOptions{Tie: core.TieFirstPort, Seed: 1, Shards: 2})
	meta := RunMetaJSON{Workload: "bipartite customers=24 servers=6 cdeg=3", GenSeed: 42,
		Tie: TieName(core.TieFirstPort), Seed: 1, Shards: 2}
	return snap, fb, meta
}

func boundedFixture(t *testing.T) (*assign.Snapshot, *graph.CSRBipartite, RunMetaJSON) {
	t.Helper()
	fb := bipartiteFixture(t)
	snap := firstAssignCapture(t, fb, assign.ShardedOptions{K: 2, Tie: core.TieFirstPort, Seed: 1, Shards: 2})
	meta := RunMetaJSON{Workload: "bipartite customers=24 servers=6 cdeg=3", GenSeed: 42,
		Tie: TieName(core.TieFirstPort), Seed: 1, Shards: 2}
	return snap, fb, meta
}

// resolverFixture builds a live Resolver a few deterministic deltas away
// from its seed network, so the overlay snapshot has recycled ids, a
// fresh server, and appended edges to pin.
func resolverFixture(t *testing.T) (*assign.Resolver, RunMetaJSON) {
	t.Helper()
	fb := bipartiteFixture(t)
	r, err := assign.NewResolver(fb, nil, assign.ResolverOptions{
		Tie: core.TieFirstPort, Seed: 1, Shards: 2, SelfCheck: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	if err := r.RemoveCustomer(5); err != nil {
		t.Fatal(err)
	}
	s, err := r.AddServer()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.AddCustomer([]int32{int32(s), 0}); err != nil {
		t.Fatal(err)
	}
	if err := r.AddEdge(7, s); err != nil {
		t.Fatal(err)
	}
	meta := RunMetaJSON{Workload: "bipartite customers=24 servers=6 cdeg=3", GenSeed: 42,
		Tie: TieName(core.TieFirstPort), Seed: 1, Shards: 2}
	return r, meta
}

// TestSnapshotBindingsRoundTrip: for every layer, in-memory snapshot →
// JSON → bytes → JSON → in-memory snapshot is the identity.
func TestSnapshotBindingsRoundTrip(t *testing.T) {
	encodeDecode := func(t *testing.T, sj *SnapshotJSON) *SnapshotJSON {
		t.Helper()
		var buf bytes.Buffer
		if err := WriteSnapshot(&buf, sj); err != nil {
			t.Fatal(err)
		}
		got, err := ReadSnapshot(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(sj, got) {
			t.Fatal("snapshot changed across encode/decode")
		}
		return got
	}

	t.Run("core", func(t *testing.T) {
		snap, fi, meta := coreFixture(t)
		sj := encodeDecode(t, FromCoreSnapshot(snap, fi, meta))
		back, err := sj.ToCoreSnapshot(fi)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(snap, back) {
			t.Fatal("core snapshot round trip diverged")
		}
	})
	t.Run("orient", func(t *testing.T) {
		snap, c, meta := orientFixture(t)
		sj := encodeDecode(t, FromOrientSnapshot(snap, c, meta))
		back, err := sj.ToOrientSnapshot(c)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(snap, back) {
			t.Fatal("orient snapshot round trip diverged")
		}
	})
	t.Run("assign", func(t *testing.T) {
		snap, fb, meta := assignFixture(t)
		sj := encodeDecode(t, FromAssignSnapshot(snap, fb, meta))
		back, err := sj.ToAssignSnapshot(fb, LayerAssign)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(snap, back) {
			t.Fatal("assign snapshot round trip diverged")
		}
	})
	t.Run("bounded", func(t *testing.T) {
		snap, fb, meta := boundedFixture(t)
		sj := encodeDecode(t, FromAssignSnapshot(snap, fb, meta))
		back, err := sj.ToAssignSnapshot(fb, LayerBounded)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(snap, back) {
			t.Fatal("bounded snapshot round trip diverged")
		}
	})
	t.Run("overlay", func(t *testing.T) {
		r, meta := resolverFixture(t)
		sj := encodeDecode(t, FromResolver(r, meta))
		back, err := sj.ToResolver(assign.ResolverOptions{Tie: core.TieFirstPort, Seed: 1, Shards: 2})
		if err != nil {
			t.Fatal(err)
		}
		defer back.Close()
		if err := back.Verify(); err != nil {
			t.Fatalf("restored resolver fails the oracle: %v", err)
		}
		// A faithful snapshot of a stable resolver restores without any
		// repair moves, and re-serializing the restored resolver is the
		// identity — ids, port order, and assignment all survive.
		if moves := back.Stats().Moves; moves != 0 {
			t.Fatalf("restore repaired a stable snapshot (%d moves)", moves)
		}
		if again := FromResolver(back, meta); !reflect.DeepEqual(sj, again) {
			t.Fatal("overlay snapshot round trip diverged")
		}
		if _, err := FromAssignSnapshot(&assign.Snapshot{}, bipartiteFixture(t), meta).ToResolver(assign.ResolverOptions{}); err == nil {
			t.Fatal("assign snapshot restored as an overlay")
		}
	})
}

// TestSnapshotBindingRejectsMismatch: a binding refuses a snapshot of
// the wrong layer, the wrong graph, or an unknown version.
func TestSnapshotBindingRejectsMismatch(t *testing.T) {
	snap, fi, meta := coreFixture(t)
	sj := FromCoreSnapshot(snap, fi, meta)

	t.Run("wrong layer", func(t *testing.T) {
		_, c, _ := orientFixture(t)
		if _, err := sj.ToOrientSnapshot(c); err == nil {
			t.Fatal("core snapshot bound to an orient run")
		}
	})
	t.Run("assign and bounded layers stay apart", func(t *testing.T) {
		as, fb, meta := assignFixture(t)
		bs, _, _ := boundedFixture(t)
		if _, err := FromAssignSnapshot(as, fb, meta).ToAssignSnapshot(fb, LayerBounded); err == nil {
			t.Fatal("assign snapshot bound to a k-bounded run")
		}
		if _, err := FromAssignSnapshot(bs, fb, meta).ToAssignSnapshot(fb, LayerAssign); err == nil {
			t.Fatal("k-bounded snapshot bound to an assign run")
		}
		if _, err := sj.ToAssignSnapshot(fb, LayerCore); err == nil {
			t.Fatal("assignment binding accepted a non-assignment layer")
		}
		forged := FromAssignSnapshot(as, fb, meta)
		forged.Layer = LayerBounded
		if _, err := forged.ToAssignSnapshot(fb, LayerBounded); err == nil {
			t.Fatal("bounded-layer snapshot without a threshold accepted")
		}
	})
	t.Run("wrong graph", func(t *testing.T) {
		rng := rand.New(rand.NewSource(43))
		other := core.FlatRandomLayered(core.LayeredConfig{
			Levels: 4, Width: 6, ParentDeg: 2, TokenProb: 0.6, FreeBottom: true,
		}, rng)
		if _, err := sj.ToCoreSnapshot(other); err == nil {
			t.Fatal("snapshot bound to a different graph")
		}
	})
	t.Run("wrong version", func(t *testing.T) {
		bad := *sj
		bad.Version = SnapshotVersion + 1
		if _, err := bad.ToCoreSnapshot(fi); err == nil {
			t.Fatal("future-version snapshot accepted")
		}
	})
	t.Run("duplicate token vertex", func(t *testing.T) {
		bad := *sj
		bad.Occupied = append(append([]int(nil), sj.Occupied...), sj.Occupied[0])
		if _, err := bad.ToCoreSnapshot(fi); err == nil {
			t.Fatal("duplicate token vertex accepted")
		}
	})
}

// TestGoldenSnapshots pins the on-disk byte encoding: each committed
// golden file must decode, re-encode byte-identically, and still bind to
// the regenerated fixture input. Run with -update to rewrite the files
// after an intentional format change (which must also bump
// SnapshotVersion).
func TestGoldenSnapshots(t *testing.T) {
	cases := []struct {
		file  string
		build func(t *testing.T) (*SnapshotJSON, func(*SnapshotJSON) error)
	}{
		{"golden_core.json", func(t *testing.T) (*SnapshotJSON, func(*SnapshotJSON) error) {
			snap, fi, meta := coreFixture(t)
			return FromCoreSnapshot(snap, fi, meta), func(sj *SnapshotJSON) error {
				_, err := sj.ToCoreSnapshot(fi)
				return err
			}
		}},
		{"golden_orient.json", func(t *testing.T) (*SnapshotJSON, func(*SnapshotJSON) error) {
			snap, c, meta := orientFixture(t)
			return FromOrientSnapshot(snap, c, meta), func(sj *SnapshotJSON) error {
				_, err := sj.ToOrientSnapshot(c)
				return err
			}
		}},
		{"golden_assign.json", func(t *testing.T) (*SnapshotJSON, func(*SnapshotJSON) error) {
			snap, fb, meta := assignFixture(t)
			return FromAssignSnapshot(snap, fb, meta), func(sj *SnapshotJSON) error {
				_, err := sj.ToAssignSnapshot(fb, LayerAssign)
				return err
			}
		}},
		{"golden_bounded.json", func(t *testing.T) (*SnapshotJSON, func(*SnapshotJSON) error) {
			snap, fb, meta := boundedFixture(t)
			return FromAssignSnapshot(snap, fb, meta), func(sj *SnapshotJSON) error {
				_, err := sj.ToAssignSnapshot(fb, LayerBounded)
				return err
			}
		}},
		{"golden_overlay.json", func(t *testing.T) (*SnapshotJSON, func(*SnapshotJSON) error) {
			r, meta := resolverFixture(t)
			return FromResolver(r, meta), func(sj *SnapshotJSON) error {
				back, err := sj.ToResolver(assign.ResolverOptions{Tie: core.TieFirstPort, Seed: 1})
				if err == nil {
					back.Close()
				}
				return err
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.file, func(t *testing.T) {
			sj, bind := tc.build(t)
			path := filepath.Join("testdata", tc.file)
			if *updateGolden {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := SaveSnapshotFile(path, sj); err != nil {
					t.Fatal(err)
				}
			}
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to regenerate)", err)
			}
			decoded, err := ReadSnapshot(bytes.NewReader(raw))
			if err != nil {
				t.Fatalf("golden file no longer decodes: %v", err)
			}
			var buf bytes.Buffer
			if err := WriteSnapshot(&buf, decoded); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(raw, buf.Bytes()) {
				t.Fatal("golden file re-encodes differently: the on-disk format drifted; bump SnapshotVersion and regenerate with -update")
			}
			if !reflect.DeepEqual(sj, decoded) {
				t.Fatal("freshly captured snapshot differs from the golden file: determinism or format drift")
			}
			if err := bind(decoded); err != nil {
				t.Fatalf("golden snapshot no longer binds to its input: %v", err)
			}
		})
	}
}

// TestReadSnapshotRejectsDrift: unknown versions, unknown layers, and
// unknown fields fail at decode time.
func TestReadSnapshotRejectsDrift(t *testing.T) {
	cases := []struct {
		name, in, wantErr string
	}{
		{"unknown version", `{"version":999,"layer":"core","graph_hash":"fnv1a:0","meta":{"tie":"first-port"}}`, "version 999"},
		{"zero version", `{"layer":"core","graph_hash":"fnv1a:0","meta":{"tie":"first-port"}}`, "version 0"},
		{"unknown layer", `{"version":1,"layer":"quantum","graph_hash":"fnv1a:0","meta":{"tie":"first-port"}}`, "unknown snapshot layer"},
		{"unknown field", `{"version":1,"layer":"core","graph_hash":"fnv1a:0","meta":{"tie":"first-port"},"surprise":1}`, "unknown field"},
		{"unknown meta field", `{"version":1,"layer":"core","graph_hash":"fnv1a:0","meta":{"tie":"first-port","color":"red"}}`, "unknown field"},
		{"malformed", `{"version":1,`, "unexpected EOF"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ReadSnapshot(strings.NewReader(tc.in))
			if err == nil {
				t.Fatal("hostile snapshot decoded without error")
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

// TestSaveSnapshotFileAtomicOverwrite: overwriting an existing snapshot
// leaves no temp files behind and the file always holds a full snapshot.
func TestSaveSnapshotFileAtomicOverwrite(t *testing.T) {
	snap, fi, meta := coreFixture(t)
	sj := FromCoreSnapshot(snap, fi, meta)
	dir := t.TempDir()
	path := filepath.Join(dir, "snapshot.json")
	for i := 0; i < 3; i++ {
		sj.Round = i + 1
		if err := SaveSnapshotFile(path, sj); err != nil {
			t.Fatal(err)
		}
		got, err := ReadSnapshotFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if got.Round != i+1 {
			t.Fatalf("read round %d after writing %d", got.Round, i+1)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "snapshot.json" {
		t.Fatalf("directory holds %v, want only snapshot.json", entries)
	}
}

// TestDiffSnapshots: identical snapshots diff to nil; each perturbation
// is localized to a named field.
func TestDiffSnapshots(t *testing.T) {
	snap, fb, meta := assignFixture(t)
	base := FromAssignSnapshot(snap, fb, meta)
	if d := DiffSnapshots(base, base); d != nil {
		t.Fatalf("identical snapshots diff: %v", d)
	}
	cases := []struct {
		name, where string
		mutate      func(sj *SnapshotJSON)
	}{
		{"layer", "layer", func(sj *SnapshotJSON) { sj.Layer = LayerBounded }},
		{"graph hash", "graph_hash", func(sj *SnapshotJSON) { sj.GraphHash = "fnv1a:0" }},
		{"tie", "meta.tie", func(sj *SnapshotJSON) { sj.Meta.Tie = "random" }},
		{"seed", "meta.seed", func(sj *SnapshotJSON) { sj.Meta.Seed++ }},
		{"phase", "phase", func(sj *SnapshotJSON) { sj.Phase++ }},
		{"rounds", "rounds", func(sj *SnapshotJSON) { sj.Rounds++ }},
		{"server_of entry", "server_of[0]", func(sj *SnapshotJSON) { sj.ServerOf[0]++ }},
		{"load length", "len(load)", func(sj *SnapshotJSON) { sj.Load = sj.Load[:len(sj.Load)-1] }},
		{"phase log", "phase_log[0].proposals", func(sj *SnapshotJSON) { sj.PhaseLog[0].Proposals++ }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			other := *base
			other.ServerOf = append([]int32(nil), base.ServerOf...)
			other.Load = append([]int32(nil), base.Load...)
			other.PhaseLog = append([]PhaseRecordJSON(nil), base.PhaseLog...)
			tc.mutate(&other)
			d := DiffSnapshots(base, &other)
			if d == nil {
				t.Fatal("perturbed snapshot diffs to nil")
			}
			if d.Where != tc.where {
				t.Fatalf("divergence at %q, want %q", d.Where, tc.where)
			}
		})
	}
}

// TestOverlayHashRejectsTamper pins the overlay self-hash: a snapshot
// whose serialized graph no longer matches its header hash is refused
// (the restore-on-boot defense against torn or hand-edited state), while
// a hashless snapshot from before the field was populated still
// restores.
func TestOverlayHashRejectsTamper(t *testing.T) {
	r, meta := resolverFixture(t)
	sj := FromResolver(r, meta)
	if sj.GraphHash == "" {
		t.Fatal("FromResolver left the self-hash empty")
	}
	opt := assign.ResolverOptions{Tie: core.TieFirstPort, Seed: 1}

	tamper := func(name string, mutate func(*SnapshotJSON)) {
		t.Run(name, func(t *testing.T) {
			bad := *sj
			mutate(&bad)
			if back, err := bad.ToResolver(opt); err == nil {
				back.Close()
				t.Fatal("tampered snapshot restored")
			}
		})
	}
	tamper("rewired edge", func(bad *SnapshotJSON) {
		bad.AdjServer = append([]int32(nil), sj.AdjServer...)
		bad.AdjServer[0] = sj.ServIDs[len(sj.ServIDs)-1]
	})
	tamper("dropped customer", func(bad *SnapshotJSON) {
		bad.CustIDs = sj.CustIDs[:len(sj.CustIDs)-1]
	})
	tamper("dropped server", func(bad *SnapshotJSON) {
		bad.ServIDs = sj.ServIDs[:len(sj.ServIDs)-1]
	})
	tamper("swapped ports", func(bad *SnapshotJSON) {
		bad.AdjServer = append([]int32(nil), sj.AdjServer...)
		lo, hi := sj.AdjPtr[0], sj.AdjPtr[1]
		if hi-lo < 2 {
			t.Fatal("fixture customer 0 needs two ports")
		}
		bad.AdjServer[lo], bad.AdjServer[lo+1] = bad.AdjServer[lo+1], bad.AdjServer[lo]
	})

	t.Run("legacy hashless snapshot restores", func(t *testing.T) {
		old := *sj
		old.GraphHash = ""
		back, err := old.ToResolver(opt)
		if err != nil {
			t.Fatal(err)
		}
		defer back.Close()
		if err := back.Verify(); err != nil {
			t.Fatal(err)
		}
	})
}
