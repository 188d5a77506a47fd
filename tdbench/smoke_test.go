package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// spec is the part of BENCHMARK.json the smoke test checks against.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// TestSmoke builds the benchmark and td-serve, runs every workload of
// BENCHMARK.json once at tiny sizes, untraced and traced, and checks
// that each run exits 0 and ends with a result line that has no failure
// and exactly the metrics BENCHMARK.json names for its mode, each with
// its unit.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds two binaries and runs eight benchmark runs")
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var sp spec
	if err := json.Unmarshal(raw, &sp); err != nil {
		t.Fatal(err)
	}
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(sp.Workloads), len(workloads))
	}
	for i, w := range sp.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("BENCHMARK.json workload %d is %q, the benchmark's is %q", i, w.Name, workloads[i].name)
		}
	}
	dir := t.TempDir()
	bin, serve := filepath.Join(dir, "tdbench"), filepath.Join(dir, "td-serve")
	for _, args := range [][]string{{"-o", bin, "."}, {"-o", serve, "tokendrop/cmd/td-serve"}} {
		out, err := exec.Command("go", append([]string{"build"}, args...)...).CombinedOutput()
		if err != nil {
			t.Fatalf("go build %v: %v\n%s", args, err, out)
		}
	}
	for _, w := range sp.Workloads {
		for trace, want := range map[string][]specMetric{"0": sp.EndToEnd, "1": sp.PerLayer} {
			name, trace, want := w.Name, trace, want
			t.Run(name+"/trace"+trace, func(t *testing.T) {
				cmd := exec.Command(bin, "-tiny", "-workload", name, "-seed", "3", "-seconds", "0.3",
					"-trace", trace, "-td-serve", serve, "-trace-dir", dir)
				var stderr bytes.Buffer
				cmd.Stderr = &stderr
				out, err := cmd.Output()
				if err != nil {
					t.Fatalf("%v\nstdout:\n%s\nstderr:\n%s", err, out, stderr.Bytes())
				}
				lines := strings.Split(strings.TrimSpace(string(out)), "\n")
				var res struct {
					Correct   bool              `json:"correct"`
					Attempted int               `json:"attempted"`
					Failed    int               `json:"failed"`
					Metrics   map[string]metric `json:"metrics"`
				}
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not a result: %v\n%s", err, out)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, out)
				}
				if !strings.Contains(string(out), "failed_frac ") {
					t.Errorf("no failed_frac line\n%s", out)
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok {
						t.Errorf("metric %s missing", m.Name)
					} else if got.Unit != m.Unit {
						t.Errorf("metric %s in %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
					}
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics printed, BENCHMARK.json names %d", len(res.Metrics), len(want))
				}
			})
		}
	}
}
