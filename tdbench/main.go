// Command tdbench is the repository benchmark. One run measures one
// workload for a fixed time against the tokendrop facade, the mp fleet
// or the real td-serve binary, checks every result, and prints its
// metrics; the last line of standard output is one JSON object:
//
//	{"correct":true,"attempted":55,"failed":0,"metrics":{"op_p50_ms":{"value":271.3,"unit":"ms"},...}}
//
// Usage (run.sh builds this binary and td-serve from source first):
//
//	tdbench -workload game|phase|serve-http|game-mp -seed N -seconds S -trace 0|1 [-td-serve PATH]
//
// With -trace 0 the metrics are the end-to-end ones: setup_s,
// cpu_ms_per_op and peak_rss_mb, with op_p50_ms and failed_frac printed
// above the result. With -trace 1 the run records spans around every
// call into a layer and prints the per-layer metrics derived from them.
// README.md explains the workloads and the metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"

	"tokendrop/internal/mp"
)

func main() {
	var (
		name     = flag.String("workload", "", "game, phase, serve-http or game-mp")
		seed     = flag.Int64("seed", 1, "workload seed: picks the instance and the delta stream")
		seconds  = flag.Float64("seconds", 10, "how long the timed ops run")
		trace    = flag.Int("trace", 0, "1 records spans and prints the per-layer metrics instead of the end-to-end ones")
		tdServe  = flag.String("td-serve", "", "path of the td-serve binary (serve-http, and the serve probe of traced runs)")
		traceDir = flag.String("trace-dir", "", "with -trace 1: directory the span log is written to")
		tiny     = flag.Bool("tiny", false, "shrink every instance (smoke test)")
		mpWorker = flag.Bool("mp-worker", false, "internal: run as a multi-process worker over stdin/stdout (spawned by game-mp)")
	)
	flag.Parse()
	if *mpWorker {
		if err := mp.WorkerMain(os.Stdin, os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "tdbench: mp worker: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *trace != 0 && *trace != 1 {
		fatalf("-trace must be 0 or 1, got %d", *trace)
	}
	if *seconds <= 0 {
		fatalf("-seconds must be positive, got %v", *seconds)
	}
	var w workload
	var names []string
	for _, c := range workloads {
		if c.name == *name {
			w = c
		}
		names = append(names, c.name)
	}
	if w.name == "" {
		fatalf("unknown -workload %q (want one of %s)", *name, strings.Join(names, ", "))
	}
	b := &bench{
		seed:    *seed,
		seconds: *seconds,
		tdServe: *tdServe,
		sizes:   fullSizes,
		out:     newReport(),
	}
	if *tiny {
		b.sizes = tinySizes
	}
	if *trace == 1 {
		b.rec = newRecorder()
	}
	if err := b.run(w); err != nil {
		fatalf("%s: %v", *name, err)
	}
	if b.rec != nil && *traceDir != "" {
		if err := b.rec.writeFile(*traceDir, *name); err != nil {
			fatalf("writing the span log: %v", err)
		}
	}
	b.out.print(os.Stdout)
	if b.out.failed > 0 {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "tdbench: "+format+"\n", args...)
	os.Exit(2)
}

// metric is one printed figure with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects one run's figures: the metrics that go into the
// final JSON line, and report-only lines printed above it.
type report struct {
	attempted, failed int
	metrics           map[string]metric
	notes             []string
}

func newReport() *report { return &report{metrics: map[string]metric{}} }

// set records a metric; a metric is set once, so a probe never
// overrides what the named workload measured.
func (r *report) set(name string, value float64, unit string) {
	if _, ok := r.metrics[name]; ok {
		return
	}
	r.metrics[name] = metric{Value: value, Unit: unit}
}

func (r *report) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// ops adds a batch of attempted and failed operations.
func (r *report) ops(attempted, failed int) {
	r.attempted += attempted
	r.failed += failed
}

func (r *report) print(w *os.File) {
	for n, m := range r.metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fatalf("metric %s is %v", n, m.Value)
		}
	}
	for _, n := range r.notes {
		fmt.Fprintln(w, n)
	}
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.metrics[n]
		fmt.Fprintf(w, "%-34s %14.6g %s\n", n, m.Value, m.Unit)
	}
	frac := 0.0
	if r.attempted > 0 {
		frac = float64(r.failed) / float64(r.attempted)
	}
	fmt.Fprintf(w, "%-34s %14.6g ratio (%d of %d ops)\n", "failed_frac", frac, r.failed, r.attempted)
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.failed == 0 && r.attempted > 0, r.attempted, r.failed, r.metrics})
	if err != nil {
		fatalf("encoding the result: %v", err)
	}
	fmt.Fprintln(w, string(line))
}
