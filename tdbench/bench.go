package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// sizes fixes every instance shape; the seed only picks the instance.
type sizes struct {
	gameWidth       int // game: layered width at L=5 (6 layers)
	mpWidth         int // game-mp: layered width at L=5
	orientN         int // phase: power-law graph vertices
	assignNL        int // phase: power-law bipartite customers
	assignNR        int // phase: power-law bipartite servers
	serveCustomers  int // serve-http: seeded network customers
	serveServers    int // serve-http: seeded network servers
	serveWarmup     int // serve-http: warm-up churn steps before timing
	serveProbeSteps int // serve-http: churn steps of a traced run's serve probe
}

var fullSizes = sizes{
	gameWidth:       40_000,
	mpWidth:         20_000,
	orientN:         60_000,
	assignNL:        90_000,
	assignNR:        22_500,
	serveCustomers:  100_000,
	serveServers:    25_000,
	serveWarmup:     512,
	serveProbeSteps: 4_000,
}

var tinySizes = sizes{
	gameWidth:       400,
	mpWidth:         200,
	orientN:         600,
	assignNL:        900,
	assignNR:        225,
	serveCustomers:  2_000,
	serveServers:    500,
	serveWarmup:     64,
	serveProbeSteps: 300,
}

const (
	// shards is the engine worker count of every in-process solve: one
	// worker per core of the 2-vCPU reference box, the CLIs' default.
	shards = 2
	// setupReps is how many times a run sets up; setup_s is the median.
	setupReps = 3
	// probeOps is the op count of a traced run's probe of a workload
	// other than the named one.
	probeOps = 2
	// diagReps is the pair count of the paired diagnostics (shard
	// speedup, warm over one-shot, mp overhead, encode).
	diagReps = 3
)

// bench is one benchmark run.
type bench struct {
	seed    int64
	seconds float64
	tdServe string
	sizes   sizes
	out     *report
	rec     *recorder // nil: untraced
}

// workload runs one workload. e2e measures the end-to-end metrics;
// trace runs a traced pass and derives per-layer metrics from its
// spans. main says the pass is the named workload's: it then owns the
// time budget and reports trace.overhead_pct, while a probe runs only
// a few ops.
type workload struct {
	name  string
	e2e   func(b *bench) error
	trace func(b *bench, main bool) error
}

// workloads, in the order a traced run probes them.
var workloads = []workload{
	{"game", gameE2E, gameTrace},
	{"phase", phaseE2E, phaseTrace},
	{"serve-http", serveE2E, serveTrace},
	{"game-mp", mpE2E, mpTrace},
}

func (b *bench) run(w workload) error {
	if b.rec == nil {
		return w.e2e(b)
	}
	// A traced run measures the named workload's layers, then probes
	// the workloads owning the layers it bypasses, so every per-layer
	// metric is measured in every traced run. report.set keeps the
	// first value, so the named workload's figures win.
	if err := w.trace(b, true); err != nil {
		return err
	}
	for _, other := range workloads {
		if other.name == w.name {
			continue
		}
		if err := other.trace(b, false); err != nil {
			return fmt.Errorf("%s probe: %w", other.name, err)
		}
	}
	return nil
}

// timed calls op until seconds have passed and at least minOps ops
// ran. op returns the wall times of the ops it ran (serve-http runs one
// or two requests per step). It notes the host's steal share over the
// ops, the time the hypervisor gave this VM's vCPUs to other guests.
func (b *bench) timed(seconds float64, minOps int, op func(i int) []float64) []float64 {
	var lat []float64
	s0, t0, err0 := hostSteal()
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for i := 0; len(lat) < minOps || time.Now().Before(deadline); i++ {
		lat = append(lat, op(i)...)
	}
	if s1, t1, err1 := hostSteal(); err0 == nil && err1 == nil && t1 > t0 {
		b.out.notef("host steal during the timed ops: %.1f%% of vCPU time", 100*float64(s1-s0)/float64(t1-t0))
	}
	return lat
}

// setups runs setup setupReps times from a collected heap. setup
// returns the CPU time the program spent on it; setups returns the
// medians of that CPU time and of the wall time.
func setups(setup func() (time.Duration, error)) (cpuS, wallS float64, err error) {
	cpu := make([]float64, 0, setupReps)
	wall := make([]float64, 0, setupReps)
	for i := 0; i < setupReps; i++ {
		freeMemory()
		t0 := time.Now()
		c, err := setup()
		if err != nil {
			return 0, 0, err
		}
		wall = append(wall, time.Since(t0).Seconds())
		cpu = append(cpu, c.Seconds())
	}
	return median(cpu), median(wall), nil
}

// e2e sets the end-to-end metrics every workload reports. The gated
// times are CPU times: hypervisor steal on a shared VM stretches the
// wall time of two-shard work by up to 2x between runs, while the
// kernel keeps stolen time out of a process's CPU time. The wall
// figures are printed above the result for people.
func (b *bench) e2e(setupCPU, setupWall float64, lat []float64, cpu time.Duration, peakKiB int64, failed int) {
	b.out.ops(len(lat), failed)
	b.out.set("setup_s", setupCPU, "s")
	b.out.set("cpu_ms_per_op", ms(cpu)/float64(len(lat)), "ms")
	b.out.set("peak_rss_mb", float64(peakKiB)/1024, "MiB")
	b.out.notef("op_p50_ms %.6g ms (wall, median of %d ops)", median(lat), len(lat))
	b.out.notef("setup wall %.6g s; setup_s is the CPU time, each the median of %d set-ups", setupWall, setupReps)
}

// overhead sets trace.overhead_pct from the traced and untraced op
// times of a main traced pass.
func (b *bench) overhead(traced, untraced []float64) {
	b.out.set("trace.overhead_pct", (median(traced)/median(untraced)-1)*100, "%")
	b.out.notef("trace overhead from %d traced and %d untraced ops", len(traced), len(untraced))
}

// freeMemory returns the garbage of earlier work to the OS, so a
// repeated set-up or a probe does not inflate the peak resident set.
func freeMemory() {
	runtime.GC()
	debug.FreeOSMemory()
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func sinceMS(t0 time.Time) float64 { return ms(time.Since(t0)) }

// median returns the middle value (the mean of the two middle values
// for an even count); 0 for no values.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile returns the nearest-rank q-quantile and how many samples lie
// above it.
func quantile(v []float64, q float64) (float64, int) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	i := int(q*float64(len(s)) + 0.5)
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i], len(s) - 1 - i
}

// cpuSelf returns this process's user plus system CPU time.
func cpuSelf() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		fatalf("getrusage: %v", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// hostSteal reads the VM's stolen and total vCPU time in clock ticks
// from the first line of /proc/stat.
func hostSteal() (steal, total int64, err error) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, fmt.Errorf("unexpected /proc/stat line %q", line)
	}
	for i, x := range f[1:] {
		v, err := strconv.ParseInt(x, 10, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("/proc/stat: %w", err)
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total, nil
}

// procPeakRSSKiB reads VmHWM, the peak resident set, of a process
// ("self" or a pid).
func procPeakRSSKiB(pid string) (int64, error) {
	f, err := os.Open("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM of %s: %w", pid, err)
			}
			return kb, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

// clockTick is the unit of the CPU times in /proc/<pid>/stat (USER_HZ,
// 100 on every Linux architecture Go supports).
const clockTick = 10 * time.Millisecond

// procCPU reads a process's user plus system CPU time from
// /proc/<pid>/stat.
func procCPU(pid int) (time.Duration, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) is parenthesized and may hold spaces;
	// utime and stime are fields 14 and 15, the 12th and 13th after it.
	s := string(raw)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad cpu fields in /proc/%d/stat", pid)
	}
	return time.Duration(ut+st) * clockTick, nil
}
