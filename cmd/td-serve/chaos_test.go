package main

// Chaos suite for td-serve: in-process tests drive the daemon's mux
// directly (unified error shape, overload shedding, fault-injected
// deltas), and the process-level test builds the real binary, SIGKILLs
// it mid-churn, validates the surviving snapshot against the oracle,
// restarts from it, and proves the daemon serves on.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"tokendrop"
)

func testConfig() serveConfig {
	return serveConfig{
		customers: 60, servers: 20, cdeg: 3, seed: 1, shards: 1,
		maxInflight: 8, queueWait: 100 * time.Millisecond,
		reqTimeout: 2 * time.Second, drainTimeout: time.Second,
		snapshotEvery: time.Hour,
	}
}

// startDaemon boots an in-process daemon behind httptest and waits for
// its in-flight deltas to drain before closing the Resolver.
func startDaemon(t *testing.T, cfg serveConfig) (*daemon, *httptest.Server) {
	t.Helper()
	d, err := newDaemon(cfg)
	if err != nil {
		t.Fatalf("newDaemon: %v", err)
	}
	srv := httptest.NewServer(d.mux())
	t.Cleanup(func() {
		srv.Close()
		deadline := time.Now().Add(5 * time.Second)
		for len(d.sem) > 0 && time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
		}
		if len(d.sem) > 0 {
			t.Errorf("deltas still in flight at teardown")
			return
		}
		d.r.Close()
	})
	return d, srv
}

// decodeErr asserts a response carries the unified error JSON with the
// status repeated in code.
func decodeErr(t *testing.T, resp *http.Response, wantStatus int) errResp {
	t.Helper()
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("status = %d, want %d", resp.StatusCode, wantStatus)
	}
	var e errResp
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatalf("error body is not JSON: %v", err)
	}
	if e.Code != wantStatus {
		t.Fatalf("error code = %d, want %d", e.Code, wantStatus)
	}
	if e.Error == "" {
		t.Fatal("error message is empty")
	}
	return e
}

func postJSON(t *testing.T, url string, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	return resp
}

// errorShapeCases are TestErrorJSONShape's refused POSTs, one or more
// per failure class; FuzzDecodeRequest seeds its corpus with the bodies.
var errorShapeCases = []struct {
	path, body string
	status     int
}{
	{"/assign", `{"servers":`, http.StatusBadRequest},
	{"/assign", `{"serverz":[1]}`, http.StatusBadRequest},
	{"/assign", `{}`, http.StatusBadRequest},
	{"/assign", `{"servers":[1,2]} xx`, http.StatusBadRequest},
	{"/drain", ``, http.StatusBadRequest},
	{"/drain", `{"server":null}`, http.StatusBadRequest},
	{"/release", `{}`, http.StatusBadRequest},
	{"/release", `{"customer":5}{"customer":6}`, http.StatusBadRequest},
	{"/release", `{"customer":99999}`, http.StatusConflict},
	{"/drain", `{"server":99999}`, http.StatusConflict},
	{"/assign", `{"servers":[` + strings.Repeat("99999,", maxBodyBytes/6) + `99999]}`, http.StatusRequestEntityTooLarge},
}

// TestErrorJSONShape pins the unified {"error":...,"code":N} contract
// across every failure class: bad method, bad body, unknown field,
// missing id, trailing data, an oversized body, unknown path, and a
// domain refusal. None of the refused requests may change the daemon's
// state.
func TestErrorJSONShape(t *testing.T) {
	_, srv := startDaemon(t, testConfig())
	before := getStats(t, srv.URL)

	resp, err := http.Get(srv.URL + "/assign")
	if err != nil {
		t.Fatal(err)
	}
	decodeErr(t, resp, http.StatusMethodNotAllowed)

	for _, c := range errorShapeCases {
		t.Logf("POST %s %.60q (%d bytes)", c.path, c.body, len(c.body))
		decodeErr(t, postJSON(t, srv.URL+c.path, c.body), c.status)
	}

	resp, err = http.Get(srv.URL + "/no-such-endpoint")
	if err != nil {
		t.Fatal(err)
	}
	decodeErr(t, resp, http.StatusNotFound)

	after := getStats(t, srv.URL)
	before.UptimeSec, after.UptimeSec = 0, 0
	if after != before {
		t.Fatalf("refused requests changed the daemon's state:\nbefore %+v\nafter  %+v", before, after)
	}
}

// TestOverloadSheds pins graceful degradation: with one admission slot,
// a stalled delta, and a short response deadline, concurrent requests
// split into 429 sheds (with Retry-After) and 503 timeouts — never
// unbounded queueing, never a non-JSON error.
func TestOverloadSheds(t *testing.T) {
	cfg := testConfig()
	cfg.maxInflight = 1
	cfg.queueWait = 10 * time.Millisecond
	cfg.reqTimeout = 50 * time.Millisecond
	cfg.failSpecs = []string{"serve/delta:stall:every=1,delay=300ms"}
	_, srv := startDaemon(t, cfg)

	const n = 6
	codes := make([]int, n)
	retryAfter := make([]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(srv.URL+"/assign", "application/json",
				strings.NewReader(`{"servers":[0,1,2]}`))
			if err != nil {
				t.Errorf("POST /assign: %v", err)
				return
			}
			defer resp.Body.Close()
			codes[i] = resp.StatusCode
			retryAfter[i] = resp.Header.Get("Retry-After")
			if resp.StatusCode != http.StatusOK {
				var e errResp
				if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e.Code != resp.StatusCode {
					t.Errorf("request %d: error body not unified JSON (err=%v, body code=%d, status=%d)",
						i, err, e.Code, resp.StatusCode)
				}
			}
		}(i)
	}
	wg.Wait()

	var shed, timedOut int
	for i, c := range codes {
		switch c {
		case http.StatusTooManyRequests:
			shed++
			if retryAfter[i] == "" {
				t.Errorf("429 without Retry-After header")
			}
		case http.StatusServiceUnavailable:
			timedOut++
		case http.StatusOK:
		default:
			t.Errorf("unexpected status %d", c)
		}
	}
	if shed == 0 {
		t.Errorf("no request was shed with 429 (codes=%v)", codes)
	}
	if timedOut == 0 {
		t.Errorf("no request hit the response deadline with 503 (codes=%v)", codes)
	}
}

// TestFaultInjectedDelta pins the recovery contract for an injected
// fault at the serve/delta site: the delta answers 503 + Retry-After
// without touching the Resolver, and the retried request succeeds.
func TestFaultInjectedDelta(t *testing.T) {
	cfg := testConfig()
	cfg.failSpecs = []string{faultSiteDelta + ":error:every=1,max=1"}
	d, srv := startDaemon(t, cfg)

	resp := postJSON(t, srv.URL+"/assign", `{"servers":[0,1,2]}`)
	e := decodeErr(t, resp, http.StatusServiceUnavailable)
	if !strings.Contains(e.Error, "fault") && !strings.Contains(e.Error, "injected") {
		t.Errorf("error %q does not mention the injected fault", e.Error)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("injected fault answered without Retry-After")
	}
	if got := d.stats().Deltas; got != 0 {
		t.Errorf("faulted delta reached the resolver (deltas = %d)", got)
	}

	resp = postJSON(t, srv.URL+"/assign", `{"servers":[0,1,2]}`)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("retry after rollback: status %d", resp.StatusCode)
	}
	var ar assignResp
	if err := json.NewDecoder(resp.Body).Decode(&ar); err != nil {
		t.Fatal(err)
	}
	if ar.Customer != cfg.customers {
		t.Errorf("retried assign got customer %d, want %d", ar.Customer, cfg.customers)
	}
	d.mu.Lock()
	err := d.r.Verify()
	d.mu.Unlock()
	if err != nil {
		t.Errorf("post-rollback Verify: %v", err)
	}
}

// TestReadiness pins /healthz (always live) against /readyz (503 while
// draining) and the delta endpoints' draining refusal.
func TestReadiness(t *testing.T) {
	d, srv := startDaemon(t, testConfig())

	for _, path := range []string{"/healthz", "/readyz"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s = %d, want 200", path, resp.StatusCode)
		}
	}

	d.draining.Store(true)
	defer d.draining.Store(false)
	resp, err := http.Get(srv.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	decodeErr(t, resp, http.StatusServiceUnavailable)
	decodeErr(t, postJSON(t, srv.URL+"/assign", `{"servers":[0,1,2]}`), http.StatusServiceUnavailable)

	resp, err = http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Error("/healthz went unhealthy during drain")
	}
}

// procLog captures a child process's stdout line by line so the test
// can wait for boot and shutdown markers. eof closes when the scanner
// has read the last line.
type procLog struct {
	mu    sync.Mutex
	lines []string
	eof   chan struct{}
}

func (p *procLog) add(line string) {
	p.mu.Lock()
	p.lines = append(p.lines, line)
	p.mu.Unlock()
}

// waitFor blocks until a line containing want appears, returning it.
func (p *procLog) waitFor(t *testing.T, want string, timeout time.Duration) string {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		p.mu.Lock()
		for _, l := range p.lines {
			if strings.Contains(l, want) {
				p.mu.Unlock()
				return l
			}
		}
		p.mu.Unlock()
		time.Sleep(10 * time.Millisecond)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	t.Fatalf("no %q in output after %v; got:\n%s", want, timeout, strings.Join(p.lines, "\n"))
	return ""
}

// wait reaps cmd once its output is drained: os/exec's Wait closes the
// stdout pipe, so waiting before the scanner reaches EOF can drop the
// last lines.
func (p *procLog) wait(cmd *exec.Cmd) {
	<-p.eof
	cmd.Wait()
}

// startProc launches the built binary and scans its stdout+stderr.
func startProc(t *testing.T, bin string, args ...string) (*exec.Cmd, *procLog) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	out, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = cmd.Stdout
	lg := &procLog{eof: make(chan struct{})}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	go func() {
		defer close(lg.eof)
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			lg.add(sc.Text())
		}
	}()
	return cmd, lg
}

// addrOf extracts the bound address from the boot line.
func addrOf(t *testing.T, line string) string {
	t.Helper()
	const marker = "listening on "
	i := strings.Index(line, marker)
	j := strings.Index(line, " (")
	if i < 0 || j < 0 || j <= i {
		t.Fatalf("cannot parse boot line %q", line)
	}
	return line[i+len(marker) : j]
}

func waitReady(t *testing.T, base string) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		time.Sleep(25 * time.Millisecond)
	}
	t.Fatal("/readyz never went green")
}

func getStats(t *testing.T, base string) statsResp {
	t.Helper()
	resp, err := http.Get(base + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st statsResp
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestChaosKillRestart is the end-to-end crash-recovery suite: build
// the real binary, churn it with snapshots ticking, SIGKILL it
// mid-stream, prove the surviving snapshot is oracle-valid, restart
// from it, prove the daemon serves the restored assignment, and finish
// with a clean SIGTERM drain.
func TestChaosKillRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and kills a real process")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "td-serve")
	build := exec.Command("go", "build", "-o", bin, ".")
	var buildOut bytes.Buffer
	build.Stdout, build.Stderr = &buildOut, &buildOut
	if err := build.Run(); err != nil {
		t.Fatalf("go build: %v\n%s", err, buildOut.String())
	}

	snapDir := filepath.Join(dir, "snap")
	args := []string{
		"-listen", "127.0.0.1:0", "-snapshot", snapDir, "-snapshot-every", "50ms",
		"-customers", "200", "-servers", "50", "-cdeg", "3",
	}
	cmd, lg := startProc(t, bin, args...)
	base := "http://" + addrOf(t, lg.waitFor(t, "listening on ", 15*time.Second))
	waitReady(t, base)

	// Scripted churn: arrivals, departures, and a few rotations. The
	// client tolerates 409 refusals everywhere — after the crash its
	// view may be one snapshot interval ahead of the daemon's.
	cc := &churnClient{
		base: base, client: &http.Client{Timeout: 5 * time.Second},
		rng: rand.New(rand.NewSource(7)), retries: 20,
	}
	for s := 0; s < 50; s++ {
		cc.pool = append(cc.pool, s)
	}
	var window []int
	applyDelta := func(i int) {
		switch {
		case i%40 == 39:
			j := cc.rng.Intn(len(cc.pool))
			var ok okResp
			if err := cc.call("/drain", drainReq{Server: &cc.pool[j]}, &ok); err != nil {
				if !refusal(err) {
					t.Fatalf("drain: %v", err)
				}
				return
			}
			var sr serverResp
			if err := cc.call("/add-server", struct{}{}, &sr); err != nil {
				t.Fatalf("add-server: %v", err)
			}
			cc.pool[j] = sr.Server
		case len(window) >= 64:
			c := window[0]
			window = window[1:]
			var ok okResp
			if err := cc.call("/release", releaseReq{Customer: &c}, &ok); err != nil && !refusal(err) {
				t.Fatalf("release: %v", err)
			}
		default:
			servers := []int32{}
			for len(servers) < 3 {
				s := int32(cc.pool[cc.rng.Intn(len(cc.pool))])
				dup := false
				for _, prev := range servers {
					dup = dup || prev == s
				}
				if !dup {
					servers = append(servers, s)
				}
			}
			var ar assignResp
			if err := cc.call("/assign", assignReq{Servers: servers}, &ar); err != nil {
				if !refusal(err) {
					t.Fatalf("assign: %v", err)
				}
				return
			}
			window = append(window, ar.Customer)
		}
	}
	for i := 0; i < 120; i++ {
		applyDelta(i)
	}
	// Let at least two snapshots land so the kill has state to lose.
	deadline := time.Now().Add(10 * time.Second)
	for getStats(t, base).Snapshots < 2 && time.Now().Before(deadline) {
		time.Sleep(25 * time.Millisecond)
	}
	if n := getStats(t, base).Snapshots; n < 2 {
		t.Fatalf("only %d snapshots before the kill", n)
	}
	for i := 120; i < 160; i++ {
		applyDelta(i)
	}

	// Crash: SIGKILL, no drain, no final snapshot.
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	lg.wait(cmd)

	// The surviving snapshot must be oracle-valid on its own: it
	// restores, its graph hash checks out, and the restored assignment
	// is complete, adjacent, stable, and count-consistent (Verify).
	snapPath := filepath.Join(snapDir, snapshotFile)
	sj, err := tokendrop.ReadSnapshotFile(snapPath)
	if err != nil {
		t.Fatalf("snapshot after kill: %v", err)
	}
	tie, err := tokendrop.ParseTie(sj.Meta.Tie)
	if err != nil {
		t.Fatal(err)
	}
	r, err := sj.ToResolver(tokendrop.ResolverOptions{Tie: tie, Seed: sj.Meta.Seed})
	if err != nil {
		t.Fatalf("snapshot does not restore: %v", err)
	}
	if err := r.Verify(); err != nil {
		t.Fatalf("restored assignment fails the oracle: %v", err)
	}
	snapCustomers := r.Stats().Customers
	if snapCustomers != len(sj.CustIDs) {
		t.Fatalf("restored customers = %d, snapshot lists %d", snapCustomers, len(sj.CustIDs))
	}
	r.Close()

	// Restart from the same snapshot directory and serve on.
	cmd2, lg2 := startProc(t, bin, args...)
	defer func() {
		cmd2.Process.Kill()
		lg2.wait(cmd2)
	}()
	base2 := "http://" + addrOf(t, lg2.waitFor(t, "listening on ", 15*time.Second))
	waitReady(t, base2)
	lg2.waitFor(t, "restored from snapshot", 5*time.Second)
	st := getStats(t, base2)
	if !st.Restored {
		t.Error("restarted daemon does not report restored state")
	}
	if st.Customers != snapCustomers {
		t.Errorf("restarted daemon serves %d customers, snapshot held %d", st.Customers, snapCustomers)
	}

	// The restored daemon accepts new deltas; some assigns may be
	// refused where the client's pool is ahead of the snapshot.
	cc.base = base2
	cc.client = &http.Client{Timeout: 5 * time.Second}
	okAssigns := 0
	for i := 0; i < 20; i++ {
		var ar assignResp
		err := cc.call("/assign", assignReq{Servers: []int32{0, 1, 2}}, &ar)
		if err == nil {
			okAssigns++
		} else if !refusal(err) {
			t.Fatalf("post-restart assign: %v", err)
		}
	}
	if okAssigns == 0 {
		t.Error("restored daemon accepted no deltas")
	}

	// Finish with a graceful drain: SIGTERM, final snapshot, the
	// clean-shutdown line with consistent counts.
	preStop := getStats(t, base2)
	if err := cmd2.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	lg2.wait(cmd2)
	lg2.waitFor(t, fmt.Sprintf("clean shutdown after %d deltas", preStop.Deltas), 5*time.Second)

	// The drain's final snapshot reflects the served deltas.
	sj2, err := tokendrop.ReadSnapshotFile(snapPath)
	if err != nil {
		t.Fatalf("snapshot after drain: %v", err)
	}
	if len(sj2.CustIDs) != preStop.Customers {
		t.Errorf("final snapshot lists %d customers, daemon served %d", len(sj2.CustIDs), preStop.Customers)
	}
}
