package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"tokendrop"
)

// The serve-http workload: the real td-serve daemon on loopback, driven
// in a closed loop over one keep-alive connection with td-serve's churn
// mix. Callers of td-serve wait for the assigned server before they
// route, so one waiting client is the right shape; a closed loop builds
// no queue. This client, unlike td-serve -churn, never retries or backs
// off: every answer other than a 2xx or a 409 drain refusal is a
// failure.

const (
	serveCdeg = 3
	// serveWindow is the churn window: arrivals until this many churned
	// customers are live, then departures of the oldest.
	serveWindow = 256
	// serveRotateEvery: every 49th step drains a random server and adds
	// a fresh one.
	serveRotateEvery = 49
	serveBootTimeout = 150 * time.Second
)

// daemon is a running td-serve process and the benchmark's one
// keep-alive connection to it.
type daemon struct {
	cmd   *exec.Cmd
	addr  string
	lines chan string // stdout after the listening line; closed at EOF
	conn  net.Conn
	br    *bufio.Reader
	req   []byte       // the request being sent
	resp  bytes.Buffer // the last answer's body
}

// startDaemon spawns td-serve on a free loopback port, connects once
// and waits until /readyz answers 200.
func (b *bench) startDaemon() (*daemon, error) {
	if b.tdServe == "" {
		return nil, errors.New("no -td-serve binary given")
	}
	cmd := exec.Command(b.tdServe, "-listen", "127.0.0.1:0",
		"-customers", strconv.Itoa(b.sizes.serveCustomers),
		"-servers", strconv.Itoa(b.sizes.serveServers),
		"-cdeg", strconv.Itoa(serveCdeg),
		"-seed", strconv.FormatInt(b.seed, 10))
	cmd.Stderr = os.Stderr
	// The daemon must not outlive the benchmark.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("spawning td-serve: %w", err)
	}
	d := &daemon{cmd: cmd, lines: make(chan string, 16)}
	go func() {
		// Ends at EOF, once the daemon has exited.
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			d.lines <- sc.Text()
		}
		close(d.lines)
	}()
	deadline := time.After(serveBootTimeout)
	select {
	case line, ok := <-d.lines:
		f := strings.Fields(line)
		if !ok || len(f) < 4 || !strings.HasPrefix(line, "td-serve: listening on ") {
			d.kill()
			return nil, fmt.Errorf("td-serve did not report its address (got %q)", line)
		}
		d.addr = f[3]
	case <-deadline:
		d.kill()
		return nil, errors.New("td-serve did not start listening")
	}
	// The daemon listens before it boots, so the one connection is made
	// now and /readyz answers 503 over it until the Resolver is up.
	if d.conn, err = net.Dial("tcp", d.addr); err != nil {
		d.kill()
		return nil, err
	}
	d.br = bufio.NewReader(d.conn)
	for {
		status, _, err := d.call(http.MethodGet, "/readyz", nil)
		if err != nil {
			d.kill()
			return nil, err
		}
		if status == http.StatusOK {
			return d, nil
		}
		select {
		case <-deadline:
			d.kill()
			return nil, fmt.Errorf("td-serve not ready after %v", serveBootTimeout)
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// call sends one HTTP/1.1 request over the connection and reads the
// whole answer; the daemon must keep the connection open. The body is
// valid until the next call. Request and answer are handled on this
// goroutine, so the client adds no hand-offs of its own to a round trip.
func (d *daemon) call(method, path string, body []byte) (int, []byte, error) {
	r := append(d.req[:0], method...)
	r = append(r, ' ')
	r = append(r, path...)
	r = append(r, " HTTP/1.1\r\nHost: "...)
	r = append(r, d.addr...)
	if body != nil {
		r = append(r, "\r\nContent-Type: application/json\r\nContent-Length: "...)
		r = strconv.AppendInt(r, int64(len(body)), 10)
	}
	r = append(r, "\r\n\r\n"...)
	d.req = append(r, body...)
	if err := d.conn.SetDeadline(time.Now().Add(30 * time.Second)); err != nil {
		return 0, nil, err
	}
	if _, err := d.conn.Write(d.req); err != nil {
		return 0, nil, fmt.Errorf("%s: %w", path, err)
	}
	resp, err := http.ReadResponse(d.br, nil)
	if err != nil {
		return 0, nil, fmt.Errorf("%s: %w", path, err)
	}
	d.resp.Reset()
	_, err = d.resp.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, nil, fmt.Errorf("%s: %w", path, err)
	}
	if resp.Close {
		return 0, nil, fmt.Errorf("%s: the daemon closed the connection", path)
	}
	return resp.StatusCode, d.resp.Bytes(), nil
}

// serveStats is the part of td-serve's /stats the benchmark reads.
type serveStats struct {
	Deltas      int   `json:"deltas"`
	Moves       int   `json:"moves"`
	Compactions int   `json:"compactions"`
	Shed        int64 `json:"shed"`
	Timeouts    int64 `json:"timeouts"`
}

func (d *daemon) stats() (serveStats, error) {
	var st serveStats
	status, body, err := d.call(http.MethodGet, "/stats", nil)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("/stats: HTTP %d", status)
	}
	if err == nil {
		err = json.Unmarshal(body, &st)
	}
	return st, err
}

// stop closes the connection, sends SIGTERM, reads the daemon's output
// to the end and waits for it. It returns the delta count of the
// shutdown line.
func (d *daemon) stop() (int, error) {
	d.conn.Close()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.kill()
		return 0, err
	}
	deltas := -1
	timeout := time.After(60 * time.Second)
	for done := false; !done; {
		select {
		case line, ok := <-d.lines:
			if !ok {
				done = true
				break
			}
			var moves int
			if _, err := fmt.Sscanf(line, "td-serve: clean shutdown after %d deltas (%d moves", &deltas, &moves); err != nil {
				deltas = -1
			}
		case <-timeout:
			d.kill()
			return 0, errors.New("td-serve did not shut down within 60s")
		}
	}
	if err := d.cmd.Wait(); err != nil {
		return 0, fmt.Errorf("td-serve exit: %w", err)
	}
	if deltas < 0 {
		return 0, errors.New("td-serve printed no shutdown line")
	}
	return deltas, nil
}

// kill ends the daemon on an error path and waits for it.
func (d *daemon) kill() {
	if d.conn != nil {
		d.conn.Close()
	}
	_ = d.cmd.Process.Kill()
	for range d.lines {
	}
	_ = d.cmd.Wait()
}

// delta is one request of the churn mix and the daemon's answer, kept
// by traced runs for the in-process replay.
type delta struct {
	kind     string // assign, release, drain or add-server
	servers  []int32
	id       int // release: the customer; drain: the server
	customer int // assign: the new customer
	server   int // assign: its server; add-server: the new server
	refused  bool
}

// churn is the benchmark's client: td-serve -churn's delta mix from the
// seed, for a fresh daemon whose servers are 0..servers-1.
type churn struct {
	d       *daemon
	rng     *rand.Rand
	pool    []int // live server ids
	window  []int // churned customers, oldest first
	steps   int
	body    []byte
	applied int // deltas the daemon applied
	refused int // drains refused with 409
	failed  int
	log     []delta // kept when logging
	logging bool
	notes   []string
}

func newChurn(d *daemon, seed int64, servers int, logging bool) *churn {
	c := &churn{d: d, rng: rand.New(rand.NewSource(seed)), logging: logging}
	for s := 0; s < servers; s++ {
		c.pool = append(c.pool, s)
	}
	return c
}

func (c *churn) fail(format string, args ...any) {
	c.failed++
	if len(c.notes) < 5 {
		c.notes = append(c.notes, fmt.Sprintf(format, args...))
	}
}

// request sends one delta, timed from the send to the last byte of the
// answer, and returns its status and body.
func (c *churn) request(path string, lat *[]float64) (int, []byte, bool) {
	t0 := time.Now()
	status, body, err := c.d.call(http.MethodPost, path, c.body)
	*lat = append(*lat, sinceMS(t0))
	if err != nil {
		c.fail("%s: %v", path, err)
		return 0, nil, false
	}
	return status, body, true
}

// step sends the next step's requests and returns their wall times.
// With rec set, each request is traced.
func (c *churn) step(rec *recorder) []float64 {
	lat := make([]float64, 0, 2)
	i := c.steps
	c.steps++
	switch {
	case i%serveRotateEvery == serveRotateEvery-1:
		c.rotate(rec, &lat)
	case len(c.window) >= serveWindow:
		cust := c.window[0]
		c.window = c.window[:copy(c.window, c.window[1:])]
		op := opID(rec)
		sp := rec.begin("serve.release", -1, op)
		c.body = strconv.AppendInt(append(c.body[:0], `{"customer":`...), int64(cust), 10)
		c.body = append(c.body, '}')
		status, body, ok := c.request("/release", &lat)
		rec.end(sp)
		if ok && !c.okAnswer("/release", status, body) {
			ok = false
		}
		if ok {
			c.applied++
		}
		c.record(delta{kind: "release", id: cust}, ok)
	default:
		servers := make([]int32, 0, serveCdeg)
		for len(servers) < serveCdeg {
			s := int32(c.pool[c.rng.Intn(len(c.pool))])
			if !slices.Contains(servers, s) {
				servers = append(servers, s)
			}
		}
		c.body = append(c.body[:0], `{"servers":[`...)
		for j, s := range servers {
			if j > 0 {
				c.body = append(c.body, ',')
			}
			c.body = strconv.AppendInt(c.body, int64(s), 10)
		}
		c.body = append(c.body, "]}"...)
		op := opID(rec)
		sp := rec.begin("serve.assign", -1, op)
		status, body, ok := c.request("/assign", &lat)
		rec.end(sp)
		var ans struct{ Customer, Server int }
		if ok {
			if status != http.StatusOK {
				c.fail("/assign: HTTP %d: %s", status, body)
				ok = false
			} else if err := json.Unmarshal(body, &ans); err != nil {
				c.fail("/assign: %v", err)
				ok = false
			} else if !slices.Contains(servers, int32(ans.Server)) {
				c.fail("/assign: customer %d placed on server %d, not one of %v", ans.Customer, ans.Server, servers)
				ok = false
			}
		}
		if ok {
			c.applied++
			c.window = append(c.window, ans.Customer)
		}
		c.record(delta{kind: "assign", servers: servers, customer: ans.Customer, server: ans.Server}, ok)
	}
	return lat
}

// rotate drains a random server and, unless the drain is refused
// because some customer has no other port, adds a fresh one.
func (c *churn) rotate(rec *recorder, lat *[]float64) {
	j := c.rng.Intn(len(c.pool))
	op := opID(rec)
	rot := rec.begin("serve.rotate", -1, op)
	defer rec.end(rot)
	c.body = strconv.AppendInt(append(c.body[:0], `{"server":`...), int64(c.pool[j]), 10)
	c.body = append(c.body, '}')
	sp := rec.begin("serve.drain", rot, op)
	status, body, ok := c.request("/drain", lat)
	rec.end(sp)
	if ok && status == http.StatusConflict {
		c.refused++
		rec.count(rot, "refused", 1)
		c.record(delta{kind: "drain", id: c.pool[j], refused: true}, true)
		return
	}
	if ok && !c.okAnswer("/drain", status, body) {
		ok = false
	}
	if ok {
		c.applied++
	}
	c.record(delta{kind: "drain", id: c.pool[j]}, ok)
	if !ok {
		rec.count(rot, "failed", 1)
		return
	}
	c.body = append(c.body[:0], "{}"...)
	sp = rec.begin("serve.add_server", rot, op)
	status, body, ok = c.request("/add-server", lat)
	rec.end(sp)
	var ans struct{ Server int }
	if ok {
		if status != http.StatusOK {
			c.fail("/add-server: HTTP %d: %s", status, body)
			ok = false
		} else if err := json.Unmarshal(body, &ans); err != nil {
			c.fail("/add-server: %v", err)
			ok = false
		}
	}
	if ok {
		c.applied++
		c.pool[j] = ans.Server
	} else {
		rec.count(rot, "failed", 1)
	}
	c.record(delta{kind: "add-server", server: ans.Server}, ok)
}

// okAnswer checks a {"ok":true} answer.
func (c *churn) okAnswer(path string, status int, body []byte) bool {
	var ans struct{ OK bool }
	if status != http.StatusOK {
		c.fail("%s: HTTP %d: %s", path, status, body)
		return false
	}
	if err := json.Unmarshal(body, &ans); err != nil || !ans.OK {
		c.fail("%s: unexpected answer %s", path, body)
		return false
	}
	return true
}

// record logs a request for the replay; a failed request ends the log,
// because the daemon's state after it is unknown.
func (c *churn) record(dl delta, ok bool) {
	if !c.logging {
		return
	}
	if !ok {
		c.logging, c.log = false, nil
		return
	}
	c.log = append(c.log, dl)
}

func opID(rec *recorder) int {
	if rec == nil {
		return -1
	}
	return rec.newOp()
}

// finish reads /stats, stops the daemon and checks that the daemon
// applied exactly the deltas the client saw applied. Each mismatch
// counts as a failure.
func (c *churn) finish() serveStats {
	st, err := c.d.stats()
	if err != nil {
		c.fail("%v", err)
	} else if st.Deltas != c.applied {
		c.fail("/stats reports %d deltas, the client saw %d applied", st.Deltas, c.applied)
	}
	deltas, err := c.d.stop()
	if err != nil {
		c.fail("%v", err)
	} else if deltas != c.applied {
		c.fail("the shutdown line reports %d deltas, the client saw %d applied", deltas, c.applied)
	}
	return st
}

// bootServe starts a daemon and runs the warm-up deltas: the serve-http
// set-up.
func (b *bench) bootServe(logging bool) (*churn, error) {
	d, err := b.startDaemon()
	if err != nil {
		return nil, err
	}
	c := newChurn(d, b.seed, b.sizes.serveServers, logging)
	for c.steps < b.sizes.serveWarmup {
		c.step(nil)
	}
	if c.failed > 0 {
		c.finish()
		return nil, fmt.Errorf("warm-up deltas failed: %s", strings.Join(c.notes, "; "))
	}
	return c, nil
}

func serveE2E(b *bench) error {
	// Each set-up boots a fresh daemon, and the timed deltas are split
	// evenly over them: the largest of three daemons' peak resident set
	// varies far less between runs than one daemon's.
	var booted []*churn
	setupCPU, setupWall, err := setups(func() (time.Duration, error) {
		c, err := b.bootServe(false)
		if err != nil {
			return 0, err
		}
		booted = append(booted, c)
		return procCPU(c.d.cmd.Process.Pid)
	})
	if err != nil {
		for _, c := range booted {
			c.finish()
		}
		return err
	}
	var lat []float64
	var cpu time.Duration
	var peak int64
	failed := 0
	for i, c := range booted {
		pid := c.d.cmd.Process.Pid
		cpu0, err := procCPU(pid)
		if err != nil {
			return err
		}
		lat = append(lat, b.timed(b.seconds/float64(len(booted)), 1, func(int) []float64 { return c.step(nil) })...)
		cpu1, err := procCPU(pid)
		if err != nil {
			return err
		}
		p, err := procPeakRSSKiB(strconv.Itoa(pid))
		if err != nil {
			return err
		}
		cpu += cpu1 - cpu0
		peak = max(peak, p)
		c.finish()
		failed += c.failed
		for _, n := range c.notes {
			b.out.notef("daemon %d failure: %s", i, n)
		}
		b.out.notef("daemon %d: %d refused drains", i, c.refused)
	}
	b.e2e(setupCPU, setupWall, lat, cpu, peak, failed)
	return nil
}

func serveTrace(b *bench, main bool) error {
	rec := b.rec
	from := rec.mark()
	c, err := b.bootServe(true)
	if err != nil {
		return err
	}
	warmFailed := c.failed
	var lat, traced, untraced []float64
	t0 := time.Now()
	run := func(i int) []float64 {
		tr := i%2 == 1 || !main
		var l []float64
		if tr {
			l = c.step(rec)
			traced = append(traced, l...)
		} else {
			l = c.step(nil)
			untraced = append(untraced, l...)
		}
		lat = append(lat, l...)
		return l
	}
	if main {
		b.timed(b.seconds, 2, run)
	} else {
		for i := 0; i < b.sizes.serveProbeSteps; i++ {
			run(i)
		}
	}
	elapsed := time.Since(t0).Seconds()
	sp := rec.begin("serve.stats", -1, -1)
	st := c.finish()
	rec.end(sp)
	rec.count(sp, "deltas", float64(st.Deltas))
	rec.count(sp, "moves", float64(st.Moves))
	rec.count(sp, "compactions", float64(st.Compactions))
	rec.count(sp, "shed", float64(st.Shed))
	rec.count(sp, "timeouts", float64(st.Timeouts))
	failed := c.failed - warmFailed
	for _, n := range c.notes {
		b.out.notef("failure: %s", n)
	}
	if c.logging {
		if err := b.replay(c.log, st); err != nil {
			b.out.notef("replay: %v", err)
			failed = len(lat)
		}
	} else {
		b.out.notef("replay skipped: a request failed")
	}
	b.out.ops(len(lat), failed)
	if main {
		b.overhead(traced, untraced)
		p99, over99 := quantile(lat, 0.99)
		p999, over999 := quantile(lat, 0.999)
		b.out.notef("serve (report only): %d requests in %.3f s, %.1f deltas/s; p99 %.4f ms (%d samples above), p99.9 %.4f ms (%d samples above)",
			len(lat), elapsed, float64(len(lat))/elapsed, p99, over99, p999, over999)
	}

	build := rec.medianMS(from, "graph.bipartite_gen")
	b.out.set("graph.build_ms", build, "ms")
	b.out.set("graph.bipartite_gen_ms", build, "ms")
	b.out.set("assign.resolver_boot_ms", rec.medianMS(from, "assign.resolver_boot"), "ms")
	b.out.set("serve.assign_ms_p50", rec.medianMS(from, "serve.assign"), "ms")
	b.out.set("serve.release_ms_p50", rec.medianMS(from, "serve.release"), "ms")
	var rot []float64
	for _, s := range rec.named(from, "serve.rotate") {
		if s.Counts["refused"] == 0 && s.Counts["failed"] == 0 {
			rot = append(rot, s.ms())
		}
	}
	b.out.set("serve.rotate_ms_p50", median(rot), "ms")
	b.out.set("assign.resolver_us_per_delta", rec.medianMS(from, "assign.resolver_delta")*1000, "us")
	b.out.set("assign.repair_moves_per_delta", float64(st.Moves)/float64(st.Deltas), "ratio")
	b.out.set("serve.refused", float64(c.refused), "count")
	b.out.set("serve.shed", float64(st.Shed), "count")
	b.out.set("serve.timeouts", float64(st.Timeouts), "count")
	b.out.set("graph.overlay_compactions", float64(st.Compactions), "count")
	return nil
}

// replay repeats the daemon's boot calls in-process on its seed and
// size, then applies the logged deltas to that Resolver, each traced.
// Every customer id, server and refusal must match the daemon's answer,
// and the final counters its /stats.
func (b *bench) replay(log []delta, st serveStats) error {
	rec := b.rec
	freeMemory()
	nl, nr := b.sizes.serveCustomers, b.sizes.serveServers
	sp := rec.begin("graph.bipartite_gen", -1, -1)
	rng := rand.New(rand.NewSource(b.seed))
	bp, err := tokendrop.NewBipartite(tokendrop.RandomBipartite(nl, nr, serveCdeg, rng), nl)
	if err != nil {
		return err
	}
	fb := tokendrop.NewFlatBipartite(bp)
	rec.end(sp)
	sp = rec.begin("assign.resolver_boot", -1, -1)
	r, err := tokendrop.NewResolver(fb, nil, tokendrop.ResolverOptions{
		Tie: tokendrop.TieFirstPort, Seed: b.seed, Fault: tokendrop.NewFaultRegistry(b.seed)})
	rec.end(sp)
	if err != nil {
		return err
	}
	defer r.Close()
	for i, dl := range log {
		sp := rec.begin("assign.resolver_delta", -1, -1)
		var err error
		var c, s int
		switch dl.kind {
		case "assign":
			c, err = r.AddCustomer(dl.servers)
			s = r.ServerOf(c)
		case "release":
			err = r.RemoveCustomer(dl.id)
		case "drain":
			err = r.DrainServer(dl.id)
		case "add-server":
			s, err = r.AddServer()
		}
		rec.end(sp)
		switch {
		case dl.kind == "drain" && (err != nil) != dl.refused:
			return fmt.Errorf("delta %d: drain of server %d: daemon refused %v, in-process error %v", i, dl.id, dl.refused, err)
		case dl.kind != "drain" && err != nil:
			return fmt.Errorf("delta %d: %s: %w", i, dl.kind, err)
		case dl.kind == "assign" && (c != dl.customer || s != dl.server):
			return fmt.Errorf("delta %d: assign gave customer %d on server %d in-process, %d on %d from the daemon",
				i, c, s, dl.customer, dl.server)
		case dl.kind == "add-server" && s != dl.server:
			return fmt.Errorf("delta %d: add-server gave %d in-process, %d from the daemon", i, s, dl.server)
		}
	}
	if rs := r.Stats(); rs.Deltas != st.Deltas || rs.Moves != st.Moves {
		return fmt.Errorf("in-process resolver at %d deltas / %d moves, daemon at %d / %d",
			rs.Deltas, rs.Moves, st.Deltas, st.Moves)
	}
	return nil
}
