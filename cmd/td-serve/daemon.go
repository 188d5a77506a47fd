package main

// The daemon half of td-serve: HTTP endpoints over a mutex-guarded
// Resolver, wrapped in the robustness layers the package doc describes —
// admission control, request timeouts, periodic atomic snapshots with
// restore-on-boot, drain-aware shutdown, and two serve-layer failpoints
// ("serve/delta", visited once per admitted delta; "serve/snapshot",
// visited once per capture, where an injected fault skips the write and
// keeps serving).

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"tokendrop"
	"tokendrop/internal/cliutil"
)

// Serve-layer failpoints, armed through -fail.
const (
	faultSiteDelta    = "serve/delta"
	faultSiteSnapshot = "serve/snapshot"
)

// snapshotFile is the snapshot's name inside -snapshot DIR.
const snapshotFile = "td-serve.snapshot.json"

type serveConfig struct {
	listen        string
	customers     int
	servers       int
	cdeg          int
	seed          int64
	shards        int
	randomTies    bool
	snapshotDir   string
	snapshotEvery time.Duration
	maxInflight   int
	queueWait     time.Duration
	reqTimeout    time.Duration
	drainTimeout  time.Duration
	failSpecs     cliutil.FailFlag
}

type assignReq struct {
	Servers []int32 `json:"servers"`
}

type assignResp struct {
	Customer int `json:"customer"`
	Server   int `json:"server"`
}

// releaseReq and drainReq take pointers so that an absent or null id is
// told apart from id 0 and refused.
type releaseReq struct {
	Customer *int `json:"customer"`
}

type serverResp struct {
	Server int `json:"server"`
}

type drainReq struct {
	Server *int `json:"server"`
}

type okResp struct {
	OK bool `json:"ok"`
}

// errResp is the unified error shape of every endpoint: the message and
// the HTTP status repeated in the body, so clients never need to parse
// more than one failure format.
type errResp struct {
	Error string `json:"error"`
	Code  int    `json:"code"`
}

type statsResp struct {
	Deltas       int     `json:"deltas"`
	Moves        int     `json:"moves"`
	FullSolves   int     `json:"full_solves"`
	Rollbacks    int     `json:"rollbacks"`
	Customers    int     `json:"customers"`
	Servers      int     `json:"servers"`
	Edges        int     `json:"edges"`
	Compactions  int     `json:"compactions"`
	Inflight     int     `json:"inflight"`
	Shed         int64   `json:"shed"`
	Timeouts     int64   `json:"timeouts"`
	Snapshots    int64   `json:"snapshots"`
	SnapshotSkip int64   `json:"snapshot_skipped"`
	Restored     bool    `json:"restored"`
	UptimeSec    float64 `json:"uptime_sec"`
}

// daemon wraps the Resolver in the concurrency discipline it documents
// (one mutex, every delta and every read under it) plus the admission
// and recovery machinery.
type daemon struct {
	cfg     serveConfig
	started time.Time

	mu   sync.Mutex
	r    *tokendrop.Resolver
	meta tokendrop.RunMetaJSON

	reg          *tokendrop.FaultRegistry
	failDelta    *tokendrop.FaultSite
	failSnapshot *tokendrop.FaultSite

	sem       chan struct{} // admission slots; len(sem) = inflight deltas
	ready     atomic.Bool
	draining  atomic.Bool
	shed      atomic.Int64 // requests refused with 429
	timeouts  atomic.Int64 // requests abandoned with 503
	drained   atomic.Int64 // requests completed while draining
	snapshots atomic.Int64
	snapSkip  atomic.Int64
	restored  bool
}

// newShell builds a daemon that can answer /healthz and refuse
// everything else: registry and admission slots exist, the Resolver
// does not yet. boot + ready.Store(true) completes it.
func newShell(cfg serveConfig) (*daemon, error) {
	if cfg.maxInflight < 1 {
		cfg.maxInflight = 1
	}
	d := &daemon{
		cfg:     cfg,
		started: time.Now(),
		reg:     tokendrop.NewFaultRegistry(cfg.seed),
		sem:     make(chan struct{}, cfg.maxInflight),
	}
	d.failDelta = d.reg.Site(faultSiteDelta)
	d.failSnapshot = d.reg.Site(faultSiteSnapshot)
	if _, err := cfg.failSpecs.Arm(d.reg); err != nil {
		return nil, err
	}
	return d, nil
}

// newDaemon builds a fully booted, ready daemon; tests serve d.mux()
// through httptest instead of a real listener.
func newDaemon(cfg serveConfig) (*daemon, error) {
	d, err := newShell(cfg)
	if err != nil {
		return nil, err
	}
	if err := d.boot(); err != nil {
		return nil, err
	}
	d.ready.Store(true)
	return d, nil
}

// boot builds the Resolver: from the snapshot directory when a snapshot
// exists (tie rule and seed come from the snapshot's own provenance, so
// the continuation is faithful), from a seeded random network otherwise.
// A snapshot that exists but fails validation — wrong version, graph
// hash mismatch, unstable state — is fatal rather than silently
// replaced with a fresh network.
func (d *daemon) boot() error {
	tie := tokendrop.TieFirstPort
	if d.cfg.randomTies {
		tie = tokendrop.TieRandom
	}
	if d.cfg.snapshotDir != "" {
		if err := os.MkdirAll(d.cfg.snapshotDir, 0o755); err != nil {
			return err
		}
		path := filepath.Join(d.cfg.snapshotDir, snapshotFile)
		sj, err := tokendrop.ReadSnapshotFile(path)
		switch {
		case err == nil:
			snapTie, err := tokendrop.ParseTie(sj.Meta.Tie)
			if err != nil {
				return fmt.Errorf("restore %s: %w", path, err)
			}
			r, err := sj.ToResolver(tokendrop.ResolverOptions{
				Tie: snapTie, Seed: sj.Meta.Seed, Shards: d.cfg.shards, Fault: d.reg,
			})
			if err != nil {
				return fmt.Errorf("restore %s: %w", path, err)
			}
			d.r, d.meta, d.restored = r, sj.Meta, true
			st := r.Stats()
			log.Printf("td-serve: restored from %s (%d customers, %d servers, %d edges)",
				path, st.Customers, st.Servers, st.Edges)
			return nil
		case os.IsNotExist(err):
			// First boot: fall through to the seeded network.
		default:
			return fmt.Errorf("restore %s: %w", path, err)
		}
	}
	rng := rand.New(rand.NewSource(d.cfg.seed))
	b, err := tokendrop.NewBipartite(
		tokendrop.RandomBipartite(d.cfg.customers, d.cfg.servers, d.cfg.cdeg, rng), d.cfg.customers)
	if err != nil {
		return err
	}
	r, err := tokendrop.NewResolver(tokendrop.NewFlatBipartite(b), nil, tokendrop.ResolverOptions{
		Tie: tie, Seed: d.cfg.seed, Shards: d.cfg.shards, Fault: d.reg,
	})
	if err != nil {
		return err
	}
	d.r = r
	d.meta = tokendrop.RunMetaJSON{
		Workload: fmt.Sprintf("bipartite customers=%d servers=%d cdeg=%d",
			d.cfg.customers, d.cfg.servers, d.cfg.cdeg),
		GenSeed: d.cfg.seed, Tie: tokendrop.TieName(tie), Seed: d.cfg.seed, Shards: d.cfg.shards,
	}
	return nil
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, errResp{Error: msg, Code: status})
}

// maxBodyBytes caps a request body. Decoding runs before admission, so
// without a cap one oversized body costs its full size in memory however
// few deltas are in flight; a real /assign body lists one customer's
// servers and stays far below it.
const maxBodyBytes = 1 << 20

// decode parses a JSON request body strictly: unknown fields and
// anything but whitespace after the one JSON value are rejected, so
// client typos and concatenated bodies fail loudly instead of silently
// no-opping. An empty body decodes as the zero request, and a body over
// maxBodyBytes answers 413.
func decode(w http.ResponseWriter, req *http.Request, v any) bool {
	reject := func(err error, msg string) bool {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeErr(w, http.StatusRequestEntityTooLarge, fmt.Sprintf("request body over %d bytes", tooBig.Limit))
		} else {
			writeErr(w, http.StatusBadRequest, msg)
		}
		return false
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, req.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil && err != io.EOF {
		return reject(err, err.Error())
	}
	if _, err := dec.Token(); err != io.EOF {
		return reject(err, "unexpected data after the JSON request body")
	}
	return true
}

// post guards an endpoint's method; the delta endpoints are POST-only.
func post(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodPost {
			writeErr(w, http.StatusMethodNotAllowed, "POST only")
			return
		}
		h(w, req)
	}
}

// serveOp runs one delta through the robustness pipeline: refuse while
// booting or draining (503), admit within the bounded queue or shed
// (429 + Retry-After), then run op with a response deadline — a delta
// that outlives it answers 503 while the work finishes in the
// background, holding its admission slot so overload stays bounded.
// Injected faults (the delta was rolled back; the state is consistent)
// answer 503 + Retry-After; domain refusals answer 409.
func (d *daemon) serveOp(w http.ResponseWriter, op func() (any, error)) {
	if !d.ready.Load() {
		writeErr(w, http.StatusServiceUnavailable, "starting up")
		return
	}
	if d.draining.Load() {
		writeErr(w, http.StatusServiceUnavailable, "draining")
		return
	}
	select {
	case d.sem <- struct{}{}:
	default:
		wait := time.NewTimer(d.cfg.queueWait)
		select {
		case d.sem <- struct{}{}:
			wait.Stop()
		case <-wait.C:
			d.shed.Add(1)
			w.Header().Set("Retry-After", "1")
			writeErr(w, http.StatusTooManyRequests, "overloaded: admission queue full")
			return
		}
	}
	type result struct {
		v   any
		err error
	}
	ch := make(chan result, 1)
	go func() {
		defer func() {
			if d.draining.Load() {
				d.drained.Add(1)
			}
			<-d.sem
		}()
		if err := d.failDelta.Err(); err != nil {
			ch <- result{err: err}
			return
		}
		v, err := op()
		ch <- result{v, err}
	}()
	deadline := time.NewTimer(d.cfg.reqTimeout)
	defer deadline.Stop()
	select {
	case r := <-ch:
		switch {
		case r.err == nil:
			writeJSON(w, http.StatusOK, r.v)
		case errors.Is(r.err, tokendrop.ErrFaultInjected):
			w.Header().Set("Retry-After", "1")
			writeErr(w, http.StatusServiceUnavailable, r.err.Error())
		default:
			writeErr(w, http.StatusConflict, r.err.Error())
		}
	case <-deadline.C:
		d.timeouts.Add(1)
		writeErr(w, http.StatusServiceUnavailable, "request timed out; the delta completes in the background")
	}
}

func (d *daemon) handleAssign(w http.ResponseWriter, req *http.Request) {
	var in assignReq
	if !decode(w, req, &in) {
		return
	}
	if len(in.Servers) == 0 {
		writeErr(w, http.StatusBadRequest, "servers list is empty")
		return
	}
	d.serveOp(w, func() (any, error) {
		d.mu.Lock()
		defer d.mu.Unlock()
		c, err := d.r.AddCustomer(in.Servers)
		if err != nil {
			return nil, err
		}
		return assignResp{Customer: c, Server: d.r.ServerOf(c)}, nil
	})
}

func (d *daemon) handleRelease(w http.ResponseWriter, req *http.Request) {
	var in releaseReq
	if !decode(w, req, &in) {
		return
	}
	if in.Customer == nil {
		writeErr(w, http.StatusBadRequest, "customer is required")
		return
	}
	d.serveOp(w, func() (any, error) {
		d.mu.Lock()
		defer d.mu.Unlock()
		if err := d.r.RemoveCustomer(*in.Customer); err != nil {
			return nil, err
		}
		return okResp{OK: true}, nil
	})
}

func (d *daemon) handleAddServer(w http.ResponseWriter, req *http.Request) {
	var in struct{}
	if !decode(w, req, &in) {
		return
	}
	d.serveOp(w, func() (any, error) {
		d.mu.Lock()
		defer d.mu.Unlock()
		s, err := d.r.AddServer()
		if err != nil {
			return nil, err
		}
		return serverResp{Server: s}, nil
	})
}

func (d *daemon) handleDrain(w http.ResponseWriter, req *http.Request) {
	var in drainReq
	if !decode(w, req, &in) {
		return
	}
	if in.Server == nil {
		writeErr(w, http.StatusBadRequest, "server is required")
		return
	}
	d.serveOp(w, func() (any, error) {
		d.mu.Lock()
		defer d.mu.Unlock()
		if err := d.r.DrainServer(*in.Server); err != nil {
			return nil, err
		}
		return okResp{OK: true}, nil
	})
}

func (d *daemon) stats() statsResp {
	d.mu.Lock()
	st := d.r.Stats()
	d.mu.Unlock()
	return statsResp{
		Deltas: st.Deltas, Moves: st.Moves, FullSolves: st.FullSolves,
		Rollbacks: st.Rollbacks,
		Customers: st.Customers, Servers: st.Servers, Edges: st.Edges,
		Compactions:  st.Compactions,
		Inflight:     len(d.sem),
		Shed:         d.shed.Load(),
		Timeouts:     d.timeouts.Load(),
		Snapshots:    d.snapshots.Load(),
		SnapshotSkip: d.snapSkip.Load(),
		Restored:     d.restored,
		UptimeSec:    time.Since(d.started).Seconds(),
	}
}

func (d *daemon) handleStats(w http.ResponseWriter, req *http.Request) {
	if !d.ready.Load() {
		writeErr(w, http.StatusServiceUnavailable, "starting up")
		return
	}
	writeJSON(w, http.StatusOK, d.stats())
}

func (d *daemon) handleHealthz(w http.ResponseWriter, req *http.Request) {
	writeJSON(w, http.StatusOK, okResp{OK: true})
}

func (d *daemon) handleReadyz(w http.ResponseWriter, req *http.Request) {
	switch {
	case !d.ready.Load():
		writeErr(w, http.StatusServiceUnavailable, "starting up")
	case d.draining.Load():
		writeErr(w, http.StatusServiceUnavailable, "draining")
	default:
		writeJSON(w, http.StatusOK, okResp{OK: true})
	}
}

func (d *daemon) handleNotFound(w http.ResponseWriter, req *http.Request) {
	writeErr(w, http.StatusNotFound, "no such endpoint: "+req.URL.Path)
}

func (d *daemon) mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/assign", post(d.handleAssign))
	mux.HandleFunc("/release", post(d.handleRelease))
	mux.HandleFunc("/add-server", post(d.handleAddServer))
	mux.HandleFunc("/drain", post(d.handleDrain))
	mux.HandleFunc("/stats", d.handleStats)
	mux.HandleFunc("/healthz", d.handleHealthz)
	mux.HandleFunc("/readyz", d.handleReadyz)
	mux.HandleFunc("/", d.handleNotFound)
	return mux
}

// saveSnapshot captures the Resolver at a delta boundary and writes it
// atomically. An injected "serve/snapshot" fault, or a write failure,
// skips this capture and keeps serving — the previous snapshot on disk
// stays valid.
func (d *daemon) saveSnapshot() {
	if d.cfg.snapshotDir == "" {
		return
	}
	if err := d.failSnapshot.Err(); err != nil {
		d.snapSkip.Add(1)
		log.Printf("td-serve: snapshot skipped: %v", err)
		return
	}
	d.mu.Lock()
	sj := tokendrop.ResolverSnapshotJSON(d.r, d.meta)
	d.mu.Unlock()
	if err := tokendrop.SaveSnapshotFile(filepath.Join(d.cfg.snapshotDir, snapshotFile), sj); err != nil {
		d.snapSkip.Add(1)
		log.Printf("td-serve: snapshot write failed: %v", err)
		return
	}
	d.snapshots.Add(1)
}

func (d *daemon) snapshotLoop(stop <-chan struct{}) {
	tick := time.NewTicker(d.cfg.snapshotEvery)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			d.saveSnapshot()
		case <-stop:
			return
		}
	}
}

func serve(cfg serveConfig) {
	d, err := newShell(cfg)
	if err != nil {
		log.Fatal(err)
	}
	// Listen before the (potentially slow) initial solve or restore so
	// /healthz answers during boot — /readyz and the delta endpoints
	// refuse with 503 until the Resolver is up.
	ln, err := net.Listen("tcp", cfg.listen)
	if err != nil {
		log.Fatal(err)
	}
	srv := &http.Server{Handler: d.mux()}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	fmt.Printf("td-serve: listening on %s (customers=%d servers=%d cdeg=%d shards=%d)\n",
		ln.Addr(), cfg.customers, cfg.servers, cfg.cdeg, cfg.shards)

	if err := d.boot(); err != nil {
		log.Fatal(err)
	}
	defer d.r.Close()
	d.ready.Store(true)
	if d.restored {
		fmt.Printf("td-serve: state restored from snapshot (%d customers live)\n", d.stats().Customers)
	}

	stopSnap := make(chan struct{})
	snapDone := make(chan struct{})
	go func() {
		defer close(snapDone)
		if cfg.snapshotDir != "" {
			d.snapshotLoop(stopSnap)
		}
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-done:
		log.Fatal(err)
	case s := <-sig:
		fmt.Printf("td-serve: %v, draining (%d requests in flight)\n", s, len(d.sem))
	}

	// Drain: stop admitting, let in-flight requests finish within the
	// deadline, then capture a final snapshot of the quiesced state.
	d.draining.Store(true)
	ctx, cancel := context.WithTimeout(context.Background(), cfg.drainTimeout)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		log.Printf("td-serve: drain deadline hit: %v", err)
	}
	close(stopSnap)
	<-snapDone
	d.saveSnapshot()
	st := d.stats()
	fmt.Printf("td-serve: clean shutdown after %d deltas (%d moves, %d customers live, %d requests drained, %d snapshots)\n",
		st.Deltas, st.Moves, st.Customers, d.drained.Load(), st.Snapshots)
}
