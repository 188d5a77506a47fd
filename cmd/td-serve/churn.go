package main

// The churn half of td-serve: a client-mode load generator that drives
// a daemon through a mixed delta workload and, unlike a benchmark
// harness, is built to ride out the daemon's robustness machinery —
// overload sheds (429), injected faults and restarts (503, refused
// connections) are retried with exponential backoff that honors
// Retry-After, while domain refusals (409) are final.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"time"
)

// httpError is a non-OK daemon answer in the unified error shape.
type httpError struct {
	path   string
	status int
	msg    string
}

func (e *httpError) Error() string {
	return fmt.Sprintf("%s: HTTP %d: %s", e.path, e.status, e.msg)
}

// retryable reports whether the failure is transient: overload sheds
// and unavailability clear on their own, domain refusals do not.
func (e *httpError) retryable() bool {
	return e.status == http.StatusTooManyRequests || e.status == http.StatusServiceUnavailable
}

// churnClient is the load generator: a mixed delta workload against a
// FRESH daemon (it assumes the initial server ids are 0..servers-1, as
// the daemon's generator lays them out, and tracks rotations from
// there). Arrivals and departures flow through a bounded window;
// periodically a random server is drained and a fresh one added.
type churnClient struct {
	base    string
	client  *http.Client
	rng     *rand.Rand
	retries int
	pool    []int // live server ids
	window  []int // churned customers, oldest first
	lat     []time.Duration
	applied int // deltas the daemon accepted
	refused int // domain refusals (409) the workload tolerates
	retried int // transient failures absorbed by backoff
}

// backoff sleeps before retry attempt (1-based), exponentially longer
// each time with jitter, never shorter than the daemon's Retry-After.
func (cc *churnClient) backoff(attempt int, retryAfter time.Duration) {
	d := 50 * time.Millisecond << uint(attempt-1)
	if d > 2*time.Second {
		d = 2 * time.Second
	}
	if retryAfter > d {
		d = retryAfter
	}
	time.Sleep(d + time.Duration(cc.rng.Int63n(int64(d/2)+1)))
}

// do runs one request through the retry loop. Connection errors and
// retryable statuses consume the retry budget; success decodes into
// out; anything else surfaces as an *httpError.
func (cc *churnClient) do(path string, send func() (*http.Response, error), out any) error {
	var last error
	for attempt := 0; ; attempt++ {
		resp, err := send()
		if err == nil {
			he := func() error {
				defer resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					return json.NewDecoder(resp.Body).Decode(out)
				}
				var e errResp
				json.NewDecoder(resp.Body).Decode(&e)
				return &httpError{path: path, status: resp.StatusCode, msg: e.Error}
			}()
			var retryAfter time.Duration
			if he == nil {
				return nil
			}
			if hp, ok := he.(*httpError); !ok || !hp.retryable() {
				return he
			}
			if s, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil {
				retryAfter = time.Duration(s) * time.Second
			}
			last = he
			if attempt >= cc.retries {
				return fmt.Errorf("%s: retries exhausted: %w", path, last)
			}
			cc.retried++
			cc.backoff(attempt+1, retryAfter)
			continue
		}
		// Connection-level failure: the daemon may be restarting.
		last = err
		if attempt >= cc.retries {
			return fmt.Errorf("%s: retries exhausted: %w", path, last)
		}
		cc.retried++
		cc.backoff(attempt+1, 0)
	}
}

func (cc *churnClient) call(path string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	return cc.do(path, func() (*http.Response, error) {
		return cc.client.Post(cc.base+path, "application/json", bytes.NewReader(body))
	}, out)
}

func (cc *churnClient) callGet(path string, out any) error {
	return cc.do(path, func() (*http.Response, error) {
		return cc.client.Get(cc.base + path)
	}, out)
}

// refusal reports whether err is a domain refusal (409) the workload
// tolerates — a drain blocked by a single-port customer, an assign
// against a stale pool.
func refusal(err error) bool {
	he, ok := err.(*httpError)
	return ok && he.status == http.StatusConflict
}

func (cc *churnClient) step(i, cdeg int) error {
	t0 := time.Now()
	defer func() { cc.lat = append(cc.lat, time.Since(t0)) }()
	switch {
	case i%49 == 48:
		// Rotate a server out and a fresh one in. A drain is refused
		// when some incident customer has no other port — count it and
		// move on, the workload tolerates refusals.
		j := cc.rng.Intn(len(cc.pool))
		var ok okResp
		if err := cc.call("/drain", drainReq{Server: &cc.pool[j]}, &ok); err != nil {
			if refusal(err) {
				cc.refused++
				return nil
			}
			return err
		}
		cc.applied++
		var sr serverResp
		if err := cc.call("/add-server", struct{}{}, &sr); err != nil {
			return err
		}
		cc.applied++
		cc.pool[j] = sr.Server
	case len(cc.window) >= 256:
		c := cc.window[0]
		cc.window = cc.window[:copy(cc.window, cc.window[1:])]
		var ok okResp
		if err := cc.call("/release", releaseReq{Customer: &c}, &ok); err != nil {
			return err
		}
		cc.applied++
	default:
		servers := make([]int32, 0, cdeg)
		for len(servers) < cdeg {
			s := int32(cc.pool[cc.rng.Intn(len(cc.pool))])
			dup := false
			for _, prev := range servers {
				if prev == s {
					dup = true
					break
				}
			}
			if !dup {
				servers = append(servers, s)
			}
		}
		var ar assignResp
		if err := cc.call("/assign", assignReq{Servers: servers}, &ar); err != nil {
			// A refusal here means the pool is stale (the daemon saw
			// drains this client did not issue); count it and move on.
			if refusal(err) {
				cc.refused++
				return nil
			}
			return err
		}
		cc.applied++
		cc.window = append(cc.window, ar.Customer)
	}
	return nil
}

func churn(base string, deltas, cdeg int, seed int64, retries int) {
	cc := &churnClient{
		base:    base,
		client:  &http.Client{Timeout: 10 * time.Second},
		rng:     rand.New(rand.NewSource(seed)),
		retries: retries,
	}
	var st statsResp
	if err := cc.callGet("/stats", &st); err != nil {
		log.Fatalf("td-serve: cannot reach daemon: %v", err)
	}
	if st.Servers < cdeg {
		log.Fatalf("td-serve: daemon has %d servers, need at least %d", st.Servers, cdeg)
	}
	for s := 0; s < st.Servers; s++ {
		cc.pool = append(cc.pool, s)
	}
	t0 := time.Now()
	for i := 0; i < deltas; i++ {
		if err := cc.step(i, cdeg); err != nil {
			log.Fatalf("td-serve: churn delta %d: %v", i, err)
		}
	}
	elapsed := time.Since(t0)
	sort.Slice(cc.lat, func(i, j int) bool { return cc.lat[i] < cc.lat[j] })
	p50 := cc.lat[len(cc.lat)/2]
	p99 := cc.lat[len(cc.lat)*99/100]
	if err := cc.callGet("/stats", &st); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("td-serve churn: %d deltas in %v (%.0f deltas/s), p50 %v, p99 %v, %d applied, %d refused, %d retried\n",
		deltas, elapsed.Round(time.Millisecond), float64(deltas)/elapsed.Seconds(), p50, p99,
		cc.applied, cc.refused, cc.retried)
	fmt.Printf("td-serve churn: daemon now at %d customers, %d servers, %d deltas, %d repair moves\n",
		st.Customers, st.Servers, st.Deltas, st.Moves)
}
