// Command td-serve serves a live stable assignment over HTTP/JSON: a
// warmed incremental Resolver (the online counterpart of the sharded
// batch solver) absorbs customer arrivals, departures, server
// additions, and drains as single-delta repairs instead of from-scratch
// re-solves. The daemon seeds itself with a random bipartite network
// (or restores one from its snapshot directory), solves it once at
// startup, and then every request mutates the live overlay under a
// mutex.
//
// Endpoints (request and response bodies are JSON):
//
//	POST /assign      {"servers":[0,7,21]}  → {"customer":42,"server":7}
//	POST /release     {"customer":42}       → {"ok":true}
//	POST /add-server  {}                    → {"server":250}
//	POST /drain       {"server":250}        → {"ok":true}
//	GET  /stats                             → live counters
//	GET  /healthz                           → process liveness (always 200)
//	GET  /readyz                            → 200 once restored, 503 while
//	                                          booting or draining
//
// Every error, on every endpoint, is {"error":"...","code":N} with the
// HTTP status repeated in code. Rejected operations (dead ids, draining
// a customer's only port) come back as 409; malformed bodies as 400;
// unknown paths and methods as 404/405 in the same shape.
//
// The daemon is built to survive overload and crashes:
//
//   - Admission control: at most -max-inflight deltas run at once;
//     excess requests wait up to -queue-wait and are then shed with
//     429 + Retry-After, so latency stays bounded instead of the queue
//     growing without limit.
//   - Request timeouts: a delta that exceeds -request-timeout answers
//     503 while the work completes in the background (the Resolver
//     stays consistent; only the response is abandoned).
//   - Crash recovery: with -snapshot DIR the daemon atomically writes
//     its full state (graph + assignment, self-hashed) every
//     -snapshot-every, and on boot restores from the latest snapshot —
//     a kill -9 loses at most one snapshot interval of deltas.
//   - Graceful drain: SIGINT/SIGTERM stops admission, lets in-flight
//     requests finish (up to -drain-timeout), writes a final snapshot,
//     and reports how many requests completed during the drain.
//   - Fault injection: -fail SITE:KIND:k=v arms a failpoint (repeatable;
//     see the fault package). Injected resolver faults roll the delta
//     back and answer 503 + Retry-After — the client retries against a
//     consistent assignment.
//
// Usage:
//
//	td-serve -listen :8080 -customers 1000 -servers 250 -snapshot /var/lib/td
//	td-serve -churn http://localhost:8080 -deltas 500
//
// The second form is the churn-load generator: it drives a daemon
// through a mixed delta workload (arrivals, departures, drain-and-replace
// rotations) with exponential-backoff retries that honor Retry-After —
// it rides out daemon restarts and overload sheds — and prints sustained
// deltas/s with p50/p99 latency plus applied/refused/retried counts.
package main

import (
	"flag"
	"time"

	"tokendrop/internal/cliutil"
)

func main() {
	var (
		listen        = flag.String("listen", ":8080", "HTTP listen address (server mode)")
		nc            = flag.Int("customers", 1_000, "initial customers in the seeded network")
		ns            = flag.Int("servers", 250, "initial servers in the seeded network")
		cdeg          = flag.Int("cdeg", 3, "servers adjacent to each customer")
		seed          = flag.Int64("seed", 1, "workload and tie-break seed")
		randomTies    = flag.Bool("random-ties", false, "randomized tie-breaking")
		shards        = cliutil.ShardsFlag()
		snapshotDir   = flag.String("snapshot", "", "directory for periodic atomic snapshots; restore-on-boot when one exists")
		snapshotEvery = flag.Duration("snapshot-every", 2*time.Second, "with -snapshot: capture cadence")
		maxInflight   = flag.Int("max-inflight", 64, "admitted deltas running at once; excess requests queue")
		queueWait     = flag.Duration("queue-wait", 100*time.Millisecond, "longest a request waits for admission before 429")
		reqTimeout    = flag.Duration("request-timeout", 2*time.Second, "longest a delta may run before its request answers 503")
		drainTimeout  = flag.Duration("drain-timeout", 5*time.Second, "longest shutdown waits for in-flight requests")
		churnURL      = flag.String("churn", "", "client mode: drive a mixed churn workload against this daemon URL")
		deltas        = flag.Int("deltas", 500, "with -churn: number of deltas to apply")
		retries       = flag.Int("retries", 10, "with -churn: per-request retry budget for 429/503/connection errors")
		version       = cliutil.VersionFlag()
		fail          = cliutil.NewFailFlag("resolver/repair:error:p=0.01")
	)
	flag.Parse()
	cliutil.HandleVersionFlag(version)

	if *churnURL != "" {
		churn(*churnURL, *deltas, *cdeg, *seed, *retries)
		return
	}
	serve(serveConfig{
		listen:        *listen,
		customers:     *nc,
		servers:       *ns,
		cdeg:          *cdeg,
		seed:          *seed,
		shards:        *shards,
		randomTies:    *randomTies,
		snapshotDir:   *snapshotDir,
		snapshotEvery: *snapshotEvery,
		maxInflight:   *maxInflight,
		queueWait:     *queueWait,
		reqTimeout:    *reqTimeout,
		drainTimeout:  *drainTimeout,
		failSpecs:     *fail,
	})
}
