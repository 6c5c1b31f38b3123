// Command jorddispatch is the cluster front end: a JBSQ(k) dispatcher
// that spreads POST /invoke/{fn} across N jordd workers — the paper's
// join-bounded-shortest-queue orchestrator policy applied one level up,
// across worker processes instead of executor goroutines.
//
// Usage:
//
//	jorddispatch -workers 127.0.0.1:8041,127.0.0.1:8042 [-addr :8040]
//	             [-hedge] [-chaos SPEC] [-chaos-seed 1]
//
// Placement: each worker may hold at most k outstanding dispatcher
// requests, where k is the worker's own admission cap (admit_max in its
// /readyz). A new request joins the ready worker with the fewest
// outstanding, ties spread at random. When every ready worker sits at
// its bound, the dispatcher answers 429 with Retry-After — it never
// buffers unboundedly.
//
// Health: each worker's /readyz is polled every 250ms; workers that stop
// being ready (draining, degraded) are ejected from placement and
// re-admitted when they recover. Transport failures eject instantly and
// re-place the request on another worker. A 503 carrying the
// X-Jord-Draining marker re-places too — worker drain is a placement
// problem, not an answer. Plain 429/503s (saturation, degradation,
// breakers) forward to the client verbatim, Retry-After included.
//
// Endpoints:
//
//	POST /invoke/{fn}        dispatch a function invocation
//	GET  /healthz /readyz    dispatcher liveness / aggregated readiness
//	GET  /statsz             placement counters + the workers' additive
//	                         counters summed under their own keys
//	GET  /metrics            /statsz in Prometheus text format
//	GET  /workers            per-worker placement state
//	POST /workers/add?addr=     admit a new worker
//	POST /workers/drain?addr=   stop placing on a worker (in-flight finish);
//	                            &resume=1 undoes it
//	POST /workers/remove?addr=  remove an idle worker (&force=1 overrides)
//
// Fault tolerance: every invocation carries an X-Jord-Idempotency-Key
// (client-supplied wins), so a connection that breaks AFTER the request
// reached a worker replays against that worker's dedup cache instead of
// double-executing or surfacing a 502. -hedge places a duplicate on a
// second worker when the first has not answered within the function's
// adaptive hedge delay (clamped p95 of recent latencies; 50ms until
// learned); the first response wins and the loser is canceled. Each
// request has 60s across all placement attempts, and bodies over 1 MiB
// get 413 (bodies are buffered for re-placement). Library callers set
// all of these through cluster.Config.
//
// Chaos: -chaos injects deterministic faults into the relay's worker
// connections (internal/cluster/chaos, through cluster.Config.Dial) for
// resilience drills, e.g.
//
//	-chaos 'refused:0.05,reset-after-write:0.01' -chaos-seed 7
//	-chaos '127.0.0.1:8041=stall x1'
//
// Faults: refused, reset-before-write, reset-after-write, reset-mid-body,
// latency (100ms delay), stall. Each clause is
// [worker=]fault[:probability][xCount] with Count >= 1, drawn once per
// request. Health polls use no relay connection, so /readyz verdicts stay
// truthful while invokes suffer.
//
// Worker replacement without dropped requests: drain, poll /workers until
// outstanding hits 0, remove, add the replacement.
// SIGINT/SIGTERM drains the dispatcher itself: /readyz goes 503 so an
// upstream balancer stops routing here, in-flight forwards finish (up to
// 30s), then the process exits.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"jord/internal/cluster"
	"jord/internal/cluster/chaos"
)

// drainTimeout bounds the graceful shutdown on SIGINT/SIGTERM.
const drainTimeout = 30 * time.Second

func main() {
	log.SetFlags(0)
	log.SetPrefix("jorddispatch: ")

	var (
		addr    = flag.String("addr", ":8040", "HTTP listen address")
		workers = flag.String("workers", "", "comma-separated jordd worker addresses (host:port), required")
		hedge   = flag.Bool("hedge", false, "hedge tail latency: duplicate slow requests on a second worker, first response wins")
		chaosS  = flag.String("chaos", "", "fault-injection spec, comma-separated [worker=]fault[:p][xN] clauses (see package doc); empty = off")
		chaosSd = flag.Int64("chaos-seed", 1, "deterministic seed for -chaos probability rolls")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "jorddispatch: unexpected arguments: %v\n", flag.Args())
		flag.Usage()
		os.Exit(2)
	}
	var list []string
	for _, tok := range strings.Split(*workers, ",") {
		if tok = strings.TrimSpace(tok); tok != "" {
			list = append(list, tok)
		}
	}
	if len(list) == 0 {
		fmt.Fprintln(os.Stderr, "jorddispatch: -workers is required (comma-separated host:port list)")
		flag.Usage()
		os.Exit(2)
	}

	cfg := cluster.Config{Workers: list, Hedge: *hedge}
	if *chaosS != "" {
		rules, err := chaos.ParseSpec(*chaosS)
		if err != nil {
			fmt.Fprintf(os.Stderr, "jorddispatch: %v\n", err)
			os.Exit(2)
		}
		cfg.Dial = chaos.New(nil, *chaosSd, rules...).Dial
		log.Printf("CHAOS ON: injecting %q (seed %d) — invokes will fail on purpose", *chaosS, *chaosSd)
	}
	d := cluster.New(cfg)
	d.Start()

	srv := &http.Server{Handler: d.Handler()}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		s := <-sigs
		log.Printf("caught %v, draining (up to %v)", s, drainTimeout)
		d.SetDraining(true)
		ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			log.Printf("drain: %v", err)
		}
		d.Stop()
	}()

	log.Printf("dispatching on %s over %d workers: %s (bound auto, health every %v)",
		ln.Addr(), len(list), strings.Join(list, ", "), cluster.DefaultHealthInterval)
	if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
		log.Fatal(err)
	}
	<-drained
	log.Print("drained")
}
