// Command jorddispatch is the cluster front end: a JBSQ(k) dispatcher
// that spreads POST /invoke/{fn} across N jordd workers — the paper's
// join-bounded-shortest-queue orchestrator policy applied one level up,
// across worker processes instead of executor goroutines.
//
// Usage:
//
//	jorddispatch -workers 127.0.0.1:8041,127.0.0.1:8042 [-addr :8040]
//	             [-bound 0] [-health-interval 250ms] [-timeout 60s]
//	             [-max-body 1048576] [-no-idempotency] [-hedge]
//	             [-hedge-delay 50ms] [-chaos SPEC] [-chaos-seed 1]
//	             [-chaos-latency 100ms]
//
// Placement: each worker may hold at most k outstanding dispatcher
// requests (-bound; 0 takes k per worker from its /readyz: admit_max,
// the worker's own admission cap). A new request joins the ready worker
// with the fewest outstanding, ties spread at random. When every
// ready worker sits at its bound, the dispatcher answers 429 with
// Retry-After — it never buffers unboundedly.
//
// Health: each worker's /readyz is polled every -health-interval;
// workers that stop being ready (draining, degraded) are ejected from
// placement and re-admitted when they recover. Transport failures eject
// instantly and re-place the request on another worker. A 503 carrying
// the X-Jord-Draining marker re-places too — worker drain is a placement
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
// double-executing or surfacing a 502 (-no-idempotency restores the old
// at-least-once/502 split). -hedge places a duplicate on a second worker
// when the first has not answered within the function's adaptive hedge
// delay (clamped p95 of recent latencies; -hedge-delay sets the
// cold-start value); the first response wins and the loser is canceled.
//
// Chaos: -chaos injects deterministic faults into the relay's worker
// connections (internal/cluster/chaos, through cluster.Config.Dial) for
// resilience drills, e.g.
//
//	-chaos 'refused:0.05,reset-after-write:0.01' -chaos-seed 7
//	-chaos '127.0.0.1:8041=stall x1'
//
// Faults: refused, reset-before-write, reset-after-write, reset-mid-body,
// latency (delay = -chaos-latency), stall. Each clause is
// [worker=]fault[:probability][xCount], drawn once per request. Health
// polls use no relay connection, so /readyz verdicts stay truthful while
// invokes suffer.
//
// Worker replacement without dropped requests: drain, poll /workers until
// outstanding hits 0, remove, add the replacement.
// SIGINT/SIGTERM drains the dispatcher itself: /readyz goes 503 so an
// upstream balancer stops routing here, in-flight forwards finish, then
// the process exits.
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

func main() {
	log.SetFlags(0)
	log.SetPrefix("jorddispatch: ")

	var (
		addr     = flag.String("addr", ":8040", "HTTP listen address")
		workers  = flag.String("workers", "", "comma-separated jordd worker addresses (host:port), required")
		bound    = flag.Int("bound", 0, "JBSQ k: max outstanding requests per worker (0 = auto from each worker's /readyz)")
		interval = flag.Duration("health-interval", 250*time.Millisecond, "worker /readyz polling period")
		timeout  = flag.Duration("timeout", 60*time.Second, "per-request deadline across all placement attempts (0 = none)")
		maxBody  = flag.Int64("max-body", 1<<20, "max /invoke payload bytes (bodies are buffered for re-placement)")
		drainT   = flag.Duration("drain-timeout", 30*time.Second, "graceful shutdown bound")
		noIdem   = flag.Bool("no-idempotency", false, "do not stamp X-Jord-Idempotency-Key on invocations (post-delivery failures become 502s instead of idempotent replays)")
		hedge    = flag.Bool("hedge", false, "hedge tail latency: duplicate slow requests on a second worker, first response wins")
		hedgeD   = flag.Duration("hedge-delay", 0, "cold-start hedge delay before per-function latency is learned (0 = 50ms)")
		chaosS   = flag.String("chaos", "", "fault-injection spec, comma-separated [worker=]fault[:p][xN] clauses (see package doc); empty = off")
		chaosSd  = flag.Int64("chaos-seed", 1, "deterministic seed for -chaos probability rolls")
		chaosLat = flag.Duration("chaos-latency", 100*time.Millisecond, "injected delay for -chaos latency faults")
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
	if *bound < 0 {
		fmt.Fprintln(os.Stderr, "jorddispatch: -bound must be non-negative")
		flag.Usage()
		os.Exit(2)
	}

	// 0 on the CLI means "no deadline"; the library reads < 0 as none and
	// 0 as its own default.
	rt := *timeout
	if rt == 0 {
		rt = -1
	}
	cfg := cluster.Config{
		Workers:            list,
		Bound:              *bound,
		HealthInterval:     *interval,
		RequestTimeout:     rt,
		MaxBodyBytes:       *maxBody,
		DisableIdempotency: *noIdem,
		Hedge:              *hedge,
		HedgeDelay:         *hedgeD,
	}
	if *chaosS != "" {
		rules, err := chaos.ParseSpec(*chaosS, *chaosLat)
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
		log.Printf("caught %v, draining (up to %v)", s, *drainT)
		d.SetDraining(true)
		ctx, cancel := context.WithTimeout(context.Background(), *drainT)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			log.Printf("drain: %v", err)
		}
		d.Stop()
	}()

	log.Printf("dispatching on %s over %d workers: %s (bound %s, health every %v)",
		ln.Addr(), len(list), strings.Join(list, ", "), boundDesc(*bound), *interval)
	if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
		log.Fatal(err)
	}
	<-drained
	log.Print("drained")
}

func boundDesc(b int) string {
	if b == 0 {
		return "auto"
	}
	return fmt.Sprintf("%d", b)
}
