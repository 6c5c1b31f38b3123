// Command jordd is the live Jord worker daemon: the paper's runtime
// architecture — JBSQ orchestrators, suspendable executor continuations,
// internal/external queues, pmove/pcopy ArgBuf ownership transfer —
// running on real goroutines behind an HTTP gateway.
//
// Usage:
//
//	jordd [-addr :8034] [-executors N] [-jbsq 4] [-queue-cap 256]
//	      [-num-pds 4096] [-max-inflight N] [-exec-timeout 0] [-edge]
//	      [-pprof addr]
//
// Endpoints:
//
//	POST /invoke/{fn}  run a function; the body is its ArgBuf payload
//	GET  /healthz      200 while serving, 503 while draining
//	GET  /readyz       overload view: drain vs degraded vs open breakers
//	GET  /statsz       the one stats document: pool config, PD supply,
//	                   queues, outcome counters, per-function percentiles
//	GET  /tracez       per-invocation stage traces (slowest, errored, recent)
//	GET  /flightz      flight-recorder incidents frozen at overload events
//	GET  /metrics      /statsz in Prometheus text format, plus latency and
//	                   stage-duration distributions
//
// Fixed values: one orchestrator per 8 executors; a 30s request deadline;
// bodies over 1 MiB get 413; a 4096-entry idempotent-replay cache for
// X-Jord-Idempotency-Key. Library callers set the first three through
// pool.Config.Orchestrators and server.Config (RequestTimeout,
// MaxBodyBytes).
//
// Overload control (see README "Overload control & degraded modes"): the
// admission cap is steered adaptively toward a 5ms queue delay over 100ms
// windows, each function gets a circuit breaker (10s window, trips at a
// 0.5 failure ratio, 2s cooldown), and external requests are shed with
// 503 while at most the internal PD reserve plus half of it is free.
// Every 429/503 carries Retry-After. Library callers tune these through
// server.Config (AdmitTarget, AdmitInterval, Breaker*) and pool.Config
// (PDShedMargin).
//
// With -pprof addr, net/http/pprof is served on a separate listener (keep
// it off the public address), e.g. `-pprof localhost:6060` then
// `go tool pprof http://localhost:6060/debug/pprof/profile`.
//
// Shared state (see README "Stateful serverless"): functions share a
// two-tier KV whose values live in VMAs behind the permission model. It
// holds at most 64 MiB of committed bytes, and a key read 64 times since
// its last write promotes to a global-RO mapping (the VTE G bit). /statsz
// carries the store's counters under "state".
//
// Built-in functions (a demo function set exercising the runtime,
// including nested calls): echo, upper, hash, sleep, fanout, chain — plus
// the stateful social-network set social.follow / social.post /
// social.timeline / social.read / social.profile (drive it with jordload
// -mix social).
// SIGINT/SIGTERM drains gracefully: health goes 503, in-flight requests
// finish (bounded by 30s), then the process exits.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"jord"
	"jord/internal/cliutil"
	"jord/internal/server"
	"jord/internal/workloads"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("jordd: ")

	var (
		addr        = flag.String("addr", ":8034", "HTTP listen address")
		executors   = cliutil.NewNonNegInt(0)
		jbsq        = cliutil.NewNonNegInt(0)
		queueCap    = cliutil.NewNonNegInt(0)
		numPDs      = cliutil.NewNonNegInt(0)
		maxInflight = cliutil.NewNonNegInt(0)
		execTimeout = flag.Duration("exec-timeout", 0, "watchdog threshold for stuck invocations (0 = off)")
		edge        = flag.Bool("edge", false, "serve through the zero-allocation HTTP edge instead of net/http")
		pprofAddr   = flag.String("pprof", "", "serve net/http/pprof on this address (empty = off)")
	)
	flag.Var(executors, "executors", "executor goroutines (0 = GOMAXPROCS)")
	flag.Var(jbsq, "jbsq", "JBSQ(k) per-executor queue bound (0 = 4)")
	flag.Var(queueCap, "queue-cap", "external queue capacity per orchestrator (0 = 256)")
	flag.Var(numPDs, "num-pds", "protection-domain space size (0 = 4096)")
	flag.Var(maxInflight, "max-inflight", "admission cap on concurrent requests (0 = auto)")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "jordd: unexpected arguments: %v\n", flag.Args())
		flag.Usage()
		os.Exit(2)
	}

	cfg := jord.DefaultServerConfig()
	cfg.Addr = *addr
	cfg.Pool.Executors = executors.Value()
	cfg.Pool.JBSQBound = jbsq.Value()
	cfg.Pool.ExternalQueueCap = queueCap.Value()
	cfg.Pool.NumPDs = numPDs.Value()
	// The watchdog flags (never kills — cancellation is cooperative)
	// invocations alive past the threshold, on /statsz counters.
	cfg.Pool.ExecTimeout = *execTimeout
	cfg.MaxInflight = maxInflight.Value()
	cfg.Edge = *edge

	d := jord.NewServer(cfg)
	registerBuiltins(d)
	workloads.RegisterSocialLive(d.Reg)

	if *pprofAddr != "" {
		// pprof rides a DEDICATED mux on its own listener: registering on
		// DefaultServeMux (the blank-import pattern) would hand /debug/pprof
		// to any other code that serves the default mux, and profiling must
		// never share a surface with /invoke.
		pmux := http.NewServeMux()
		pmux.HandleFunc("/debug/pprof/", pprof.Index)
		pmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		pln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			log.Fatalf("pprof listen: %v", err)
		}
		log.Printf("pprof on http://%s/debug/pprof/", pln.Addr())
		go func() {
			if err := http.Serve(pln, pmux); err != nil {
				log.Printf("pprof: %v", err)
			}
		}()
	}

	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		log.Fatal(err)
	}

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	// Serve returns the moment Shutdown begins (ErrServerClosed), so main
	// must wait for the drain itself to finish before exiting or it would
	// kill the very requests Shutdown is waiting on.
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		s := <-sigs
		log.Printf("caught %v, draining (up to %v)", s, server.DrainTimeout)
		if err := d.Shutdown(context.Background()); err != nil {
			log.Printf("drain: %v", err)
		}
	}()

	pc := cfg.Pool.Normalized()
	log.Printf("serving on %s: %d executors / %d orchestrators, JBSQ(%d), %d PDs",
		ln.Addr(), pc.Executors, pc.Orchestrators, pc.JBSQBound, pc.NumPDs)
	if err := d.Serve(ln); err != nil {
		log.Fatal(err)
	}
	<-drained
	log.Print("drained")
}

// registerBuiltins deploys the demo function set. fanout and chain make
// nested calls, exercising the internal-queue path (§3.3) over HTTP.
func registerBuiltins(d *jord.Server) {
	d.MustRegister("echo", func(ctx jord.LiveCtx) ([]byte, error) {
		return ctx.Payload(), nil
	})
	d.MustRegister("upper", func(ctx jord.LiveCtx) ([]byte, error) {
		return []byte(strings.ToUpper(string(ctx.Payload()))), nil
	})
	d.MustRegister("hash", func(ctx jord.LiveCtx) ([]byte, error) {
		sum := sha256.Sum256(ctx.Payload())
		return []byte(hex.EncodeToString(sum[:])), nil
	})
	// sleep demonstrates cooperative cancellation: it selects on Done, so
	// an abandoned or expired request releases its executor slot and PD
	// immediately instead of sleeping on.
	d.MustRegister("sleep", func(ctx jord.LiveCtx) ([]byte, error) {
		dur, err := time.ParseDuration(strings.TrimSpace(string(ctx.Payload())))
		if err != nil {
			return nil, fmt.Errorf("payload must be a duration like 5ms: %w", err)
		}
		if dur < 0 || dur > time.Second {
			return nil, fmt.Errorf("duration %v out of range [0, 1s]", dur)
		}
		select {
		case <-time.After(dur):
			return []byte(fmt.Sprintf("slept %v", dur)), nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	})
	// fanout hashes every whitespace-separated word of the payload in
	// parallel nested invocations and returns one digest per line.
	d.MustRegister("fanout", func(ctx jord.LiveCtx) ([]byte, error) {
		words := strings.Fields(string(ctx.Payload()))
		cookies := make([]jord.LiveCookie, len(words))
		for i, w := range words {
			ck, err := ctx.Async("hash", []byte(w))
			if err != nil {
				return nil, err
			}
			cookies[i] = ck
		}
		var out strings.Builder
		for _, ck := range cookies {
			b, err := ctx.Wait(ck)
			if err != nil {
				return nil, err
			}
			out.Write(b)
			out.WriteByte('\n')
		}
		return []byte(out.String()), nil
	})
	// chain runs upper -> hash sequentially: a two-deep call chain.
	d.MustRegister("chain", func(ctx jord.LiveCtx) ([]byte, error) {
		up, err := ctx.Call("upper", ctx.Payload())
		if err != nil {
			return nil, err
		}
		return ctx.Call("hash", up)
	})
}
