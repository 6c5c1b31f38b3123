// Command jordd is the live Jord worker daemon: the paper's runtime
// architecture — JBSQ orchestrators, suspendable executor continuations,
// internal/external queues, pmove/pcopy ArgBuf ownership transfer —
// running on real goroutines behind an HTTP gateway.
//
// Usage:
//
//	jordd [-addr :8034] [-executors N] [-orchestrators N] [-jbsq 4]
//	      [-queue-cap 256] [-num-pds 4096] [-max-inflight N]
//	      [-admit-target 5ms] [-admit-interval 100ms] [-shed-margin 0]
//	      [-breaker-window 10s] [-breaker-cooldown 2s] [-breaker-ratio 0.5]
//	      [-state-cap 67108864] [-state-global-ro-threshold 64]
//	      [-timeout 30s] [-exec-timeout 0] [-drain-timeout 30s]
//	      [-max-body 1048576] [-dedup-cache 4096] [-edge] [-pprof addr]
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
// Overload control (see README "Overload control & degraded modes"): the
// admission cap is steered adaptively by queue delay (-admit-target, 0 to
// pin the static cap), each function gets a circuit breaker
// (-breaker-window 0 to disable), and external requests are shed with 503
// while the free-PD supply nears the internal reserve (-shed-margin, -1
// to disable). Every 429/503 carries Retry-After.
//
// With -pprof addr, net/http/pprof is served on a separate listener (keep
// it off the public address), e.g. `-pprof localhost:6060` then
// `go tool pprof http://localhost:6060/debug/pprof/profile`.
//
// Shared state (see README "Stateful serverless"): functions share a
// two-tier KV whose values live in VMAs behind the permission model.
// -state-cap bounds its committed bytes (0 disables the tier entirely);
// -state-global-ro-threshold is the read count at which a hot key promotes
// to a global-RO mapping (the VTE G bit; 0 disables promotion). /statsz
// carries the store's counters under "state".
//
// Built-in functions (a demo function set exercising the runtime,
// including nested calls): echo, upper, hash, sleep, fanout, chain — plus,
// while shared state is enabled, the stateful social-network set
// social.follow / social.post / social.timeline / social.read /
// social.profile (drive it with jordload -mix social).
// SIGINT/SIGTERM drains gracefully: health goes 503, in-flight requests
// finish (bounded by -drain-timeout), then the process exits.
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
	"jord/internal/workloads"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("jordd: ")

	var (
		addr          = flag.String("addr", ":8034", "HTTP listen address")
		executors     = cliutil.NewNonNegInt(0)
		orchestrators = cliutil.NewNonNegInt(0)
		jbsq          = cliutil.NewNonNegInt(0)
		queueCap      = cliutil.NewNonNegInt(0)
		numPDs        = cliutil.NewNonNegInt(0)
		maxInflight   = cliutil.NewNonNegInt(0)
		admitTarget   = flag.Duration("admit-target", 5*time.Millisecond, "adaptive admission queue-delay SLO (0 = static cap only)")
		admitInterval = flag.Duration("admit-interval", 100*time.Millisecond, "adaptive admission AIMD window")
		shedMargin    = flag.Int("shed-margin", 0, "shed externals while free PDs <= reserve+margin (0 = auto, -1 = off)")
		brkWindow     = flag.Duration("breaker-window", 10*time.Second, "per-function circuit-breaker failure window (0 = breakers off)")
		brkCooldown   = flag.Duration("breaker-cooldown", 2*time.Second, "open-breaker cooldown before the half-open probe")
		brkRatio      = flag.Float64("breaker-ratio", 0.5, "windowed failure ratio that trips a breaker")
		stateCap      = cliutil.NewNonNegInt(64 << 20)
		stateRO       = cliutil.NewNonNegInt(64)
		timeout       = flag.Duration("timeout", 30*time.Second, "per-request deadline (0 = none)")
		execTimeout   = flag.Duration("exec-timeout", 0, "watchdog threshold for stuck invocations (0 = off)")
		drainTimeout  = flag.Duration("drain-timeout", 30*time.Second, "graceful shutdown bound")
		maxBody       = flag.Int64("max-body", 1<<20, "max /invoke payload bytes")
		dedupCache    = flag.Int("dedup-cache", 4096, "idempotent-replay cache entries for X-Jord-Idempotency-Key (0 = off)")
		edge          = flag.Bool("edge", false, "serve through the zero-allocation HTTP edge instead of net/http")
		pprofAddr     = flag.String("pprof", "", "serve net/http/pprof on this address (empty = off)")
	)
	flag.Var(executors, "executors", "executor goroutines (0 = GOMAXPROCS)")
	flag.Var(orchestrators, "orchestrators", "orchestrator goroutines (0 = executors/8)")
	flag.Var(jbsq, "jbsq", "JBSQ(k) per-executor queue bound (0 = 4)")
	flag.Var(queueCap, "queue-cap", "external queue capacity per orchestrator (0 = 256)")
	flag.Var(numPDs, "num-pds", "protection-domain space size (0 = 4096)")
	flag.Var(maxInflight, "max-inflight", "admission cap on concurrent requests (0 = auto)")
	flag.Var(stateCap, "state-cap", "shared-state tier byte cap (0 = disable the tier)")
	flag.Var(stateRO, "state-global-ro-threshold", "reads before a hot state key promotes to global-RO (0 = never promote)")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "jordd: unexpected arguments: %v\n", flag.Args())
		flag.Usage()
		os.Exit(2)
	}

	cfg := jord.DefaultServerConfig()
	cfg.Addr = *addr
	cfg.Pool.Executors = executors.Value()
	cfg.Pool.Orchestrators = orchestrators.Value()
	cfg.Pool.JBSQBound = jbsq.Value()
	cfg.Pool.ExternalQueueCap = queueCap.Value()
	cfg.Pool.NumPDs = numPDs.Value()
	// The watchdog flags (never kills — cancellation is cooperative)
	// invocations alive past the threshold, on /statsz counters.
	cfg.Pool.ExecTimeout = *execTimeout
	cfg.Pool.PDShedMargin = *shedMargin
	cfg.MaxInflight = maxInflight.Value()
	// 0 on the CLI means "off"; the server layer reads < 0 as off and 0 as
	// its own default, so translate.
	cfg.AdmitTarget = *admitTarget
	if *admitTarget == 0 {
		cfg.AdmitTarget = -1
	}
	cfg.AdmitInterval = *admitInterval
	cfg.BreakerWindow = *brkWindow
	if *brkWindow == 0 {
		cfg.BreakerWindow = -1
	}
	cfg.BreakerCooldown = *brkCooldown
	cfg.BreakerRatio = *brkRatio
	cfg.RequestTimeout = *timeout
	if *timeout == 0 {
		cfg.RequestTimeout = -1 // explicit "none"
	}
	cfg.DrainTimeout = *drainTimeout
	cfg.MaxBodyBytes = *maxBody
	// Same translation for the replay cache: 0 on the CLI means "off".
	cfg.DedupCache = *dedupCache
	if *dedupCache == 0 {
		cfg.DedupCache = -1
	}
	cfg.Edge = *edge
	// Same 0-means-off translation for the state knobs: the server layer
	// reads < 0 as off and 0 as its own default.
	cfg.StateCap = int64(stateCap.Value())
	if stateCap.Value() == 0 {
		cfg.StateCap = -1
	}
	cfg.StatePromoteAfter = stateRO.Value()
	if stateRO.Value() == 0 {
		cfg.StatePromoteAfter = -1
	}

	d := jord.NewServer(cfg)
	registerBuiltins(d)
	if cfg.StateCap >= 0 {
		// The stateful social-network set rides on the shared-state tier, so
		// it only deploys while the tier exists.
		workloads.RegisterSocialLive(d.Reg)
	}

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
		log.Printf("caught %v, draining (up to %v)", s, cfg.DrainTimeout)
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
