package main

import (
	"context"
	"fmt"
	"log"
	"runtime"
	"sort"
	"time"

	"jord/internal/server/pool"
	"jord/internal/server/router"
)

// liveResult is one scenario's row in BENCH_live.json.
type liveResult struct {
	Name        string `json:"name"`
	Description string `json:"description"`
	result
}

// scalingPoint is one row of the multicore scaling curve: the echo
// workload against a pool sized for N cores with GOMAXPROCS pinned to N.
type scalingPoint struct {
	Cores         int `json:"cores"`
	Executors     int `json:"executors"`
	Orchestrators int `json:"orchestrators"`

	// EffectiveCores is min(Cores, NumCPU): the parallelism the machine
	// can actually grant this point. Efficiency is normalized by it, so a
	// 32-core sweep on a 4-core box reports the truth instead of a
	// fabricated 8-way speedup.
	EffectiveCores int `json:"effective_cores"`

	ThroughputRPS float64 `json:"throughput_rps"`
	P99Us         float64 `json:"p99_us"`
	Speedup       float64 `json:"speedup"`    // vs the first point
	Efficiency    float64 `json:"efficiency"` // see scaling
}

// traceOverhead is the tracing cost measurement: the echo scenario with
// the always-on trace plane vs with it disabled (Config.NoTrace), in
// paired alternating rounds. OverheadPct is the median of the per-round
// traced/untraced ratios.
type traceOverhead struct {
	TracedNSOp   float64 `json:"traced_ns_per_op"`
	UntracedNSOp float64 `json:"untraced_ns_per_op"`
	OverheadPct  float64 `json:"overhead_pct"`
	Rounds       int     `json:"rounds"`
}

// liveReport is the whole BENCH_live.json document.
type liveReport struct {
	reportHead

	Executors     int `json:"executors"`
	Orchestrators int `json:"orchestrators"`
	JBSQBound     int `json:"jbsq_bound"`
	NumPDs        int `json:"num_pds"`

	Scenarios     []liveResult   `json:"scenarios"`
	TraceOverhead *traceOverhead `json:"trace_overhead,omitempty"`
	Scaling       []scalingPoint `json:"scaling,omitempty"`
}

var livePayload = []byte("jordbench-live-payload-64-bytes-xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx")

// newLiveRegistry builds the benchmark function set. A fresh registry per
// pool keeps sequential scaling points independent.
func newLiveRegistry() *router.Registry {
	reg := router.New()
	reg.MustRegister("echo", func(ctx router.Ctx) ([]byte, error) {
		return ctx.Payload(), nil
	})
	reg.MustRegister("leaf", func(ctx router.Ctx) ([]byte, error) {
		return ctx.Payload(), nil
	})
	reg.MustRegister("chain", func(ctx router.Ctx) ([]byte, error) {
		return ctx.Call("leaf", ctx.Payload())
	})
	reg.MustRegister("fanout2", func(ctx router.Ctx) ([]byte, error) {
		ck1, err := ctx.Async("leaf", ctx.Payload())
		if err != nil {
			return nil, err
		}
		ck2, err := ctx.Async("leaf", ctx.Payload())
		if err != nil {
			return nil, err
		}
		if _, err := ctx.Wait(ck1); err != nil {
			return nil, err
		}
		return ctx.Wait(ck2)
	})
	return reg
}

// runLive benchmarks the live pool — the in-process scenarios, the
// tracing cost, and the multicore scaling sweep over cores — and writes
// BENCH_live.json. It returns false if gate is set and a gate failed.
func runLive(out string, requests, clients int, cores []int, gate bool) bool {
	p := pool.New(pool.Config{JBSQBound: 4}, newLiveRegistry())
	p.Start()
	eff := p.Config()

	report := liveReport{
		reportHead:    newReportHead("jordbench -mode live"),
		Executors:     eff.Executors,
		Orchestrators: eff.Orchestrators,
		JBSQBound:     eff.JBSQBound,
		NumPDs:        eff.NumPDs,
	}

	scenarios := []struct{ name, fn, desc string }{
		{"echo", "echo", "external invocation, no nesting (cget/pmove/run/pmove/cput)"},
		{"nested_chain", "chain", "root -> leaf synchronous call: one suspend/resume per request"},
		{"fanout2", "fanout2", "root with two async children waited in turn"},
	}
	for _, sc := range scenarios {
		res, err := invokeLoop(p, sc.fn, requests, clients)
		if err != nil {
			log.Fatalf("%s: %v", sc.name, err)
		}
		log.Printf("%-12s %9.0f req/s  p50 %6.1fus  p99 %6.1fus  %6.2f allocs/op",
			sc.name, res.ThroughputRPS, res.P50Us, res.P99Us, res.AllocsPerOp)
		report.Scenarios = append(report.Scenarios, liveResult{Name: sc.name, Description: sc.desc, result: res})
	}

	if tab := p.Table(); tab.LivePDs() != 0 || tab.Faults() != 0 {
		log.Fatalf("pool not clean after load: live_pds=%d faults=%d", tab.LivePDs(), tab.Faults())
	}
	drainPool(p)

	// Tracing overhead: the echo scenario with the trace plane (the
	// default) vs without it, interleaved.
	ov, err := runTraceOverhead(requests, clients)
	if err != nil {
		log.Fatalf("trace overhead: %v", err)
	}
	log.Printf("trace overhead: %.0f ns/op traced vs %.0f ns/op untraced (median %+.1f%%)",
		ov.TracedNSOp, ov.UntracedNSOp, ov.OverheadPct)
	report.TraceOverhead = &ov

	// Multicore scaling sweep: per point, pin GOMAXPROCS and size the pool
	// to the core count (one executor per core, one orchestrator per four
	// cores — the paper's dispatcher:worker proportion), then measure the
	// echo throughput.
	for _, n := range cores {
		pt, err := runScalingPoint(n, requests, clients)
		if err != nil {
			log.Fatalf("scaling %d cores: %v", n, err)
		}
		base := pt
		if len(report.Scaling) > 0 {
			base = report.Scaling[0]
		}
		pt.Speedup, pt.Efficiency = scaling(pt.ThroughputRPS, pt.EffectiveCores, base.ThroughputRPS, base.EffectiveCores)
		log.Printf("scaling %2d cores (%d effective): %9.0f req/s  speedup %.2fx  efficiency %.2f",
			pt.Cores, pt.EffectiveCores, pt.ThroughputRPS, pt.Speedup, pt.Efficiency)
		report.Scaling = append(report.Scaling, pt)
	}

	writeReport(out, report)
	return !gate || checkLiveGates(report)
}

// invokeLoop measures fn on p with the closed-loop driver, after a
// warm-up window that fills the PD caches, spins up parked runners, and
// populates the request/continuation recycle pools.
func invokeLoop(p *pool.Pool, fn string, requests, clients int) (result, error) {
	do := func(int, int) error {
		_, err := p.Invoke(context.Background(), fn, livePayload)
		return err
	}
	if _, err := run(warmup(requests), clients, do); err != nil {
		return result{}, fmt.Errorf("warmup: %w", err)
	}
	return run(requests, clients, do)
}

func drainPool(p *pool.Pool) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := p.Drain(ctx); err != nil {
		log.Fatalf("drain: %v", err)
	}
}

// checkLiveGates evaluates the CI smoke gates against the report. It
// returns true when everything passes, logging each verdict.
func checkLiveGates(report liveReport) bool {
	ok := true
	// Allocation gate: the invariant is "no per-request allocation"; the
	// tolerance absorbs runtime background noise (GC bookkeeping, timer
	// wheels) that whole-process Mallocs deltas cannot exclude.
	for _, sc := range report.Scenarios {
		if sc.Name != "echo" {
			continue
		}
		if sc.AllocsPerOp > 0.01 {
			log.Printf("GATE FAIL: echo allocates %.4f/op (limit 0.01)", sc.AllocsPerOp)
			ok = false
		} else {
			log.Printf("gate ok: echo %.4f allocs/op (limit 0.01)", sc.AllocsPerOp)
		}
	}

	// Tracing must stay within its latency budget: the always-on plane may
	// cost at most 5% of the untraced echo path.
	if ov := report.TraceOverhead; ov != nil {
		if ov.OverheadPct > 5.0 {
			log.Printf("GATE FAIL: tracing overhead %.1f%% (limit 5%%)", ov.OverheadPct)
			ok = false
		} else {
			log.Printf("gate ok: tracing overhead %.1f%% (limit 5%%)", ov.OverheadPct)
		}
	}

	// Scaling gates, clamped to the machine: only points the hardware can
	// actually parallelize count. On a 1-CPU box every point collapses to
	// one effective core and the efficiency gate is vacuous — which is the
	// honest outcome, not a failure; CI provides the multi-core machine.
	var best, one, four *scalingPoint
	for i := range report.Scaling {
		pt := &report.Scaling[i]
		if pt.Cores <= report.NumCPU && pt.Cores >= 2 && (best == nil || pt.Cores > best.Cores) {
			best = pt
		}
		switch pt.Cores {
		case 1:
			one = pt
		case 4:
			four = pt
		}
	}
	if best != nil {
		if best.Efficiency < 0.70 {
			log.Printf("GATE FAIL: scaling efficiency %.2f at %d cores (want >= 0.70)", best.Efficiency, best.Cores)
			ok = false
		} else {
			log.Printf("gate ok: scaling efficiency %.2f at %d cores", best.Efficiency, best.Cores)
		}
	} else {
		log.Printf("gate skipped: no scaling point with 2..%d cores on this machine", report.NumCPU)
	}
	// The 4-core point must double the 1-core point, whichever point the
	// sweep started at.
	if report.NumCPU < 4 || one == nil || four == nil {
		log.Printf("gate skipped: 4-core speedup needs 1- and 4-core points on >= 4 CPUs (machine has %d)", report.NumCPU)
	} else if speedup := four.ThroughputRPS / one.ThroughputRPS; speedup < 2.0 {
		log.Printf("GATE FAIL: 4-core speedup %.2fx (want >= 2x)", speedup)
		ok = false
	} else {
		log.Printf("gate ok: 4-core speedup %.2fx", speedup)
	}
	return ok
}

// runTraceOverhead measures the cost of the always-on trace plane: two
// pools — one default (traced), one with Config.NoTrace — run the echo
// scenario in alternating rounds, and each mode keeps its FASTEST round
// (min ns/op). Alternation means ambient noise (GC cycles, CPU frequency
// drift, a neighbor on the CI box) hits both modes alike instead of
// biasing whichever ran second.
func runTraceOverhead(requests, clients int) (traceOverhead, error) {
	// Paired rounds, order flipped each time. External noise (a shared
	// box, GC, another CI job) slows whole windows, so each round compares
	// the two modes back-to-back inside one window and yields one ratio;
	// the gate takes the median ratio, which a minority of noise-split
	// rounds cannot move.
	const rounds = 11
	// Triple the per-round request count: at ~1.5 us/op, the default CI
	// request count makes a ~30 ms window — short enough for one scheduler
	// hiccup to swing a round several percent. ~100 ms windows average the
	// hiccups out while keeping the whole measurement under two seconds.
	requests *= 3
	// Both pools carry the admission queue-delay observer, because jordd
	// always installs one: the overhead being gated is "tracing on vs off
	// in the deployed configuration", and the untraced pool's observer
	// pays clock reads at submit and dequeue that the traced pool folds
	// into its span stamps. A hookless baseline would bill those shared
	// reads to tracing.
	obs := func(time.Duration) {}
	traced := pool.New(pool.Config{JBSQBound: 4, ObserveQueueDelay: obs}, newLiveRegistry())
	traced.Start()
	defer drainPool(traced)
	untraced := pool.New(pool.Config{JBSQBound: 4, NoTrace: true, ObserveQueueDelay: obs}, newLiveRegistry())
	untraced.Start()
	defer drainPool(untraced)

	best := map[*pool.Pool]float64{}
	var ratios []float64
	for r := 0; r < rounds; r++ {
		order := []*pool.Pool{traced, untraced}
		if r%2 == 1 {
			order[0], order[1] = order[1], order[0]
		}
		nsOp := map[*pool.Pool]float64{}
		for _, p := range order {
			res, err := invokeLoop(p, "echo", requests, clients)
			if err != nil {
				return traceOverhead{}, err
			}
			nsOp[p] = 1e9 / res.ThroughputRPS
			if cur, ok := best[p]; !ok || nsOp[p] < cur {
				best[p] = nsOp[p]
			}
		}
		ratios = append(ratios, nsOp[traced]/nsOp[untraced])
	}
	sort.Float64s(ratios)
	ov := traceOverhead{
		TracedNSOp:   best[traced],
		UntracedNSOp: best[untraced],
		Rounds:       rounds,
	}
	ov.OverheadPct = (ratios[len(ratios)/2] - 1) * 100
	return ov, nil
}

// runScalingPoint measures one core count: GOMAXPROCS pinned to n, a fresh
// pool with n executors and n/4 orchestrators, echo under enough clients
// to keep every executor fed.
func runScalingPoint(n, requests, clients int) (scalingPoint, error) {
	prev := runtime.GOMAXPROCS(n)
	defer runtime.GOMAXPROCS(prev)

	orch := max(n/4, 1)
	p := pool.New(pool.Config{Executors: n, Orchestrators: orch, JBSQBound: 4}, newLiveRegistry())
	p.Start()
	defer drainPool(p)

	res, err := invokeLoop(p, "echo", requests, max(clients, 2*n))
	if err != nil {
		return scalingPoint{}, err
	}
	return scalingPoint{
		Cores:          n,
		Executors:      n,
		Orchestrators:  orch,
		EffectiveCores: min(n, runtime.NumCPU()),
		ThroughputRPS:  res.ThroughputRPS,
		P99Us:          res.P99Us,
	}, nil
}
