package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"log"
	"net"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"jord/internal/metrics"
	"jord/internal/server/admission"
	"jord/internal/server/gateway"
	"jord/internal/server/pool"
	"jord/internal/server/router"
)

// liveScenario is one measured workload against the in-process live pool.
type liveScenario struct {
	name string
	fn   string // root function to invoke
	desc string
}

// liveResult is one scenario's row in BENCH_live.json.
type liveResult struct {
	Name        string `json:"name"`
	Description string `json:"description"`
	Requests    int    `json:"requests"`
	Workers     int    `json:"workers"`

	ThroughputRPS float64 `json:"throughput_rps"`
	P50Us         float64 `json:"p50_us"`
	P99Us         float64 `json:"p99_us"`
	P999Us        float64 `json:"p999_us"`
	MeanUs        float64 `json:"mean_us"`

	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
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
	Speedup       float64 `json:"speedup"`    // vs the first (1-core) point
	Efficiency    float64 `json:"efficiency"` // Speedup / EffectiveCores
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

// runLive benchmarks the live serving path — the in-process scenarios, the
// http_echo socket-to-function scenario over the zero-allocation edge, and
// the multicore scaling sweep — and writes BENCH_live.json. It returns
// whether the -live-gate checks failed (the caller exits nonzero).
func runLive(out string, requests, workers int, cores string, gate bool) bool {
	reg := newLiveRegistry()
	cfg := pool.Config{JBSQBound: 4}
	p := pool.New(cfg, reg)
	p.Start()
	eff := p.Config()

	report := liveReport{
		reportHead:    newReportHead("jordbench -live"),
		Executors:     eff.Executors,
		Orchestrators: eff.Orchestrators,
		JBSQBound:     eff.JBSQBound,
		NumPDs:        eff.NumPDs,
	}

	scenarios := []liveScenario{
		{name: "echo", fn: "echo", desc: "external invocation, no nesting (cget/pmove/run/pmove/cput)"},
		{name: "nested_chain", fn: "chain", desc: "root -> leaf synchronous call: one suspend/resume per request"},
		{name: "fanout2", fn: "fanout2", desc: "root with two async children waited in turn"},
	}
	payload := []byte("jordbench-live-payload-64-bytes-xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx")

	for _, sc := range scenarios {
		res, err := runLiveScenario(p, sc, payload, requests, workers)
		if err != nil {
			log.Fatalf("%s: %v", sc.name, err)
		}
		logLiveResult(res)
		report.Scenarios = append(report.Scenarios, res)
	}

	if tab := p.Table(); tab.LivePDs() != 0 || tab.Faults() != 0 {
		log.Fatalf("pool not clean after load: live_pds=%d faults=%d", tab.LivePDs(), tab.Faults())
	}
	drainPool(p)

	// http_echo: the same echo workload, but entering through a real TCP
	// socket and the zero-allocation HTTP edge — request parse, admission,
	// body read into pooled VMA-bound memory, invoke, writev response. The
	// allocs/op it reports cover client AND server in this process, so the
	// raw-byte client below is written allocation-free too.
	httpRes, err := runLiveHTTPEcho(requests, workers, payload)
	if err != nil {
		log.Fatalf("http_echo: %v", err)
	}
	logLiveResult(httpRes)
	report.Scenarios = append(report.Scenarios, httpRes)

	// Tracing overhead: the echo scenario with the trace plane (the
	// default) vs without it, interleaved.
	ov, err := runTraceOverhead(requests, workers, payload)
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
	if cores != "" {
		points, err := parseCores(cores)
		if err != nil {
			log.Fatalf("-live-cores: %v", err)
		}
		var base float64
		for i, n := range points {
			pt, err := runScalingPoint(n, requests, workers, payload)
			if err != nil {
				log.Fatalf("scaling %d cores: %v", n, err)
			}
			if i == 0 {
				base = pt.ThroughputRPS
			}
			pt.Speedup = pt.ThroughputRPS / base
			pt.Efficiency = pt.Speedup / float64(pt.EffectiveCores)
			log.Printf("scaling %2d cores (%d effective): %9.0f req/s  speedup %.2fx  efficiency %.2f",
				pt.Cores, pt.EffectiveCores, pt.ThroughputRPS, pt.Speedup, pt.Efficiency)
			report.Scaling = append(report.Scaling, pt)
		}
	}

	writeReport(out, report)

	if gate {
		return !checkLiveGates(report)
	}
	return false
}

func logLiveResult(res liveResult) {
	log.Printf("%-12s %9.0f req/s  p50 %6.1fus  p99 %6.1fus  %6.2f allocs/op",
		res.Name, res.ThroughputRPS, res.P50Us, res.P99Us, res.AllocsPerOp)
}

func drainPool(p *pool.Pool) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := p.Drain(ctx); err != nil {
		log.Fatalf("drain: %v", err)
	}
}

func parseCores(s string) ([]int, error) {
	var out []int
	for _, tok := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(tok))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad core count %q", tok)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty core list")
	}
	return out, nil
}

// checkLiveGates evaluates the CI smoke gates against the report. It
// returns true when everything passes, logging each verdict.
func checkLiveGates(report liveReport) bool {
	ok := true
	// Allocation gates: the invariant is "no per-request allocation"; the
	// tolerances absorb runtime background noise (GC bookkeeping, timer
	// wheels, netpoll) that whole-process Mallocs deltas cannot exclude.
	allocGates := map[string]float64{"echo": 0.01, "http_echo": 0.05}
	for _, sc := range report.Scenarios {
		limit, gated := allocGates[sc.Name]
		if !gated {
			continue
		}
		if sc.AllocsPerOp > limit {
			log.Printf("GATE FAIL: %s allocates %.4f/op (limit %.2f)", sc.Name, sc.AllocsPerOp, limit)
			ok = false
		} else {
			log.Printf("gate ok: %s %.4f allocs/op (limit %.2f)", sc.Name, sc.AllocsPerOp, limit)
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
	var best *scalingPoint
	for i := range report.Scaling {
		pt := &report.Scaling[i]
		if pt.Cores <= report.NumCPU && pt.Cores >= 2 && (best == nil || pt.Cores > best.Cores) {
			best = pt
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
	if report.NumCPU >= 4 {
		for _, pt := range report.Scaling {
			if pt.Cores == 4 {
				if pt.Speedup < 2.0 {
					log.Printf("GATE FAIL: 4-core speedup %.2fx (want >= 2x)", pt.Speedup)
					ok = false
				} else {
					log.Printf("gate ok: 4-core speedup %.2fx", pt.Speedup)
				}
			}
		}
	}
	return ok
}

// runTraceOverhead measures the cost of the always-on trace plane: two
// pools — one default (traced), one with Config.NoTrace — run the echo
// scenario in alternating rounds, and each mode keeps its FASTEST round
// (min ns/op). Alternation means ambient noise (GC cycles, CPU frequency
// drift, a neighbor on the CI box) hits both modes alike instead of
// biasing whichever ran second.
func runTraceOverhead(requests, workers int, payload []byte) (traceOverhead, error) {
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

	sc := liveScenario{name: "echo", fn: "echo"}
	best := map[*pool.Pool]float64{}
	var ratios []float64
	for r := 0; r < rounds; r++ {
		order := []*pool.Pool{traced, untraced}
		if r%2 == 1 {
			order[0], order[1] = order[1], order[0]
		}
		nsOp := map[*pool.Pool]float64{}
		for _, p := range order {
			res, err := runLiveScenario(p, sc, payload, requests, workers)
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
// pool with n executors and n/4 orchestrators, echo under enough workers
// to keep every executor fed.
func runScalingPoint(n, requests, workers int, payload []byte) (scalingPoint, error) {
	prev := runtime.GOMAXPROCS(n)
	defer runtime.GOMAXPROCS(prev)

	orch := n / 4
	if orch < 1 {
		orch = 1
	}
	p := pool.New(pool.Config{Executors: n, Orchestrators: orch, JBSQBound: 4}, newLiveRegistry())
	p.Start()
	defer drainPool(p)

	w := workers
	if w < 2*n {
		w = 2 * n
	}
	res, err := runLiveScenario(p, liveScenario{name: "echo", fn: "echo"}, payload, requests, w)
	if err != nil {
		return scalingPoint{}, err
	}
	effCores := n
	if ncpu := runtime.NumCPU(); effCores > ncpu {
		effCores = ncpu
	}
	return scalingPoint{
		Cores:          n,
		Executors:      n,
		Orchestrators:  orch,
		EffectiveCores: effCores,
		ThroughputRPS:  res.ThroughputRPS,
		P99Us:          res.P99Us,
	}, nil
}

func runLiveScenario(p *pool.Pool, sc liveScenario, payload []byte, requests, workers int) (liveResult, error) {
	ctx := context.Background()

	// Warm up: fills the PD caches, spins up parked runners, and populates
	// the request/continuation recycle pools so the measured window sees
	// steady state.
	warm := requests / 10
	if warm > 2000 {
		warm = 2000
	}
	for i := 0; i < warm; i++ {
		if _, err := p.Invoke(ctx, sc.fn, payload); err != nil {
			return liveResult{}, fmt.Errorf("warmup: %w", err)
		}
	}

	var (
		hist    metrics.ShardedHistogram
		errCh   = make(chan error, workers)
		perWork = requests / workers
	)
	hist.SetShards(workers)

	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)

	start := time.Now()
	for w := 0; w < workers; w++ {
		go func(w int) {
			for i := 0; i < perWork; i++ {
				t0 := time.Now()
				if _, err := p.Invoke(ctx, sc.fn, payload); err != nil {
					errCh <- err
					return
				}
				hist.RecordShard(w, time.Since(t0).Nanoseconds())
			}
			errCh <- nil
		}(w)
	}
	for w := 0; w < workers; w++ {
		if err := <-errCh; err != nil {
			return liveResult{}, err
		}
	}
	elapsed := time.Since(start)

	var after runtime.MemStats
	runtime.ReadMemStats(&after)

	n := perWork * workers
	snap := hist.Snapshot()
	return liveResult{
		Name:          sc.name,
		Description:   sc.desc,
		Requests:      n,
		Workers:       workers,
		ThroughputRPS: float64(n) / elapsed.Seconds(),
		P50Us:         float64(snap.P50) / 1e3,
		P99Us:         float64(snap.P99) / 1e3,
		P999Us:        float64(snap.P999) / 1e3,
		MeanUs:        snap.Mean / 1e3,
		AllocsPerOp:   float64(after.Mallocs-before.Mallocs) / float64(n),
		BytesPerOp:    float64(after.TotalAlloc-before.TotalAlloc) / float64(n),
	}, nil
}

// runLiveHTTPEcho measures the full socket-to-function path: a real edge
// server on loopback, raw-byte keep-alive clients, whole-process
// allocation accounting. The client side parses responses with the same
// no-allocation techniques as the edge so the measured delta isolates
// per-request cost, not client sloppiness.
func runLiveHTTPEcho(requests, workers int, payload []byte) (liveResult, error) {
	reg := newLiveRegistry()
	p := pool.New(pool.Config{JBSQBound: 4}, reg)
	p.Start()
	defer drainPool(p)
	g := &gateway.Gateway{
		Reg:            reg,
		Pool:           p,
		Adm:            admission.New(0),
		RequestTimeout: 30 * time.Second,
		MaxBodyBytes:   1 << 20,
	}
	e := gateway.NewEdge(g)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return liveResult{}, err
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- e.Serve(ln) }()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := e.Shutdown(ctx); err != nil {
			log.Printf("edge shutdown: %v", err)
		}
		<-serveDone
	}()

	var reqBuf bytes.Buffer
	fmt.Fprintf(&reqBuf, "POST /invoke/echo HTTP/1.1\r\nHost: jordbench\r\nContent-Length: %d\r\n\r\n", len(payload))
	reqBuf.Write(payload)
	req := reqBuf.Bytes()

	clients := make([]*edgeClient, workers)
	for i := range clients {
		c, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			return liveResult{}, err
		}
		defer c.Close()
		clients[i] = &edgeClient{conn: c, br: bufio.NewReaderSize(c, 16<<10)}
	}

	// Warm both sides to steady state before counting.
	warm := requests / 10
	if warm > 2000 {
		warm = 2000
	}
	perWarm := warm/workers + 1
	var wg sync.WaitGroup
	warmErr := make(chan error, workers)
	for _, cl := range clients {
		wg.Add(1)
		go func(cl *edgeClient) {
			defer wg.Done()
			for i := 0; i < perWarm; i++ {
				if err := cl.roundtrip(req); err != nil {
					warmErr <- err
					return
				}
			}
		}(cl)
	}
	wg.Wait()
	select {
	case err := <-warmErr:
		return liveResult{}, fmt.Errorf("warmup: %w", err)
	default:
	}

	var hist metrics.ShardedHistogram
	hist.SetShards(workers)
	perWork := requests / workers
	errCh := make(chan error, workers)

	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)

	start := time.Now()
	for w, cl := range clients {
		go func(w int, cl *edgeClient) {
			for i := 0; i < perWork; i++ {
				t0 := time.Now()
				if err := cl.roundtrip(req); err != nil {
					errCh <- err
					return
				}
				hist.RecordShard(w, time.Since(t0).Nanoseconds())
			}
			errCh <- nil
		}(w, cl)
	}
	for range clients {
		if err := <-errCh; err != nil {
			return liveResult{}, err
		}
	}
	elapsed := time.Since(start)

	var after runtime.MemStats
	runtime.ReadMemStats(&after)

	n := perWork * workers
	snap := hist.Snapshot()
	return liveResult{
		Name:          "http_echo",
		Description:   "echo through the zero-allocation HTTP edge over loopback TCP: socket to function and back",
		Requests:      n,
		Workers:       workers,
		ThroughputRPS: float64(n) / elapsed.Seconds(),
		P50Us:         float64(snap.P50) / 1e3,
		P99Us:         float64(snap.P99) / 1e3,
		P999Us:        float64(snap.P999) / 1e3,
		MeanUs:        snap.Mean / 1e3,
		AllocsPerOp:   float64(after.Mallocs-before.Mallocs) / float64(n),
		BytesPerOp:    float64(after.TotalAlloc-before.TotalAlloc) / float64(n),
	}, nil
}

// edgeClient is an allocation-free HTTP/1.1 client for the echo scenario:
// prebuilt request bytes out, ReadSlice-parsed response in.
type edgeClient struct {
	conn net.Conn
	br   *bufio.Reader
}

var clPrefix = []byte("Content-Length:")

func (c *edgeClient) roundtrip(req []byte) error {
	if _, err := c.conn.Write(req); err != nil {
		return err
	}
	line, err := c.br.ReadSlice('\n')
	if err != nil {
		return err
	}
	if !bytes.HasPrefix(line, []byte("HTTP/1.1 200")) {
		return fmt.Errorf("edge answered %q", bytes.TrimSpace(line))
	}
	cl := -1
	for {
		line, err = c.br.ReadSlice('\n')
		if err != nil {
			return err
		}
		if len(line) <= 2 { // bare CRLF: end of headers
			break
		}
		if bytes.HasPrefix(line, clPrefix) {
			v := bytes.TrimSpace(line[len(clPrefix):])
			cl = 0
			for _, ch := range v {
				if ch < '0' || ch > '9' {
					return fmt.Errorf("bad content-length %q", v)
				}
				cl = cl*10 + int(ch-'0')
			}
		}
	}
	if cl < 0 {
		return fmt.Errorf("response missing content-length")
	}
	if _, err := c.br.Discard(cl); err != nil {
		return err
	}
	return nil
}
