package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"jord/internal/cluster"
	"jord/internal/server/state"
	"jord/internal/server/trace"
)

// runConfig is one run of one workload.
type runConfig struct {
	w       *workload
	seed    int64
	seconds float64 // the measured budget; phases share it (see phaseDurations)
	setups  int     // how many times set-up is repeated for setup_s, at least
	outDir  string  // where trace files go
}

// phaseInfo is the per-phase line of a result: wall time and validity.
type phaseInfo struct {
	Name      string  `json:"name"`
	WallS     float64 `json:"wall_s"`
	Attempted int     `json:"attempted"`
	Correct   int     `json:"correct"`
	LateRatio float64 `json:"late_ratio"`
	SchedWait float64 `json:"sched_wait_us"`     // mean send-minus-due
	Invalid   bool    `json:"invalid,omitempty"` // the generator ran late: late_ratio > 0.05
}

// runResult is what one run of one workload reports.
type runResult struct {
	Workload  string           `json:"workload"`
	Traced    bool             `json:"traced"`
	Seed      int64            `json:"seed"`
	RateRPS   float64          `json:"rate_rps"`
	SLOUS     float64          `json:"slo_us"`
	Clients   int              `json:"clients"`
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Errors    []string         `json:"errors,omitempty"`
	Phases    []phaseInfo      `json:"phases"`
	Metrics   map[string]value `json:"metrics"`
	TraceFile string           `json:"trace_file,omitempty"`
}

func (r *runResult) fail(format string, args ...any) {
	r.Correct = false
	if len(r.Errors) < 8 {
		r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
	}
}

func (r *runResult) notePhase(ph *phase) {
	attempted, correct := ph.totals()
	late, waitNS := ph.lateness()
	pi := phaseInfo{Name: ph.name, WallS: ph.wall.Seconds(), Attempted: attempted, Correct: correct}
	if attempted > 0 {
		pi.LateRatio = float64(late) / float64(attempted)
		pi.SchedWait = float64(waitNS) / float64(attempted) / 1e3
	}
	pi.Invalid = pi.LateRatio > 0.05
	r.Phases = append(r.Phases, pi)
	if ph.wrong > 0 {
		r.fail("%s: %d wrong responses, first: %v", ph.name, ph.wrong, ph.firstErr)
	} else if ph.firstErr != nil && len(r.Errors) < 8 {
		r.Errors = append(r.Errors, fmt.Sprintf("%s: %d failed, first: %v", ph.name, attempted-correct, ph.firstErr))
	}
}

// phaseDurations splits the run's budget the way the issue's 2 s warm-up /
// 8 s closed loop / 12 s open loop (untraced) and 5 s traced open loop do.
func phaseDurations(seconds float64) (warm, closed, open, traced time.Duration) {
	unit := time.Duration(seconds / 22 * float64(time.Second))
	return 2 * unit, 8 * unit, 12 * unit, 5 * unit
}

// firstOp is the request whose correct answer ends set-up.
func firstOp(w *workload) op {
	switch {
	case w.rig == rigPool:
		return op{fn: "chain", kind: opChain, payload: make([]byte, graphBytes)}
	case w.social():
		u := []byte("u0")
		return op{fn: "social.profile", kind: opProfile, payload: u, user: u}
	default:
		return op{fn: "echo", kind: opEcho, payload: make([]byte, echoBytes)}
	}
}

// setUp boots the rig, seeds its state and waits for the first correct
// response; the time that takes is one setup_s sample.
func setUp(w *workload, tr *tracer, seed int64) (*rig, float64, error) {
	t0 := nowNS()
	r, err := bootRig(w, tr, seed, numClients())
	if err != nil {
		return nil, 0, err
	}
	tp, err := r.dial()
	if err == nil {
		o := firstOp(w)
		var resp []byte
		if resp, err = tp.do(&o, 0); err == nil {
			if ok, _ := o.check(resp); !ok {
				err = fmt.Errorf("first response wrong: %q", truncate(resp, 80))
			}
		}
		tp.close()
	}
	if err != nil {
		r.shutdown()
		return nil, 0, fmt.Errorf("set-up: %w", err)
	}
	return r, float64(nowNS()-t0) / 1e9, nil
}

// finish runs the end-of-run checks and tears the rig down.
func (res *runResult) finish(r *rig, clients []*client, phases ...*phase) {
	closeClients(clients)
	if r.w.social() {
		var ids []string
		exact := true
		for _, ph := range phases {
			ids = append(ids, ph.posts...)
			if a, c := ph.totals(); a != c || ph.firstErr != nil {
				exact = false
			}
		}
		if err := r.verifySocial(ids, exact); err != nil {
			res.fail("social check: %v", err)
		}
	}
	if err := r.shutdown(); err != nil {
		res.fail("drain invariants: %v", err)
	}
}

// connect opens the clients' connections to a booted rig. On failure it
// records the error, tears the rig down and returns nil.
func (res *runResult) connect(r *rig, seed int64) []*client {
	clients, err := newClients(r, seed, numClients())
	if err != nil {
		res.fail("connecting: %v", err)
		r.shutdown()
		return nil
	}
	runtime.GC() // boot and seeding left garbage; collect it before the clock starts
	return clients
}

func newResult(cfg runConfig, traced bool) *runResult {
	return &runResult{
		Workload: cfg.w.name, Traced: traced, Seed: cfg.seed,
		RateRPS: cfg.w.rateRPS, SLOUS: cfg.w.sloUS, Clients: numClients(),
		Correct: true, Metrics: make(map[string]value),
	}
}

// perWindow maps each window of a phase to one number.
func perWindow(ph *phase, f func(i int, w *window) float64) []float64 {
	out := make([]float64, len(ph.windows))
	for i := range ph.windows {
		out[i] = f(i, &ph.windows[i])
	}
	return out
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// latencyWindows returns the per-window q-quantile of a phase in µs.
func latencyWindows(ph *phase, q float64) []float64 {
	return perWindow(ph, func(_ int, w *window) float64 {
		slices.Sort(w.lat)
		return percentile(w.lat, q) / 1e3
	})
}

// phaseQuantileUS is the q-quantile over every latency of a phase in µs,
// stalls of the box and collections included.
func phaseQuantileUS(ph *phase, q float64) float64 {
	var all []int64
	for i := range ph.windows {
		all = append(all, ph.windows[i].lat...)
	}
	slices.Sort(all)
	return percentile(all, q) / 1e3
}

// runUntraced measures the end-to-end metrics of one workload: set-up
// (repeated, median), warm-up, a closed loop and an open loop at the
// workload's frozen rate, with no benchmark wrapper installed.
func runUntraced(cfg runConfig) *runResult {
	res := newResult(cfg, false)
	w := cfg.w
	var (
		r      *rig
		setups []float64
	)
	// Set-up is repeated: at least cfg.setups times, and for rigs that boot
	// in milliseconds or less up to maxSetups times within a second. A boot
	// of 0.05-2 ms varies by a factor of two from one to the next (the first
	// of a process is ten times the rest) and, being mostly kernel work,
	// slows by half when a neighbour is busy; what repeats from run to run is
	// the first decile of a few hundred boots (see quiet; of the social
	// rigs' five boots it is the fastest): over twelve runs of edge_echo it
	// read 128-160 us, once 205, where the median read 146-295.
	const maxSetups = 300
	for began := nowNS(); len(setups) < cfg.setups ||
		(cfg.setups > 1 && len(setups) < maxSetups && nowNS()-began < int64(time.Second)); {
		if r != nil {
			if err := r.shutdown(); err != nil {
				res.fail("drain invariants after set-up %d: %v", len(setups), err)
			}
		}
		runtime.GC() // every set-up starts from a collected heap, not from the last rig's garbage
		var (
			s   float64
			err error
		)
		if r, s, err = setUp(w, nil, cfg.seed); err != nil {
			res.fail("%v", err)
			return res
		}
		setups = append(setups, s)
	}
	clients := res.connect(r, cfg.seed)
	if clients == nil {
		return res
	}

	warm, closed, open, _ := phaseDurations(cfg.seconds)
	sloNS := int64(w.sloUS * 1e3)
	phWarm := runPhase(clients, loadSpec{name: "warm-up", dur: warm, sloNS: sloNS})
	phClosed := runPhase(clients, loadSpec{name: "closed", dur: closed, sloNS: sloNS, record: true})
	phOpen := runPhase(clients, loadSpec{name: "open", dur: open, open: true, rate: w.rateRPS, sloNS: sloNS, record: true})
	res.notePhase(phWarm)
	res.notePhase(phClosed)
	res.notePhase(phOpen)
	res.finish(r, clients, phWarm, phClosed, phOpen)

	winS := closed.Seconds() / closedWindows
	ca, cc := phClosed.totals()
	oa, oc := phOpen.totals()
	res.Attempted, res.Failed = ca+oa, (ca-cc)+(oa-oc)
	unit := func(name string) string { return unitOf(endToEndDefs, name) }
	e2e := func(name string, windows []float64, samples int) {
		res.Metrics[name] = windowed(unit(name), windows, samples)
	}
	e2e("rps", perWindow(phClosed, func(_ int, w *window) float64 { return float64(w.correct) / winS }), cc)
	e2e("cpu_us_per_req", perWindow(phClosed, func(i int, w *window) float64 {
		if w.correct == 0 {
			return 0
		}
		return phClosed.cpuUS[i] / float64(w.correct)
	}), cc)
	res.Metrics["p50_us"] = quiet(unit("p50_us"), latencyWindows(phOpen, 0.50), oc)
	res.Metrics["p90_us"] = quiet(unit("p90_us"), latencyWindows(phOpen, 0.90), oc)
	// The two ratios are counts over whole phases: a request that missed
	// its limit or failed counts wherever in the run it fell.
	sloOK := 0
	for i := range phOpen.windows {
		sloOK += phOpen.windows[i].sloOK
	}
	res.Metrics["slo_ok_ratio"] = whole(unit("slo_ok_ratio"), ratio(sloOK, oa),
		perWindow(phOpen, func(_ int, w *window) float64 { return ratio(w.sloOK, w.attempted) }), oa)
	res.Metrics["ok_ratio"] = whole(unit("ok_ratio"), ratio(cc+oc, ca+oa), append(
		perWindow(phClosed, func(_ int, w *window) float64 { return ratio(w.correct, w.attempted) }),
		perWindow(phOpen, func(_ int, w *window) float64 { return ratio(w.correct, w.attempted) })...), ca+oa)
	res.Metrics["setup_s"] = quiet(unit("setup_s"), setups, len(setups))
	return res
}

// ---- the traced run -----------------------------------------------------

// probe samples the gauges no counter keeps a minimum or maximum of.
type probe struct {
	stop chan struct{}
	wg   sync.WaitGroup

	queueDepthMax int
	freePDsMin    int
	limitMin      int64
	goroutinesMax int
}

func startProbe(r *rig) *probe {
	p := &probe{stop: make(chan struct{}), freePDsMin: 1 << 30, limitMin: 1 << 30}
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		t := time.NewTicker(2 * time.Millisecond)
		defer t.Stop()
		for {
			p.sample(r)
			select {
			case <-p.stop:
				return
			case <-t.C:
			}
		}
	}()
	return p
}

func (p *probe) sample(r *rig) {
	for _, pl := range r.pools() {
		ext, internal, execQ := pl.QueueDepths()
		if d := ext + internal + execQ; d > p.queueDepthMax {
			p.queueDepthMax = d
		}
		if f := pl.Table().FreeCount(); f < p.freePDsMin {
			p.freePDsMin = f
		}
	}
	for _, d := range r.daemons {
		if l := d.Gateway().Adm.Limit(); l < p.limitMin {
			p.limitMin = l
		}
	}
	if g := runtime.NumGoroutine(); g > p.goroutinesMax {
		p.goroutinesMax = g
	}
}

func (p *probe) finish() {
	close(p.stop)
	p.wg.Wait()
}

// counters is a reading of every counter the program keeps, summed over
// the rig's workers.
type counters struct {
	poolDispatched, poolCompleted, poolRejected uint64
	poolShed, poolExpired, poolOrphaned         uint64
	admRejected                                 uint64
	brkTrips, brkShort                          uint64
	dedupHits, dedupEvictions                   uint64
	st                                          state.Stats
	cl                                          cluster.Statsz
	stages                                      [trace.NumStages]trace.StageHist
	mem                                         runtime.MemStats
}

func readCounters(r *rig) (c counters) {
	for _, pl := range r.pools() {
		s := pl.Stats()
		c.poolDispatched += s.Dispatched.Load()
		c.poolCompleted += s.Completed.Load()
		c.poolRejected += s.Rejected.Load()
		c.poolShed += s.Shed.Load()
		c.poolExpired += s.Expired.Load()
		c.poolOrphaned += s.Orphaned.Load()
		if tr := pl.Trace(); tr != nil {
			for i, h := range tr.StageHists() {
				c.stages[i].Count += h.Count
				for b := range h.Buckets {
					c.stages[i].Buckets[b] += h.Buckets[b]
				}
			}
		}
	}
	for _, d := range r.daemons {
		gw := d.Gateway()
		c.admRejected += gw.Adm.Rejected()
		for _, name := range d.Reg.Names() {
			if b := gw.Breakers.For(name); b != nil {
				c.brkTrips += b.Trips()
				c.brkShort += b.ShortCircuits()
			}
		}
		if gw.Dedup != nil {
			c.dedupHits += gw.Dedup.Hits()
			c.dedupEvictions += gw.Dedup.Evictions()
		}
		if st := d.State(); st != nil {
			s := st.StatsSnapshot()
			c.st.Gets += s.Gets
			c.st.FastGets += s.FastGets
			c.st.StaleGets += s.StaleGets
			c.st.Promotions += s.Promotions
			c.st.Demotions += s.Demotions
			c.st.CapacityRefusals += s.CapacityRefusals
			c.st.DegradedRefusals += s.DegradedRefusals
		}
	}
	if r.disp != nil {
		_ = r.dispatcherJSON("/statsz", &c.cl)
	}
	runtime.ReadMemStats(&c.mem)
	return c
}

// stageQuantileUS is the q-quantile of one pool trace stage over the
// interval between two readings, from the stage's log-bucket histogram
// (so it is the upper bound of a power-of-two bucket).
func stageQuantileUS(before, after *counters, stage trace.Stage, q float64) float64 {
	var delta [trace.NumStageBuckets]uint64
	var total uint64
	for b := range delta {
		delta[b] = after.stages[stage].Buckets[b] - before.stages[stage].Buckets[b]
		total += delta[b]
	}
	if total == 0 {
		return 0
	}
	target := uint64(q * float64(total))
	if target >= total {
		target = total - 1
	}
	var cum uint64
	for b := range delta {
		if cum += delta[b]; cum > target {
			return float64(trace.StageBucketUpperNS(b)) / 1e3
		}
	}
	return 0
}

func rssMB() float64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0
	}
	pages, _ := strconv.ParseFloat(f[1], 64)
	return pages * float64(os.Getpagesize()) / (1 << 20)
}

// runTraced produces the per-layer metrics of one workload in three
// steps: an untraced reference open loop (whose interval the program's
// own counters are read over), the iso rows, and an open loop with the
// benchmark's wrappers installed, whose spans give each layer's time.
func runTraced(cfg runConfig) *runResult {
	res := newResult(cfg, true)
	w := cfg.w
	warm, _, _, traced := phaseDurations(cfg.seconds)
	sloNS := int64(w.sloUS * 1e3)
	open := loadSpec{dur: traced, open: true, rate: w.rateRPS, sloNS: sloNS, record: true}
	layer := func(name string, v float64) { res.Metrics[name] = single(unitOf(perLayerDefs, name), v) }

	// Step 1: the reference phase, nothing wrapped.
	r, _, err := setUp(w, nil, cfg.seed)
	if err != nil {
		res.fail("%v", err)
		return res
	}
	clients := res.connect(r, cfg.seed)
	if clients == nil {
		return res
	}
	phWarm := runPhase(clients, loadSpec{name: "warm-up", dur: warm, sloNS: sloNS})
	before := readCounters(r)
	pr := startProbe(r)
	open.name = "reference"
	phRef := runPhase(clients, open)
	pr.finish()
	after := readCounters(r)
	rss := rssMB()
	res.notePhase(phWarm)
	res.notePhase(phRef)
	res.finish(r, clients, phWarm, phRef)

	ra, rc := phRef.totals()
	late, waitNS := phRef.lateness()
	layer("client.sched_wait_us", float64(waitNS)/float64(max(ra, 1))/1e3)
	layer("client.late_ratio", ratio(late, ra))
	layer("client.fail_ratio", ratio(ra-rc, ra))
	layer("client.p99_us", phaseQuantileUS(phRef, 0.99))

	layer("cluster.retries", float64((after.cl.ErrRetries+after.cl.UnsafeRetries)-(before.cl.ErrRetries+before.cl.UnsafeRetries)))
	rejected := func(c *counters) uint64 {
		return c.cl.RejectedSaturated + c.cl.RejectedNoWorkers + c.cl.Exhausted + c.cl.Passthrough
	}
	layer("cluster.rejected", float64(rejected(&after)-rejected(&before)))
	layer("cluster.replaced", float64(after.cl.DrainRetries-before.cl.DrainRetries))
	layer("cluster.hedges_issued", float64(after.cl.HedgesIssued-before.cl.HedgesIssued))
	layer("cluster.placement_imbalance", placementImbalance(&before, &after))

	layer("gateway.dedup_hits", float64(after.dedupHits-before.dedupHits))
	layer("gateway.dedup_evictions", float64(after.dedupEvictions-before.dedupEvictions))
	layer("admission.rejected", float64(after.admRejected-before.admRejected))
	limitMin := float64(pr.limitMin)
	if len(r.daemons) == 0 {
		limitMin = 0 // pool_graph has no admission controller in front of it
	}
	layer("admission.limit_min", limitMin)
	layer("breaker.trips", float64(after.brkTrips-before.brkTrips))
	layer("breaker.short_circuits", float64(after.brkShort-before.brkShort))

	layer("pool.stage.queue_us.p50", stageQuantileUS(&before, &after, trace.StageQueue, 0.50))
	layer("pool.stage.queue_us.p99", stageQuantileUS(&before, &after, trace.StageQueue, 0.99))
	layer("pool.stage.init_us.p50", stageQuantileUS(&before, &after, trace.StageInit, 0.50))
	layer("pool.stage.exec_us.p50", stageQuantileUS(&before, &after, trace.StageExec, 0.50))
	layer("pool.stage.wait_us.p50", stageQuantileUS(&before, &after, trace.StageWait, 0.50))
	layer("pool.stage.teardown_us.p50", stageQuantileUS(&before, &after, trace.StageTeardown, 0.50))
	layer("pool.queue_depth_max", float64(pr.queueDepthMax))
	layer("pool.free_pds_min", float64(pr.freePDsMin))
	layer("pool.dispatched", float64(after.poolDispatched-before.poolDispatched))
	layer("pool.completed", float64(after.poolCompleted-before.poolCompleted))
	layer("pool.rejected", float64(after.poolRejected-before.poolRejected))
	layer("pool.shed", float64(after.poolShed-before.poolShed))
	layer("pool.expired", float64(after.poolExpired-before.poolExpired))
	layer("pool.orphaned", float64(after.poolOrphaned-before.poolOrphaned))

	gets := after.st.Gets - before.st.Gets
	layer("state.fast_get_ratio", ratio(int(after.st.FastGets-before.st.FastGets), int(gets)))
	layer("state.stale_get_ratio", ratio(int(after.st.StaleGets-before.st.StaleGets), int(gets)))
	layer("state.promotions", float64(after.st.Promotions-before.st.Promotions))
	layer("state.demotions", float64(after.st.Demotions-before.st.Demotions))
	layer("state.capacity_refusals", float64(after.st.CapacityRefusals-before.st.CapacityRefusals))
	layer("state.degraded_refusals", float64(after.st.DegradedRefusals-before.st.DegradedRefusals))

	layer("runtime.allocs_per_req", float64(after.mem.Mallocs-before.mem.Mallocs)/float64(max(rc, 1)))
	layer("runtime.bytes_per_req", float64(after.mem.TotalAlloc-before.mem.TotalAlloc)/float64(max(rc, 1)))
	layer("runtime.gc_cycles", float64(after.mem.NumGC-before.mem.NumGC))
	layer("runtime.gc_pause_us", float64(after.mem.PauseTotalNs-before.mem.PauseTotalNs)/1e3)
	layer("runtime.rss_mb", rss)
	layer("runtime.goroutines_max", float64(pr.goroutinesMax))

	// Step 2: the iso rows, while nothing else runs.
	iso, err := runIso(traced / 15)
	if err != nil {
		res.fail("iso rows: %v", err)
		return res
	}
	for name, v := range iso {
		layer(name, v)
	}

	// Step 3: the traced phase. The wrappers go in before the first
	// request; spans are kept only while the tracer is armed, and the
	// tracer stays armed through shutdown so the last response of every
	// connection still closes its span.
	tr := newTracer()
	r, _, err = setUp(w, tr, cfg.seed)
	if err != nil {
		res.fail("%v", err)
		return res
	}
	if clients = res.connect(r, cfg.seed); clients == nil {
		return res
	}
	phWarm = runPhase(clients, loadSpec{name: "warm-up (traced)", dur: warm, sloNS: sloNS, traced: tr})
	tr.armed.Store(true)
	open.name, open.traced = "traced", tr
	phTraced := runPhase(clients, open)
	res.notePhase(phWarm)
	res.notePhase(phTraced)
	res.finish(r, clients, phWarm, phTraced)
	tr.armed.Store(false)

	ta, tc := phTraced.totals()
	res.Attempted, res.Failed = ra+ta, (ra-rc)+(ta-tc)

	spans := tr.all()
	tf := &traceFile{
		Workload: w.name, Seed: cfg.seed, Requests: ta,
		Note: "times are ns on the benchmark's monotonic clock; client.request starts at the due time, sent_ns is the send; self_ns = span minus the part its children cover",
	}
	sum := analyze(spans, tf.collector(ta))
	if cfg.outDir != "" {
		if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
			res.fail("trace file: %v", err)
		} else {
			res.TraceFile = filepath.Join(cfg.outDir, "trace-"+w.name+".json")
			if err := writeTraceFile(res.TraceFile, tf); err != nil {
				res.fail("trace file: %v", err)
			}
		}
	}
	if sum.requests != ta {
		res.fail("traced phase: %d requests sent but %d span trees built", ta, sum.requests)
	}

	layer("cluster.handle_us.p50", sum.pct("cluster.handle", 0.50))
	layer("cluster.handle_us.p99", sum.pct("cluster.handle", 0.99))
	layer("cluster.self_us.p50", sum.pct("cluster.self", 0.50))
	layer("cluster.self_us.p99", sum.pct("cluster.self", 0.99))
	layer("gateway.serve_us.p50", sum.pct("gateway.serve", 0.50))
	layer("gateway.serve_us.p99", sum.pct("gateway.serve", 0.99))
	layer("gateway.serve_self_us.p50", sum.pct("gateway.serve_self", 0.50))
	layer("gateway.keyed_share", ratio(sum.keyedSpans, sum.gatewaySpans))
	layer("state.get_us.p50", sum.pct("state.get", 0.50))
	layer("state.get_us.p99", sum.pct("state.get", 0.99))
	layer("state.take_us.p50", sum.pct("state.take", 0.50))
	layer("state.take_us.p99", sum.pct("state.take", 0.99))
	layer("state.commit_us.p50", sum.pct("state.commit", 0.50))
	layer("state.put_us.p50", sum.pct("state.put", 0.50))
	layer("state.ops_per_req", ratio(sum.stateOps, sum.requests))
	layer("state.takes", float64(sum.takes))
	layer("state.take_conflict_ratio", ratio(sum.takeConflicts, sum.takes))

	refP50 := quiet("us", latencyWindows(phRef, 0.50), 0).Value
	if refP50 > 0 {
		layer("trace.overhead_ratio", quiet("us", latencyWindows(phTraced, 0.50), 0).Value/refP50)
	} else {
		layer("trace.overhead_ratio", 0)
	}
	layer("trace.reconcile_ratio", median(sum.reconcile))
	return res
}

// placementImbalance is max/min of the requests the dispatcher placed on
// each worker over the interval (0 without a dispatcher). In the open loop
// one request is in flight at a time, so join-the-shortest-queue always
// finds both workers empty and takes the first: the ratio then reads as the
// number of requests placed.
func placementImbalance(before, after *counters) float64 {
	if len(after.cl.WorkerState) == 0 || len(before.cl.WorkerState) != len(after.cl.WorkerState) {
		return 0
	}
	var lo, hi float64
	for i, ws := range after.cl.WorkerState {
		n := float64(ws.Dispatched - before.cl.WorkerState[i].Dispatched)
		if i == 0 || n < lo {
			lo = n
		}
		if n > hi {
			hi = n
		}
	}
	return hi / max(lo, 1) // a worker that got nothing counts as one request
}
