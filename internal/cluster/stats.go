package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

// WorkerStatus is one worker's row in /workers and /readyz: the
// dispatcher-side view (placement state, outstanding, bound) joined with
// the last polled worker-side view.
type WorkerStatus struct {
	Addr        string `json:"addr"`
	Admittable  bool   `json:"admittable"` // JBSQ may place new work here
	Ejected     bool   `json:"ejected"`    // health verdict (auto re-admitted)
	Draining    bool   `json:"draining"`   // admin drain (sticky)
	Outstanding int64  `json:"outstanding"`
	Bound       int64  `json:"bound"`
	Dispatched  uint64 `json:"dispatched"`
	LastError   string `json:"last_error,omitempty"`
	LastPollMs  int64  `json:"last_poll_age_ms,omitempty"`

	// Worker-side /readyz echo from the last successful poll.
	WorkerReady    bool     `json:"worker_ready"`
	WorkerDegraded bool     `json:"worker_degraded,omitempty"`
	Executors      int      `json:"executors,omitempty"`
	OpenBreakers   []string `json:"open_breakers,omitempty"`
}

func (d *Dispatcher) workerStatuses() []WorkerStatus {
	ws := d.snapshot()
	out := make([]WorkerStatus, 0, len(ws))
	for _, w := range ws {
		w.mu.Lock()
		st := WorkerStatus{
			Addr:           w.addr,
			Admittable:     w.admittable(),
			Ejected:        w.ejected.Load(),
			Draining:       w.draining.Load(),
			Outstanding:    w.outstanding.Load(),
			Bound:          w.boundNow(),
			Dispatched:     w.dispatched.Load(),
			LastError:      w.lastErr,
			WorkerReady:    w.ready.Ready,
			WorkerDegraded: w.ready.Degraded,
			Executors:      w.ready.Executors,
			OpenBreakers:   w.ready.OpenBreakers,
		}
		if !w.lastPoll.IsZero() {
			st.LastPollMs = time.Since(w.lastPoll).Milliseconds()
		}
		w.mu.Unlock()
		out = append(out, st)
	}
	return out
}

// Readyz is the dispatcher's /readyz document: ready while at least one
// worker can take traffic and the dispatcher itself is not draining.
type Readyz struct {
	Ready        bool           `json:"ready"`
	Draining     bool           `json:"draining"`
	Workers      int            `json:"workers"`
	ReadyWorkers int            `json:"ready_workers"`
	WorkerState  []WorkerStatus `json:"worker_state"`
}

func (d *Dispatcher) readyzDocNow() Readyz {
	doc := Readyz{
		Draining:    d.draining.Load(),
		WorkerState: d.workerStatuses(),
	}
	doc.Workers = len(doc.WorkerState)
	for _, w := range doc.WorkerState {
		if w.Admittable {
			doc.ReadyWorkers++
		}
	}
	doc.Ready = !doc.Draining && doc.ReadyWorkers > 0
	return doc
}

func (d *Dispatcher) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	doc := d.readyzDocNow()
	w.Header().Set("Content-Type", "application/json")
	if !doc.Ready {
		retryAfter(w, time.Second)
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(doc)
}

func (d *Dispatcher) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if d.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.WriteHeader(http.StatusOK)
	_, _ = io.WriteString(w, "ok\n")
}

// workerStatsz is the subset of a worker's /statsz the dispatcher
// aggregates.
type workerStatsz struct {
	PoolDispatched uint64 `json:"pool_dispatched"`
	PoolCompleted  uint64 `json:"pool_completed"`
	PoolExpired    uint64 `json:"pool_expired"`
	PoolCanceled   uint64 `json:"pool_canceled"`
	PoolRejected   uint64 `json:"pool_rejected"`
	PoolShed       uint64 `json:"pool_shed"`
	Inflight       int64  `json:"inflight"`
	Funcs          []struct {
		Name   string `json:"name"`
		Count  uint64 `json:"count"`
		Errors uint64 `json:"errors"`
	} `json:"funcs"`
}

// FuncTotals is one function's cluster-wide completion count.
type FuncTotals struct {
	Name   string `json:"name"`
	Count  uint64 `json:"count"`
	Errors uint64 `json:"errors"`
}

// Statsz is the dispatcher's /statsz document: its own placement counters
// plus pool counters aggregated across every reachable worker. Latency
// percentiles deliberately stay per-worker (quantiles do not sum); scrape
// each worker's /statsz for those.
type Statsz struct {
	UptimeSeconds float64 `json:"uptime_seconds"`
	Draining      bool    `json:"draining"`
	Workers       int     `json:"workers"`
	ReadyWorkers  int     `json:"ready_workers"`

	Dispatched        uint64 `json:"dispatched"`
	RejectedSaturated uint64 `json:"rejected_saturated"` // dispatcher 429s: all bounds full
	RejectedNoWorkers uint64 `json:"rejected_no_workers"`
	ErrRetries        uint64 `json:"transport_retries"`
	DrainRetries      uint64 `json:"drain_retries"`
	Exhausted         uint64 `json:"exhausted"` // 503 after trying every worker
	Passthrough       uint64 `json:"passthrough_sheds"`
	Outstanding       int64  `json:"outstanding"`

	// Fault-tolerance counters (see the retry policy in invoke.go).
	UnsafeRetries   uint64 `json:"unsafe_retries"`     // same-worker idempotent replays
	Unsafe502       uint64 `json:"unsafe_bad_gateway"` // keyless post-delivery failures
	HedgesIssued    uint64 `json:"hedges_issued"`
	HedgesWon       uint64 `json:"hedges_won"`
	HedgesWasted    uint64 `json:"hedges_wasted"`
	DedupHits       uint64 `json:"dedup_hits"` // responses replayed from a worker cache
	RelayErrsWorker uint64 `json:"relay_errors_worker"`
	RelayErrsClient uint64 `json:"relay_errors_client"`
	RelayRedials    uint64 `json:"relay_redials"` // stale pooled worker conns absorbed by a fresh dial

	// Totals aggregates pool counters over workers that answered /statsz.
	Totals struct {
		PoolDispatched uint64 `json:"pool_dispatched"`
		PoolCompleted  uint64 `json:"pool_completed"`
		PoolExpired    uint64 `json:"pool_expired"`
		PoolCanceled   uint64 `json:"pool_canceled"`
		PoolRejected   uint64 `json:"pool_rejected"`
		PoolShed       uint64 `json:"pool_shed"`
		Inflight       int64  `json:"inflight"`
	} `json:"totals"`
	StatszWorkers int            `json:"statsz_workers"` // workers that answered
	Funcs         []FuncTotals   `json:"funcs"`
	WorkerState   []WorkerStatus `json:"worker_state"`
}

// fetchJSON GETs one worker endpoint into out with a short deadline.
func (d *Dispatcher) fetchJSON(base, path string, out any) error {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+path, nil)
	if err != nil {
		return err
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: %s", path, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// aggregateStatsz assembles the cluster stats document, fanning the
// /statsz scrape out to every worker concurrently.
func (d *Dispatcher) aggregateStatsz() Statsz {
	doc := Statsz{
		UptimeSeconds:     time.Since(d.started).Seconds(),
		Draining:          d.draining.Load(),
		Dispatched:        d.dispatched.Load(),
		RejectedSaturated: d.rejectedBusy.Load(),
		RejectedNoWorkers: d.rejectedDown.Load(),
		ErrRetries:        d.errRetries.Load(),
		DrainRetries:      d.drainRetries.Load(),
		Exhausted:         d.lost.Load(),
		Passthrough:       d.passthrough.Load(),
		UnsafeRetries:     d.unsafeRetries.Load(),
		Unsafe502:         d.unsafe502.Load(),
		HedgesIssued:      d.hedgesIssued.Load(),
		HedgesWon:         d.hedgesWon.Load(),
		HedgesWasted:      d.hedgesWasted.Load(),
		DedupHits:         d.dedupHits.Load(),
		RelayErrsWorker:   d.relayWorkerErrs.Load(),
		RelayErrsClient:   d.relayClientErrs.Load(),
		RelayRedials:      d.relayRedials.Load(),
		WorkerState:       d.workerStatuses(),
	}
	doc.Workers = len(doc.WorkerState)
	for _, w := range doc.WorkerState {
		doc.Outstanding += w.Outstanding
		if w.Admittable {
			doc.ReadyWorkers++
		}
	}

	ws := d.snapshot()
	var (
		mu    sync.Mutex
		funcs = map[string]*FuncTotals{}
		wg    sync.WaitGroup
	)
	for _, wk := range ws {
		wg.Add(1)
		go func(wk *worker) {
			defer wg.Done()
			var st workerStatsz
			if err := d.fetchJSON(wk.base, "/statsz", &st); err != nil {
				return
			}
			mu.Lock()
			defer mu.Unlock()
			doc.StatszWorkers++
			doc.Totals.PoolDispatched += st.PoolDispatched
			doc.Totals.PoolCompleted += st.PoolCompleted
			doc.Totals.PoolExpired += st.PoolExpired
			doc.Totals.PoolCanceled += st.PoolCanceled
			doc.Totals.PoolRejected += st.PoolRejected
			doc.Totals.PoolShed += st.PoolShed
			doc.Totals.Inflight += st.Inflight
			for _, f := range st.Funcs {
				ft := funcs[f.Name]
				if ft == nil {
					ft = &FuncTotals{Name: f.Name}
					funcs[f.Name] = ft
				}
				ft.Count += f.Count
				ft.Errors += f.Errors
			}
		}(wk)
	}
	wg.Wait()
	for _, ft := range funcs {
		doc.Funcs = append(doc.Funcs, *ft)
	}
	sort.Slice(doc.Funcs, func(i, j int) bool { return doc.Funcs[i].Name < doc.Funcs[j].Name })
	return doc
}

func (d *Dispatcher) handleStatsz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(d.aggregateStatsz())
}

// Varz is the dispatcher's /varz: enough of the worker-shaped document
// (num_cpu, gomaxprocs, executors, orchestrators) that jordload's
// per-core summary works unchanged against a cluster, with executors and
// orchestrators summed across the workers that answered.
type Varz struct {
	NumCPU        int   `json:"num_cpu"`
	GOMAXPROCS    int   `json:"gomaxprocs"`
	Executors     int   `json:"executors"`
	Orchestrators int   `json:"orchestrators"`
	Workers       int   `json:"workers"`
	VarzWorkers   int   `json:"varz_workers"` // workers that answered
	Bound         int64 `json:"jbsq_worker_bound,omitempty"`
}

func (d *Dispatcher) handleVarz(w http.ResponseWriter, _ *http.Request) {
	ws := d.snapshot()
	doc := Varz{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Workers:    len(ws),
		Bound:      int64(d.cfg.Bound),
	}
	var (
		mu sync.Mutex
		wg sync.WaitGroup
	)
	for _, wk := range ws {
		wg.Add(1)
		go func(wk *worker) {
			defer wg.Done()
			var vz struct {
				Executors     int `json:"executors"`
				Orchestrators int `json:"orchestrators"`
			}
			if err := d.fetchJSON(wk.base, "/varz", &vz); err != nil {
				return
			}
			mu.Lock()
			doc.VarzWorkers++
			doc.Executors += vz.Executors
			doc.Orchestrators += vz.Orchestrators
			mu.Unlock()
		}(wk)
	}
	wg.Wait()
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(doc)
}

// handleMetrics writes Prometheus text (format 0.0.4): the dispatcher's
// placement counters, per-worker gauges, and cluster totals aggregated
// from the workers' /statsz.
func (d *Dispatcher) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	doc := d.aggregateStatsz()
	var b strings.Builder
	metric := func(name, help, typ string) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
	}
	b2f := func(v bool) int {
		if v {
			return 1
		}
		return 0
	}
	metric("jord_dispatcher_up", "1 while the dispatcher accepts traffic.", "gauge")
	fmt.Fprintf(&b, "jord_dispatcher_up %d\n", b2f(!doc.Draining))
	metric("jord_dispatcher_workers", "Configured workers.", "gauge")
	fmt.Fprintf(&b, "jord_dispatcher_workers %d\n", doc.Workers)
	metric("jord_dispatcher_ready_workers", "Workers currently admittable.", "gauge")
	fmt.Fprintf(&b, "jord_dispatcher_ready_workers %d\n", doc.ReadyWorkers)
	metric("jord_dispatcher_dispatched_total", "Requests relayed to a worker.", "counter")
	fmt.Fprintf(&b, "jord_dispatcher_dispatched_total %d\n", doc.Dispatched)
	metric("jord_dispatcher_rejected_total", "Requests the dispatcher refused itself, by reason.", "counter")
	fmt.Fprintf(&b, "jord_dispatcher_rejected_total{reason=\"saturated\"} %d\n", doc.RejectedSaturated)
	fmt.Fprintf(&b, "jord_dispatcher_rejected_total{reason=\"no_workers\"} %d\n", doc.RejectedNoWorkers)
	fmt.Fprintf(&b, "jord_dispatcher_rejected_total{reason=\"exhausted\"} %d\n", doc.Exhausted)
	metric("jord_dispatcher_retries_total", "Re-placements after a failure, by cause.", "counter")
	fmt.Fprintf(&b, "jord_dispatcher_retries_total{cause=\"transport\"} %d\n", doc.ErrRetries)
	fmt.Fprintf(&b, "jord_dispatcher_retries_total{cause=\"drain\"} %d\n", doc.DrainRetries)
	fmt.Fprintf(&b, "jord_dispatcher_retries_total{cause=\"unsafe_same_worker\"} %d\n", doc.UnsafeRetries)
	metric("jord_dispatcher_passthrough_sheds_total", "Worker 429/503s forwarded verbatim.", "counter")
	fmt.Fprintf(&b, "jord_dispatcher_passthrough_sheds_total %d\n", doc.Passthrough)
	metric("jord_dispatcher_hedges_total", "Hedged (duplicate) placements, by result.", "counter")
	fmt.Fprintf(&b, "jord_dispatcher_hedges_total{result=\"issued\"} %d\n", doc.HedgesIssued)
	fmt.Fprintf(&b, "jord_dispatcher_hedges_total{result=\"won\"} %d\n", doc.HedgesWon)
	fmt.Fprintf(&b, "jord_dispatcher_hedges_total{result=\"wasted\"} %d\n", doc.HedgesWasted)
	metric("jord_dispatcher_dedup_hits_total", "Responses replayed from a worker idempotency cache.", "counter")
	fmt.Fprintf(&b, "jord_dispatcher_dedup_hits_total %d\n", doc.DedupHits)
	metric("jord_dispatcher_unsafe_bad_gateway_total", "Keyless post-delivery failures surfaced as 502.", "counter")
	fmt.Fprintf(&b, "jord_dispatcher_unsafe_bad_gateway_total %d\n", doc.Unsafe502)
	metric("jord_dispatcher_relay_errors_total", "Relay failures after the response head, by failing side.", "counter")
	fmt.Fprintf(&b, "jord_dispatcher_relay_errors_total{side=\"worker\"} %d\n", doc.RelayErrsWorker)
	fmt.Fprintf(&b, "jord_dispatcher_relay_errors_total{side=\"client\"} %d\n", doc.RelayErrsClient)
	metric("jord_dispatcher_relay_redials_total", "Failures on a reused worker connection absorbed by one fresh dial.", "counter")
	fmt.Fprintf(&b, "jord_dispatcher_relay_redials_total %d\n", doc.RelayRedials)

	metric("jord_dispatcher_worker_outstanding", "Outstanding requests per worker (JBSQ queue).", "gauge")
	for _, ws := range doc.WorkerState {
		fmt.Fprintf(&b, "jord_dispatcher_worker_outstanding{worker=%q} %d\n", ws.Addr, ws.Outstanding)
	}
	metric("jord_dispatcher_worker_bound", "JBSQ outstanding bound per worker.", "gauge")
	for _, ws := range doc.WorkerState {
		fmt.Fprintf(&b, "jord_dispatcher_worker_bound{worker=%q} %d\n", ws.Addr, ws.Bound)
	}
	metric("jord_dispatcher_worker_ready", "1 while the worker is admittable.", "gauge")
	for _, ws := range doc.WorkerState {
		fmt.Fprintf(&b, "jord_dispatcher_worker_ready{worker=%q} %d\n", ws.Addr, b2f(ws.Admittable))
	}
	metric("jord_dispatcher_worker_dispatched_total", "Requests relayed, per worker.", "counter")
	for _, ws := range doc.WorkerState {
		fmt.Fprintf(&b, "jord_dispatcher_worker_dispatched_total{worker=%q} %d\n", ws.Addr, ws.Dispatched)
	}

	metric("jord_cluster_pool_completed_total", "Invocations completed, summed across workers.", "counter")
	fmt.Fprintf(&b, "jord_cluster_pool_completed_total %d\n", doc.Totals.PoolCompleted)
	metric("jord_cluster_pool_shed_total", "Tiered-shedding refusals, summed across workers.", "counter")
	fmt.Fprintf(&b, "jord_cluster_pool_shed_total %d\n", doc.Totals.PoolShed)
	metric("jord_cluster_pool_rejected_total", "External-queue rejections, summed across workers.", "counter")
	fmt.Fprintf(&b, "jord_cluster_pool_rejected_total %d\n", doc.Totals.PoolRejected)
	metric("jord_cluster_inflight", "Admitted in-flight requests, summed across workers.", "gauge")
	fmt.Fprintf(&b, "jord_cluster_inflight %d\n", doc.Totals.Inflight)
	metric("jord_cluster_function_invocations_total", "Completed invocations by function, summed across workers.", "counter")
	for _, f := range doc.Funcs {
		fmt.Fprintf(&b, "jord_cluster_function_invocations_total{fn=%q} %d\n", f.Name, f.Count)
	}

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = io.WriteString(w, b.String())
}

// --- admin handlers -------------------------------------------------

func (d *Dispatcher) handleWorkers(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(d.workerStatuses())
}

func adminAddr(w http.ResponseWriter, r *http.Request) (string, bool) {
	addr := strings.TrimSpace(r.URL.Query().Get("addr"))
	if addr == "" {
		http.Error(w, "missing ?addr=host:port", http.StatusBadRequest)
		return "", false
	}
	return addr, true
}

func (d *Dispatcher) handleWorkerAdd(w http.ResponseWriter, r *http.Request) {
	addr, ok := adminAddr(w, r)
	if !ok {
		return
	}
	if err := d.AddWorker(addr); err != nil {
		http.Error(w, err.Error(), http.StatusConflict)
		return
	}
	fmt.Fprintf(w, "added %s\n", addr)
}

func (d *Dispatcher) handleWorkerDrain(w http.ResponseWriter, r *http.Request) {
	addr, ok := adminAddr(w, r)
	if !ok {
		return
	}
	if r.URL.Query().Get("resume") != "" {
		if err := d.ResumeWorker(addr); err != nil {
			http.Error(w, err.Error(), http.StatusNotFound)
			return
		}
		fmt.Fprintf(w, "resumed %s\n", addr)
		return
	}
	n, err := d.DrainWorker(addr)
	if err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	fmt.Fprintf(w, "draining %s (%d outstanding)\n", addr, n)
}

func (d *Dispatcher) handleWorkerRemove(w http.ResponseWriter, r *http.Request) {
	addr, ok := adminAddr(w, r)
	if !ok {
		return
	}
	force := r.URL.Query().Get("force") != ""
	if err := d.RemoveWorker(addr, force); err != nil {
		status := http.StatusNotFound
		if strings.Contains(err.Error(), "outstanding") {
			status = http.StatusConflict
		}
		http.Error(w, err.Error(), status)
		return
	}
	fmt.Fprintf(w, "removed %s\n", addr)
}
