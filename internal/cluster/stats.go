package cluster

import (
	"bytes"
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

	"jord/internal/metrics"
	"jord/internal/server/gateway"
)

// WorkerStatus is one worker's row in /workers and /readyz: the
// dispatcher-side view (placement state, outstanding, bound) joined with
// the last polled worker-side view.
type WorkerStatus struct {
	Addr        string `json:"addr" metric:"label"`
	Admittable  bool   `json:"admittable" metric:"gauge" help:"1 while JBSQ may place new work on the worker."`
	Ejected     bool   `json:"ejected" metric:"gauge" help:"1 while the health verdict keeps the worker out (re-admitted automatically)."`
	Draining    bool   `json:"draining" metric:"gauge" help:"1 while an admin drain keeps the worker out (sticky)."`
	Outstanding int64  `json:"outstanding" metric:"gauge" help:"Dispatcher requests outstanding on the worker: its JBSQ queue."`
	Bound       int64  `json:"bound" metric:"gauge" help:"The worker's JBSQ outstanding bound."`
	Dispatched  uint64 `json:"dispatched" metric:"counter" help:"Requests relayed to the worker."`
	LastError   string `json:"last_error,omitempty"`
	LastPollMs  int64  `json:"last_poll_age_ms,omitempty" metric:"gauge" help:"Milliseconds since the worker's last /readyz poll."`

	// Worker-side /readyz echo from the last successful poll.
	WorkerReady    bool     `json:"worker_ready" metric:"gauge" help:"1 while the worker's own /readyz said ready at the last poll."`
	WorkerDegraded bool     `json:"worker_degraded,omitempty" metric:"gauge" help:"1 while the worker reported tiered shedding at the last poll."`
	Executors      int      `json:"executors,omitempty" metric:"gauge" help:"Executors the worker reported at the last poll."`
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
	Ready        bool           `json:"ready" metric:"gauge" help:"1 while the dispatcher takes traffic: not draining, a worker admittable."`
	Draining     bool           `json:"draining" metric:"gauge" help:"1 while the dispatcher is draining."`
	Workers      int            `json:"workers" metric:"gauge" help:"Workers in the set."`
	ReadyWorkers int            `json:"ready_workers" metric:"gauge" help:"Workers currently admittable."`
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
	status := http.StatusOK
	if !doc.Ready {
		retryAfter(w, time.Second)
		status = http.StatusServiceUnavailable
	}
	gateway.WriteJSON(w, status, doc)
}

func (d *Dispatcher) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if d.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.WriteHeader(http.StatusOK)
	_, _ = io.WriteString(w, "ok\n")
}

// FuncTotals is one function's counters summed across the workers.
type FuncTotals struct {
	Name string `json:"name" metric:"label"`
	gateway.FuncCounts
}

// Statsz is the dispatcher's /statsz document, and the one place a scalar
// metric of this tier is declared (see gateway.Statsz): the /readyz view,
// the dispatcher's own placement counters, and the workers' additive
// values summed over those that answered, under the workers' own keys.
// Latency percentiles stay per worker (quantiles do not sum); scrape each
// worker's /statsz for those.
type Statsz struct {
	Readyz
	UptimeSeconds float64 `json:"uptime_seconds" metric:"gauge" help:"Seconds since the dispatcher started."`
	NumCPU        int     `json:"num_cpu" metric:"gauge" help:"Logical CPUs of the dispatcher's host."`
	GOMAXPROCS    int     `json:"gomaxprocs" metric:"gauge" help:"CPUs the dispatcher's Go runtime may use at once."`
	Bound         int64   `json:"jbsq_worker_bound,omitempty" metric:"gauge" help:"Configured per-worker JBSQ bound; 0 sizes each worker from its /readyz."`

	Dispatched        uint64 `json:"dispatched" metric:"counter" help:"Requests relayed to a worker."`
	RejectedSaturated uint64 `json:"rejected_saturated" metric:"counter" help:"Dispatcher 429s: every ready worker at its bound."`
	RejectedNoWorkers uint64 `json:"rejected_no_workers" metric:"counter" help:"Dispatcher 503s: no ready worker."`
	ErrRetries        uint64 `json:"transport_retries" metric:"counter" help:"Re-placements after a transport error."`
	DrainRetries      uint64 `json:"drain_retries" metric:"counter" help:"Re-placements after a draining worker's marked 503."`
	Exhausted         uint64 `json:"exhausted" metric:"counter" help:"503s after trying every worker."`
	Passthrough       uint64 `json:"passthrough_sheds" metric:"counter" help:"Worker 429/503s forwarded verbatim."`
	Outstanding       int64  `json:"outstanding" metric:"gauge" help:"Dispatcher requests outstanding across all workers."`

	// Fault-tolerance counters (see the retry policy in invoke.go).
	UnsafeRetries   uint64 `json:"unsafe_retries" metric:"counter" help:"Same-worker idempotent replays after a post-delivery break."`
	HedgesIssued    uint64 `json:"hedges_issued" metric:"counter" help:"Hedged (duplicate) placements issued."`
	HedgesWon       uint64 `json:"hedges_won" metric:"counter" help:"Hedges whose response won."`
	HedgesWasted    uint64 `json:"hedges_wasted" metric:"counter" help:"Hedges whose response lost."`
	DedupHits       uint64 `json:"dedup_hits" metric:"counter" help:"Responses replayed from a worker idempotency cache."`
	RelayErrsWorker uint64 `json:"relay_errors_worker" metric:"counter" help:"Relay failures after the response head on the worker side."`
	RelayErrsClient uint64 `json:"relay_errors_client" metric:"counter" help:"Relay failures after the response head on the client side."`
	RelayRedials    uint64 `json:"relay_redials" metric:"counter" help:"Failures on a reused worker connection absorbed by one fresh dial."`

	StatszWorkers int `json:"statsz_workers" metric:"gauge" help:"Workers that answered this /statsz fan-out."`
	gateway.Additive
	Funcs []FuncTotals `json:"funcs"`
}

// maxWorkerDoc bounds how much of a worker's /readyz or /statsz answer the
// dispatcher reads: a confused (or malicious) worker must not be able to
// balloon the poller or the stats fan-out with an unbounded document.
const maxWorkerDoc = 256 << 10

// fetchJSON GETs one worker document into out. Any status counts if its
// body decodes: the gateway answers /readyz with its document on 503 too.
func (d *Dispatcher) fetchJSON(base, path string, timeout time.Duration, out any) error {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
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
	if err := json.NewDecoder(io.LimitReader(resp.Body, maxWorkerDoc)).Decode(out); err != nil {
		return fmt.Errorf("decoding %s: %w", path, err)
	}
	return nil
}

// aggregateStatsz assembles the cluster stats document, fanning a /statsz
// peek (one that leaves interval_rps alone) out to every worker at once.
func (d *Dispatcher) aggregateStatsz() Statsz {
	doc := Statsz{
		Readyz:            d.readyzDocNow(),
		UptimeSeconds:     time.Since(d.started).Seconds(),
		NumCPU:            runtime.NumCPU(),
		GOMAXPROCS:        runtime.GOMAXPROCS(0),
		Bound:             int64(d.cfg.Bound),
		Dispatched:        d.dispatched.Load(),
		RejectedSaturated: d.rejectedBusy.Load(),
		RejectedNoWorkers: d.rejectedDown.Load(),
		ErrRetries:        d.errRetries.Load(),
		DrainRetries:      d.drainRetries.Load(),
		Exhausted:         d.lost.Load(),
		Passthrough:       d.passthrough.Load(),
		UnsafeRetries:     d.unsafeRetries.Load(),
		HedgesIssued:      d.hedgesIssued.Load(),
		HedgesWon:         d.hedgesWon.Load(),
		HedgesWasted:      d.hedgesWasted.Load(),
		DedupHits:         d.dedupHits.Load(),
		RelayErrsWorker:   d.relayWorkerErrs.Load(),
		RelayErrsClient:   d.relayClientErrs.Load(),
		RelayRedials:      d.relayRedials.Load(),
	}
	for _, w := range doc.WorkerState {
		doc.Outstanding += w.Outstanding
	}

	var (
		mu    sync.Mutex
		funcs = map[string]*FuncTotals{}
		wg    sync.WaitGroup
	)
	for _, wk := range d.snapshot() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var st gateway.Statsz
			if err := d.fetchJSON(wk.base, "/statsz?peek", 2*time.Second, &st); err != nil {
				return
			}
			mu.Lock()
			defer mu.Unlock()
			doc.StatszWorkers++
			metrics.Add(&doc.Additive, &st.Additive)
			for _, f := range st.Funcs {
				ft := funcs[f.Name]
				if ft == nil {
					ft = &FuncTotals{Name: f.Name}
					funcs[f.Name] = ft
				}
				metrics.Add(&ft.FuncCounts, &f.FuncCounts)
			}
		}()
	}
	wg.Wait()
	for _, ft := range funcs {
		doc.Funcs = append(doc.Funcs, *ft)
	}
	sort.Slice(doc.Funcs, func(i, j int) bool { return doc.Funcs[i].Name < doc.Funcs[j].Name })
	return doc
}

func (d *Dispatcher) handleStatsz(w http.ResponseWriter, _ *http.Request) {
	gateway.WriteJSON(w, http.StatusOK, d.aggregateStatsz())
}

// handleMetrics renders the /statsz document in the Prometheus text
// format (0.0.4) through the shared encoder.
func (d *Dispatcher) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	var b bytes.Buffer
	metrics.WriteFamilies(&b, metrics.Families("jord_dispatcher", d.aggregateStatsz()))
	w.Header().Set("Content-Type", metrics.TextContentType)
	_, _ = w.Write(b.Bytes())
}

// --- admin handlers -------------------------------------------------

func (d *Dispatcher) handleWorkers(w http.ResponseWriter, _ *http.Request) {
	gateway.WriteJSON(w, http.StatusOK, d.workerStatuses())
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
