// Package gateway is the live serving path's HTTP front end: the jordd
// endpoints (POST /invoke/{fn}, GET /healthz, GET /readyz, GET /statsz,
// GET /metrics) in front of the worker pool, with admission control,
// per-function circuit breakers, per-request deadlines, and drain
// awareness. It plays the role tinyFaaS-style reverse proxies and faasd's
// gateway play in single-binary FaaS daemons, but dispatches into
// in-process protection domains instead of containers.
package gateway

import (
	"encoding/json"
	"io"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"jord/internal/server/admission"
	"jord/internal/server/breaker"
	"jord/internal/server/pool"
	"jord/internal/server/router"
	"jord/internal/server/state"
)

// Gateway wires the HTTP surface to the pool.
type Gateway struct {
	Reg  *router.Registry
	Pool *pool.Pool
	Adm  *admission.Controller

	// Store is the shared-state tier, surfaced in /statsz and /metrics
	// (nil for a gateway built without one).
	Store *state.Store

	// Breakers holds one circuit breaker per registered function; a
	// function whose breaker is open answers 503 + Retry-After without
	// touching the pool. nil disables breakers entirely.
	Breakers *breaker.Set

	// Dedup is the idempotent-replay cache: a request carrying an
	// IdempotencyKeyHeader whose key already completed here is answered
	// from the recorded response without executing again (see dedup.go).
	// nil disables replay — keyed requests then execute normally.
	Dedup *DedupCache

	// RequestTimeout is the per-request deadline applied to every
	// invocation (0 = none). Requests that exceed it — queued or running —
	// answer 504.
	RequestTimeout time.Duration

	// MaxBodyBytes bounds /invoke payloads (0 = 1 MiB).
	MaxBodyBytes int64

	draining atomic.Bool

	// Interval-rate bookkeeping for /statsz: per-function completion counts
	// at the previous Snapshot, so each report carries a windowed rate
	// (delta since the last scrape) alongside the lifetime average.
	snapMu     sync.Mutex
	lastCounts map[string]uint64
	lastSnapAt time.Time
}

// SetDraining flips the health signal: while draining, /healthz answers
// 503 so load balancers stop routing here, and /invoke refuses new work.
func (g *Gateway) SetDraining(v bool) { g.draining.Store(v) }

// Draining reports the drain state.
func (g *Gateway) Draining() bool { return g.draining.Load() }

// Handler returns the gateway's HTTP mux.
func (g *Gateway) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /invoke/{fn}", g.handleInvoke)
	mux.HandleFunc("GET /healthz", g.handleHealthz)
	mux.HandleFunc("GET /readyz", g.handleReadyz)
	mux.HandleFunc("GET /statsz", g.handleStatsz)
	mux.HandleFunc("GET /tracez", g.handleTracez)
	mux.HandleFunc("GET /flightz", g.handleFlightz)
	mux.HandleFunc("GET /metrics", g.handleMetrics)
	return mux
}

// DrainingHeader marks a 503 as caused by THIS worker going away rather
// than by load. A front-end dispatcher (internal/cluster) uses it to tell
// "this node is draining — place the request on another worker" apart from
// "the fleet is saturated — pass the 503 through to the client".
const DrainingHeader = "X-Jord-Draining"

// Degraded reports whether the pool is inside its tiered-shedding band:
// the free-PD supply is at or below the shed threshold, so external
// admissions are being refused to protect internal (nested) progress.
func (g *Gateway) Degraded() bool {
	thr := g.Pool.ShedThreshold()
	return thr > 0 && g.Pool.Table().FreeCount() <= thr
}

func (g *Gateway) maxBody() int64 {
	if g.MaxBodyBytes > 0 {
		return g.MaxBodyBytes
	}
	return 1 << 20
}

// bodyPool recycles the net/http transport's request-body buffers. A
// buffer becomes the invocation's ArgBuf payload zero-copy, so it returns
// to the pool only if the invocation was not abandoned (see execute).
var bodyPool = sync.Pool{New: func() any {
	b := make([]byte, 32<<10)
	return &b
}}

// getBody returns a pooled buffer with capacity for n bytes.
func getBody(n int64) *[]byte {
	bp := bodyPool.Get().(*[]byte)
	if int64(cap(*bp)) < n {
		*bp = make([]byte, n)
	}
	return bp
}

// handleInvoke is the net/http transport of the invoke pipeline.
func (g *Gateway) handleInvoke(w http.ResponseWriter, r *http.Request) {
	inv := &invocation{
		fn:         []byte(r.PathValue("fn")),
		key:        []byte(r.Header.Get(IdempotencyKeyHeader)),
		contentLen: r.ContentLength,
		oversized:  r.ContentLength > g.maxBody(),
		w:          w,
		r:          r,
		canceled:   r.Context().Done(),
	}
	inv.startSpan(g.Pool.Trace())
	_ = g.invoke(inv)
	// The response may alias the request buffer (echo-shaped functions);
	// recycle only after the write has copied it out.
	if inv.pooled != nil {
		bodyPool.Put(inv.pooled)
	}
}

func (g *Gateway) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if g.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.WriteHeader(http.StatusOK)
	_, _ = io.WriteString(w, "ok\n")
}

// Readyz is the /readyz document: the overload-control view of the node,
// distinguishing WHY it is (or is not) taking traffic — drain (going
// away), degraded (PD pressure, shedding externals), quarantined
// functions (per-function breakers open; the node itself still serves).
type Readyz struct {
	Ready    bool `json:"ready"`
	Draining bool `json:"draining"`
	// Degraded is the tiered-shedding state: free PDs at or below the shed
	// threshold, externals refused to protect internal progress.
	Degraded bool `json:"degraded"`
	// AdmitLimit is the current (AIMD-steered) admission limit vs its cap.
	// A front-end dispatcher (internal/cluster) takes AdmitMax as its
	// per-worker outstanding bound (JBSQ k), so it saturates exactly when
	// the worker would start refusing.
	AdmitLimit int64 `json:"admit_limit"`
	AdmitMax   int64 `json:"admit_max"`
	// OpenBreakers lists functions currently quarantined (breaker open or
	// half-open). The node stays ready: other functions serve normally.
	OpenBreakers []string `json:"open_breakers,omitempty"`
	// Executors is the pool's executor count, echoed per worker in a
	// dispatcher's /workers.
	Executors int `json:"executors"`
}

// handleReadyz answers 200 while the node should receive traffic and 503
// while it should not (draining, or degraded by PD pressure) — always with
// the full JSON state so operators see WHICH condition tripped. Open
// breakers alone do not fail readiness: they quarantine single functions,
// not the node.
func (g *Gateway) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	doc := Readyz{
		Draining:     g.draining.Load(),
		Degraded:     g.Degraded(),
		AdmitLimit:   g.Adm.Limit(),
		AdmitMax:     g.Adm.Max(),
		OpenBreakers: g.Breakers.NotClosed(),
		Executors:    g.Pool.Config().Normalized().Executors,
	}
	doc.Ready = !doc.Draining && !doc.Degraded
	status := http.StatusOK
	if !doc.Ready {
		w.Header().Set("Retry-After", "1")
		status = http.StatusServiceUnavailable
	}
	WriteJSON(w, status, doc)
}

// WriteJSON answers v as indented JSON with the given status.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// Statsz is the worker's /statsz document, and the one place a scalar
// metric of this tier is declared: each field carries its JSON key, its
// kind and its help text, and /metrics is rendered from the same document
// (metrics.Families). Latencies are the per-function percentiles in Funcs;
// /metrics carries them as a summary instead.
type Statsz struct {
	UptimeSeconds float64  `json:"uptime_seconds" metric:"gauge" help:"Seconds since the pool started."`
	NumCPU        int      `json:"num_cpu" metric:"gauge" help:"Logical CPUs of the host."`
	GOMAXPROCS    int      `json:"gomaxprocs" metric:"gauge" help:"CPUs the Go runtime may use at once."`
	Draining      bool     `json:"draining" metric:"gauge" help:"1 while the daemon is draining."`
	Degraded      bool     `json:"degraded" metric:"gauge" help:"1 while tiered shedding is active: free PDs at or below shed_threshold."`
	OpenBreakers  []string `json:"open_breakers,omitempty"`

	Additive

	JBSQBound        int     `json:"jbsq_bound" metric:"gauge" help:"JBSQ bound: requests queued per executor."`
	ExternalQueueCap int     `json:"external_queue_cap" metric:"gauge" help:"Capacity of the external queue."`
	PDShedMargin     int     `json:"pd_shed_margin" metric:"gauge" help:"Free PDs above the reserve at which tiered shedding starts (0 = off)."`
	ShedThreshold    int     `json:"shed_threshold" metric:"gauge" help:"Free PDs at or below which the worker is degraded."`
	PDShards         int     `json:"pd_shards" metric:"gauge" help:"Shards of the PD table's free list."`
	ExecTimeoutMs    float64 `json:"exec_timeout_ms" metric:"gauge" help:"Watchdog threshold in ms (0 = off)."`
	SweepIntervalMs  float64 `json:"sweep_interval_ms" metric:"gauge" help:"Dead-request sweep period in ms (0 or less = off)."`

	// Adaptive admission: the AIMD-steered limit under the hard cap, how
	// often each direction has fired, and the controller's knobs.
	AdmitLimit      int64   `json:"admit_limit" metric:"gauge" help:"Current (AIMD-steered) admission limit."`
	AdmitMax        int64   `json:"admit_max" metric:"gauge" help:"Hard admission cap."`
	AdmitAdaptive   bool    `json:"admit_adaptive" metric:"gauge" help:"1 when the admission limit is AIMD-steered."`
	AdmitIncreases  uint64  `json:"admit_increases,omitempty" metric:"counter" help:"AIMD additive increases of the admission limit."`
	AdmitDecreases  uint64  `json:"admit_decreases,omitempty" metric:"counter" help:"AIMD multiplicative decreases of the admission limit."`
	AdmitTargetMs   float64 `json:"admit_target_ms,omitempty" metric:"gauge" help:"Queue-delay target of adaptive admission in ms."`
	AdmitIntervalMs float64 `json:"admit_interval_ms,omitempty" metric:"gauge" help:"AIMD window in ms."`

	// Breakers: the shared configuration; per-function state is in Funcs.
	BreakersEnabled   bool    `json:"breakers_enabled" metric:"gauge" help:"1 when per-function circuit breakers are on."`
	BreakerWindowMs   float64 `json:"breaker_window_ms,omitempty" metric:"gauge" help:"Breaker failure window in ms."`
	BreakerCooldownMs float64 `json:"breaker_cooldown_ms,omitempty" metric:"gauge" help:"Breaker open-to-half-open cooldown in ms."`
	BreakerRatio      float64 `json:"breaker_ratio,omitempty" metric:"gauge" help:"Failure ratio that trips a breaker."`

	// State is the shared-state tier's counter snapshot; absent when the
	// gateway has no store.
	StateEnabled bool         `json:"state_enabled" metric:"gauge" help:"1 when the shared-state tier is on."`
	State        *state.Stats `json:"state,omitempty"`

	Funcs []FuncStatsz `json:"funcs"`
}

// Additive is the part of a worker's /statsz whose values add up across
// workers: capacity, PD supply, in-flight work, the outcome counters and
// the queue depths. The dispatcher's /statsz carries their sum over its
// workers under the same keys.
type Additive struct {
	Executors     int    `json:"executors" metric:"gauge" help:"Executors: invocations the pool runs at once."`
	Orchestrators int    `json:"orchestrators" metric:"gauge" help:"JBSQ orchestrators feeding the executors."`
	NumPDs        int    `json:"num_pds" metric:"gauge" help:"Protection domains in the PD table."`
	PDReserve     int    `json:"pd_reserve" metric:"gauge" help:"PDs only internal (nested) invocations may take (paper section 3.3)."`
	PDFree        int    `json:"pd_free" metric:"gauge" help:"Free protection domains."`
	LivePDs       int    `json:"live_pds" metric:"gauge" help:"Live (bound) protection domains."`
	Cgets         uint64 `json:"cgets" metric:"counter" help:"PD credit-cache gets."`
	Cputs         uint64 `json:"cputs" metric:"counter" help:"PD credit-cache puts."`
	Faults        uint64 `json:"isolation_faults" metric:"counter" help:"Isolation faults detected."`

	Inflight int64  `json:"inflight" metric:"gauge" help:"Admitted requests currently in flight."`
	Admitted uint64 `json:"admitted" metric:"counter" help:"Requests admitted by the gateway."`
	Rejected uint64 `json:"rejected" metric:"counter" help:"Requests refused at the admission gate (429)."`

	PoolDispatched uint64 `json:"pool_dispatched" metric:"counter" help:"Invocations dispatched to executors."`
	PoolCompleted  uint64 `json:"pool_completed" metric:"counter" help:"Invocations completed."`
	PoolExpired    uint64 `json:"pool_expired" metric:"counter" help:"Deadline-exceeded completions (504)."`
	PoolCanceled   uint64 `json:"pool_canceled" metric:"counter" help:"Caller-gone completions (499)."`
	PoolRejected   uint64 `json:"pool_rejected" metric:"counter" help:"External-queue rejections (429)."`
	PoolShed       uint64 `json:"pool_shed" metric:"counter" help:"Externals refused by tiered shedding (503)."`
	PoolOrphaned   uint64 `json:"pool_orphaned" metric:"counter" help:"Children detached at parent teardown."`
	PoolWatchdog   uint64 `json:"pool_watchdog" metric:"counter" help:"Invocations flagged past the watchdog threshold."`
	PoolSwept      uint64 `json:"pool_swept" metric:"counter" help:"Dead requests reaped before dispatch."`

	ExternalQueue int `json:"external_queue_depth" metric:"gauge" help:"Requests waiting in the external queue."`
	InternalQueue int `json:"internal_queue_depth" metric:"gauge" help:"Nested invocations waiting in the internal queue."`
	ExecutorQueue int `json:"executor_queue_depth" metric:"gauge" help:"Invocations waiting in executor queues."`
}

// FuncStatsz is one function's row in /statsz. Latencies are
// microseconds, measured arrival -> completion on the live path.
type FuncStatsz struct {
	Name string `json:"name" metric:"label"`
	FuncCounts
	Breaker breaker.State `json:"breaker,omitempty" metric:"gauge" help:"Circuit breaker state: 0 closed, 1 open, 2 half-open."`
	// ThroughputRPS is the LIFETIME average (count / uptime) — stable but
	// stale under changing load. IntervalRPS is the windowed rate since the
	// previous /statsz read (falls back to the lifetime average on the
	// first), which is what a dashboard should plot.
	ThroughputRPS float64 `json:"throughput_rps"`
	IntervalRPS   float64 `json:"interval_rps"`
	P50Us         float64 `json:"p50_us"`
	P99Us         float64 `json:"p99_us"`
	P999Us        float64 `json:"p999_us"`
	MeanUs        float64 `json:"mean_us"`
	MaxUs         float64 `json:"max_us"`
}

// FuncCounts are a function's counters, which add up across workers.
type FuncCounts struct {
	Count         uint64 `json:"count" metric:"counter" help:"Completed invocations by function."`
	Errors        uint64 `json:"errors" metric:"counter" help:"Errored invocations by function."`
	Watchdog      uint64 `json:"watchdog,omitempty" metric:"counter" help:"Invocations flagged past the watchdog threshold, by function."`
	BreakerTrips  uint64 `json:"breaker_trips,omitempty" metric:"counter" help:"Circuit breaker trips by function."`
	ShortCircuits uint64 `json:"short_circuits,omitempty" metric:"counter" help:"Requests refused 503 while the function's breaker was not closed."`
}

// Snapshot assembles the /statsz document and starts the next
// interval_rps window.
func (g *Gateway) Snapshot() Statsz { return g.snapshot(true) }

// snapshot assembles the stats document; window says whether this read
// closes the interval_rps window. A /statsz read does; a /metrics scrape
// must not shorten it.
func (g *Gateway) snapshot(window bool) Statsz {
	cfg := g.Pool.Config().Normalized()
	tab := g.Pool.Table()
	st := g.Pool.Stats()
	uptime := time.Since(g.Pool.StartedAt()).Seconds()
	doc := Statsz{
		UptimeSeconds: uptime,
		NumCPU:        runtime.NumCPU(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		Draining:      g.draining.Load(),
		Degraded:      g.Degraded(),
		OpenBreakers:  g.Breakers.NotClosed(),
		Additive: Additive{
			Executors:      cfg.Executors,
			Orchestrators:  cfg.Orchestrators,
			NumPDs:         cfg.NumPDs,
			PDReserve:      cfg.PDReserve,
			PDFree:         tab.FreeCountExact(),
			LivePDs:        tab.LivePDs(),
			Cgets:          tab.Cgets(),
			Cputs:          tab.Cputs(),
			Faults:         tab.Faults(),
			Inflight:       g.Adm.Inflight(),
			Admitted:       g.Adm.Admitted(),
			Rejected:       g.Adm.Rejected(),
			PoolDispatched: st.Dispatched.Load(),
			PoolCompleted:  st.Completed.Load(),
			PoolExpired:    st.Expired.Load(),
			PoolCanceled:   st.Canceled.Load(),
			PoolRejected:   st.Rejected.Load(),
			PoolShed:       st.Shed.Load(),
			PoolOrphaned:   st.Orphaned.Load(),
			PoolWatchdog:   st.Watchdog.Load(),
			PoolSwept:      st.Swept.Load(),
		},
		JBSQBound:        cfg.JBSQBound,
		ExternalQueueCap: cfg.ExternalQueueCap,
		PDShedMargin:     cfg.PDShedMargin,
		ShedThreshold:    g.Pool.ShedThreshold(),
		PDShards:         tab.Shards(),
		ExecTimeoutMs:    float64(cfg.ExecTimeout) / 1e6,
		SweepIntervalMs:  float64(cfg.SweepInterval) / 1e6,
		AdmitLimit:       g.Adm.Limit(),
		AdmitMax:         g.Adm.Max(),
		AdmitAdaptive:    g.Adm.Adaptive(),
		AdmitIncreases:   g.Adm.Increases(),
		AdmitDecreases:   g.Adm.Decreases(),
		AdmitTargetMs:    float64(g.Adm.Target()) / 1e6,
		AdmitIntervalMs:  float64(g.Adm.Interval()) / 1e6,
	}
	doc.ExternalQueue, doc.InternalQueue, doc.ExecutorQueue = g.Pool.QueueDepths()
	if g.Breakers != nil {
		bc := g.Breakers.Config()
		doc.BreakersEnabled = true
		doc.BreakerWindowMs = float64(bc.Window) / 1e6
		doc.BreakerCooldownMs = float64(bc.Cooldown) / 1e6
		doc.BreakerRatio = bc.FailureRatio
	}
	if g.Store != nil {
		ss := g.Store.StatsSnapshot()
		doc.StateEnabled = true
		doc.State = &ss
	}
	// Windowed rates: one lock per snapshot, never on the serving path.
	now := time.Now()
	g.snapMu.Lock()
	defer g.snapMu.Unlock()
	elapsed := now.Sub(g.lastSnapAt).Seconds()
	first := g.lastSnapAt.IsZero() || elapsed <= 0
	if g.lastCounts == nil {
		g.lastCounts = make(map[string]uint64)
	}
	for _, fs := range st.Funcs() {
		snap := fs.Latency.Snapshot()
		row := FuncStatsz{
			Name: fs.Name,
			FuncCounts: FuncCounts{
				Count:    fs.Count.Load(),
				Errors:   fs.Errors.Load(),
				Watchdog: fs.Watchdog.Load(),
			},
			P50Us:  float64(snap.P50) / 1e3,
			P99Us:  float64(snap.P99) / 1e3,
			P999Us: float64(snap.P999) / 1e3,
			MeanUs: snap.Mean / 1e3,
			MaxUs:  float64(snap.Max) / 1e3,
		}
		if b := g.Breakers.For(fs.Name); b != nil {
			row.Breaker = b.State()
			row.BreakerTrips = b.Trips()
			row.ShortCircuits = b.ShortCircuits()
		}
		if uptime > 0 {
			row.ThroughputRPS = float64(row.Count) / uptime
		}
		if first {
			row.IntervalRPS = row.ThroughputRPS
		} else if prev := g.lastCounts[fs.Name]; row.Count >= prev {
			row.IntervalRPS = float64(row.Count-prev) / elapsed
		}
		if window {
			g.lastCounts[fs.Name] = row.Count
		}
		doc.Funcs = append(doc.Funcs, row)
	}
	if window {
		g.lastSnapAt = now
	}
	return doc
}

// handleStatsz answers the stats document. ?peek leaves the interval_rps
// window open: the dispatcher's fan-out reads that way, so its scrapes do
// not shorten the window an operator's own /statsz reads see.
func (g *Gateway) handleStatsz(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, g.snapshot(!r.URL.Query().Has("peek")))
}
