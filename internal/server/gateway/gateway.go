// Package gateway is the live serving path's HTTP front end: the jordd
// endpoints (POST /invoke/{fn}, GET /healthz, GET /readyz, GET /statsz,
// GET /varz) in front of the worker pool, with admission control,
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

	// Store is the shared-state tier, surfaced in /statsz and /varz.
	// nil when the daemon runs stateless.
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
	mux.HandleFunc("GET /varz", g.handleVarz)
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
	AdmitLimit int64 `json:"admit_limit"`
	AdmitMax   int64 `json:"admit_max"`
	// OpenBreakers lists functions currently quarantined (breaker open or
	// half-open). The node stays ready: other functions serve normally.
	OpenBreakers []string `json:"open_breakers,omitempty"`
	// Executors and JBSQBound size the worker for a front-end dispatcher:
	// internal/cluster auto-sizes its per-worker outstanding bound (JBSQ k)
	// to 4 x executors x jbsq — the same proportion as the worker's own
	// default admission cap, so the dispatcher saturates exactly when the
	// worker would start refusing.
	Executors int `json:"executors"`
	JBSQBound int `json:"jbsq_bound"`
}

// handleReadyz answers 200 while the node should receive traffic and 503
// while it should not (draining, or degraded by PD pressure) — always with
// the full JSON state so operators see WHICH condition tripped. Open
// breakers alone do not fail readiness: they quarantine single functions,
// not the node.
func (g *Gateway) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	cfg := g.Pool.Config().Normalized()
	doc := Readyz{
		Draining:     g.draining.Load(),
		Degraded:     g.Degraded(),
		AdmitLimit:   g.Adm.Limit(),
		AdmitMax:     g.Adm.Max(),
		OpenBreakers: g.Breakers.NotClosed(),
		Executors:    cfg.Executors,
		JBSQBound:    cfg.JBSQBound,
	}
	doc.Ready = !doc.Draining && !doc.Degraded
	w.Header().Set("Content-Type", "application/json")
	if !doc.Ready {
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(doc)
}

// FuncStatsz is one function's row in the /statsz report. Latencies are
// microseconds, measured arrival -> completion on the live path.
type FuncStatsz struct {
	Name          string `json:"name"`
	Count         uint64 `json:"count"`
	Errors        uint64 `json:"errors"`
	Watchdog      uint64 `json:"watchdog,omitempty"` // flagged past ExecTimeout
	Breaker       string `json:"breaker,omitempty"`  // closed | open | half-open
	BreakerTrips  uint64 `json:"breaker_trips,omitempty"`
	ShortCircuits uint64 `json:"short_circuits,omitempty"` // 503s served while not closed
	// ThroughputRPS is the LIFETIME average (count / uptime) — stable but
	// stale under changing load. IntervalRPS is the windowed rate since the
	// previous /statsz scrape (falls back to the lifetime average on the
	// first scrape), which is what a dashboard should plot.
	ThroughputRPS float64 `json:"throughput_rps"`
	IntervalRPS   float64 `json:"interval_rps"`
	P50Us         float64 `json:"p50_us"`
	P99Us         float64 `json:"p99_us"`
	P999Us        float64 `json:"p999_us"`
	MeanUs        float64 `json:"mean_us"`
	MaxUs         float64 `json:"max_us"`
}

// Statsz is the /statsz document.
type Statsz struct {
	UptimeSeconds float64 `json:"uptime_seconds"`
	Draining      bool    `json:"draining"`

	Inflight int64  `json:"inflight"`
	Admitted uint64 `json:"admitted"`
	Rejected uint64 `json:"rejected"` // gateway admission rejections

	// Adaptive admission: the AIMD-steered limit under the hard cap, and
	// how often each direction has fired.
	AdmitLimit     int64  `json:"admit_limit"`
	AdmitMax       int64  `json:"admit_max"`
	AdmitAdaptive  bool   `json:"admit_adaptive"`
	AdmitIncreases uint64 `json:"admit_increases,omitempty"`
	AdmitDecreases uint64 `json:"admit_decreases,omitempty"`

	// Degraded mirrors /readyz: free PDs at or below the shed threshold.
	Degraded     bool     `json:"degraded"`
	OpenBreakers []string `json:"open_breakers,omitempty"`

	PoolDispatched uint64 `json:"pool_dispatched"`
	PoolCompleted  uint64 `json:"pool_completed"`
	PoolExpired    uint64 `json:"pool_expired"`  // deadline-exceeded completions (504)
	PoolCanceled   uint64 `json:"pool_canceled"` // caller-gone completions (499)
	PoolRejected   uint64 `json:"pool_rejected"` // external-queue 429s
	PoolShed       uint64 `json:"pool_shed"`     // tiered-shedding 503s (PD pressure)
	PoolOrphaned   uint64 `json:"pool_orphaned"` // children detached at parent teardown
	PoolWatchdog   uint64 `json:"pool_watchdog"` // invocations flagged past ExecTimeout
	PoolSwept      uint64 `json:"pool_swept"`    // dead requests reaped pre-dispatch

	ExternalQueue int    `json:"external_queue_depth"`
	InternalQueue int    `json:"internal_queue_depth"`
	ExecutorQueue int    `json:"executor_queue_depth"`
	LivePDs       int    `json:"live_pds"`
	Faults        uint64 `json:"isolation_faults"`

	// State is the shared-state tier's counter snapshot (store size,
	// snapshot/promotion/ownership-transfer counters, copy-bytes-avoided);
	// absent on stateless daemons.
	State *state.Stats `json:"state,omitempty"`

	Funcs []FuncStatsz `json:"funcs"`
}

// Snapshot assembles the current stats document.
func (g *Gateway) Snapshot() Statsz {
	st := g.Pool.Stats()
	ext, internal, execQ := g.Pool.QueueDepths()
	uptime := time.Since(g.Pool.StartedAt()).Seconds()
	doc := Statsz{
		UptimeSeconds:  uptime,
		Draining:       g.draining.Load(),
		Inflight:       g.Adm.Inflight(),
		Admitted:       g.Adm.Admitted(),
		Rejected:       g.Adm.Rejected(),
		AdmitLimit:     g.Adm.Limit(),
		AdmitMax:       g.Adm.Max(),
		AdmitAdaptive:  g.Adm.Adaptive(),
		AdmitIncreases: g.Adm.Increases(),
		AdmitDecreases: g.Adm.Decreases(),
		Degraded:       g.Degraded(),
		OpenBreakers:   g.Breakers.NotClosed(),
		PoolDispatched: st.Dispatched.Load(),
		PoolCompleted:  st.Completed.Load(),
		PoolExpired:    st.Expired.Load(),
		PoolCanceled:   st.Canceled.Load(),
		PoolRejected:   st.Rejected.Load(),
		PoolShed:       st.Shed.Load(),
		PoolOrphaned:   st.Orphaned.Load(),
		PoolWatchdog:   st.Watchdog.Load(),
		PoolSwept:      st.Swept.Load(),
		ExternalQueue:  ext,
		InternalQueue:  internal,
		ExecutorQueue:  execQ,
		LivePDs:        g.Pool.Table().LivePDs(),
		Faults:         g.Pool.Table().Faults(),
	}
	if g.Store != nil {
		st := g.Store.StatsSnapshot()
		doc.State = &st
	}
	// Windowed rates: one lock per Snapshot, never on the serving path.
	now := time.Now()
	g.snapMu.Lock()
	elapsed := now.Sub(g.lastSnapAt).Seconds()
	first := g.lastSnapAt.IsZero() || elapsed <= 0
	if g.lastCounts == nil {
		g.lastCounts = make(map[string]uint64)
	}
	for _, fs := range st.Funcs() {
		snap := fs.Latency.Snapshot()
		row := FuncStatsz{
			Name:     fs.Name,
			Count:    fs.Count.Load(),
			Errors:   fs.Errors.Load(),
			Watchdog: fs.Watchdog.Load(),
			P50Us:    float64(snap.P50) / 1e3,
			P99Us:    float64(snap.P99) / 1e3,
			P999Us:   float64(snap.P999) / 1e3,
			MeanUs:   snap.Mean / 1e3,
			MaxUs:    float64(snap.Max) / 1e3,
		}
		if b := g.Breakers.For(fs.Name); b != nil {
			row.Breaker = b.State().String()
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
		g.lastCounts[fs.Name] = row.Count
		doc.Funcs = append(doc.Funcs, row)
	}
	g.lastSnapAt = now
	g.snapMu.Unlock()
	return doc
}

func (g *Gateway) handleStatsz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(g.Snapshot())
}

// Varz is the /varz document: the pool's effective configuration plus the
// runtime gauges an operator checks first when the hot path misbehaves —
// PD supply (free count vs reserve), allocation churn, and queue depths.
// Where /statsz is per-function serving metrics, /varz is the runtime's
// own internals.
type Varz struct {
	NumCPU           int     `json:"num_cpu"`    // physical parallelism available
	GOMAXPROCS       int     `json:"gomaxprocs"` // parallelism the runtime may use
	Executors        int     `json:"executors"`
	Orchestrators    int     `json:"orchestrators"`
	JBSQBound        int     `json:"jbsq_bound"`
	ExternalQueueCap int     `json:"external_queue_cap"`
	NumPDs           int     `json:"num_pds"`
	PDReserve        int     `json:"pd_reserve"`
	PDShedMargin     int     `json:"pd_shed_margin"` // 0 = tiered shedding off
	ShedThreshold    int     `json:"shed_threshold"` // free PDs <= this => degraded
	PDShards         int     `json:"pd_shards"`
	ExecTimeoutMs    float64 `json:"exec_timeout_ms"`   // 0 = watchdog off
	SweepIntervalMs  float64 `json:"sweep_interval_ms"` // <= 0 = sweeper off

	// Admission: the AIMD-steered limit (== admit_max on static gates) and
	// the controller's knobs.
	AdmitLimit      int64   `json:"admit_limit"`
	AdmitMax        int64   `json:"admit_max"`
	AdmitAdaptive   bool    `json:"admit_adaptive"`
	AdmitTargetMs   float64 `json:"admit_target_ms,omitempty"`   // queue-delay SLO
	AdmitIntervalMs float64 `json:"admit_interval_ms,omitempty"` // AIMD window

	// Breakers: shared configuration; per-function state lives in /statsz.
	BreakersEnabled   bool    `json:"breakers_enabled"`
	BreakerWindowMs   float64 `json:"breaker_window_ms,omitempty"`
	BreakerCooldownMs float64 `json:"breaker_cooldown_ms,omitempty"`
	BreakerRatio      float64 `json:"breaker_ratio,omitempty"`

	PDFree   int    `json:"pd_free"`
	PDLive   int    `json:"pd_live"`
	Cgets    uint64 `json:"cgets"`
	Cputs    uint64 `json:"cputs"`
	Faults   uint64 `json:"isolation_faults"`
	Canceled uint64 `json:"canceled"` // completions with caller gone (499)
	Expired  uint64 `json:"expired"`  // deadline-exceeded completions (504)
	Orphaned uint64 `json:"orphaned"` // children detached at parent teardown
	Watchdog uint64 `json:"watchdog"` // invocations flagged past ExecTimeout
	Swept    uint64 `json:"swept"`    // dead requests reaped pre-dispatch
	Shed     uint64 `json:"shed"`     // externals refused by tiered shedding
	Draining bool   `json:"draining"`
	Degraded bool   `json:"degraded"` // free PDs at or below shed threshold

	ExternalQueue int `json:"external_queue_depth"`
	InternalQueue int `json:"internal_queue_depth"`
	ExecutorQueue int `json:"executor_queue_depth"`

	// Shared-state tier internals (absent on stateless daemons).
	StateEnabled bool         `json:"state_enabled"`
	State        *state.Stats `json:"state,omitempty"`
}

func (g *Gateway) handleVarz(w http.ResponseWriter, _ *http.Request) {
	cfg := g.Pool.Config().Normalized()
	tab := g.Pool.Table()
	ext, internal, execQ := g.Pool.QueueDepths()
	st := g.Pool.Stats()
	doc := Varz{
		NumCPU:           runtime.NumCPU(),
		GOMAXPROCS:       runtime.GOMAXPROCS(0),
		Executors:        cfg.Executors,
		Orchestrators:    cfg.Orchestrators,
		JBSQBound:        cfg.JBSQBound,
		ExternalQueueCap: cfg.ExternalQueueCap,
		NumPDs:           cfg.NumPDs,
		PDReserve:        cfg.PDReserve,
		PDShedMargin:     cfg.PDShedMargin,
		ShedThreshold:    g.Pool.ShedThreshold(),
		PDShards:         tab.Shards(),
		ExecTimeoutMs:    float64(cfg.ExecTimeout) / 1e6,
		SweepIntervalMs:  float64(cfg.SweepInterval) / 1e6,
		AdmitLimit:       g.Adm.Limit(),
		AdmitMax:         g.Adm.Max(),
		AdmitAdaptive:    g.Adm.Adaptive(),
		AdmitTargetMs:    float64(g.Adm.Target()) / 1e6,
		AdmitIntervalMs:  float64(g.Adm.Interval()) / 1e6,
		PDFree:           tab.FreeCountExact(),
		PDLive:           tab.LivePDs(),
		Cgets:            tab.Cgets(),
		Cputs:            tab.Cputs(),
		Faults:           tab.Faults(),
		Canceled:         st.Canceled.Load(),
		Expired:          st.Expired.Load(),
		Orphaned:         st.Orphaned.Load(),
		Watchdog:         st.Watchdog.Load(),
		Swept:            st.Swept.Load(),
		Shed:             st.Shed.Load(),
		Draining:         g.draining.Load(),
		Degraded:         g.Degraded(),
		ExternalQueue:    ext,
		InternalQueue:    internal,
		ExecutorQueue:    execQ,
	}
	if g.Breakers != nil {
		bc := g.Breakers.Config()
		doc.BreakersEnabled = true
		doc.BreakerWindowMs = float64(bc.Window) / 1e6
		doc.BreakerCooldownMs = float64(bc.Cooldown) / 1e6
		doc.BreakerRatio = bc.FailureRatio
	}
	if g.Store != nil {
		doc.StateEnabled = true
		st := g.Store.StatsSnapshot()
		doc.State = &st
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(doc)
}
