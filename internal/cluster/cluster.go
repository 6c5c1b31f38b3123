// Package cluster is the front-end dispatcher tier: one process that
// spreads POST /invoke/{fn} across N jordd workers over real sockets,
// using the same placement policy the paper's orchestrators use one level
// down — JBSQ(k), join-the-bounded-shortest-queue. Each worker gets a
// bounded number of outstanding dispatcher requests (k); a new request
// joins the ready worker with the fewest outstanding, and when every
// worker is at its bound the dispatcher answers 429 with Retry-After
// instead of buffering unboundedly. This mirrors tinyFaaS's rproxy /
// faasd's gateway shape — a thin, health-aware reverse-proxy in front of
// single-node FaaS daemons — with Jord's queue-bounding discipline.
//
// Health awareness rides the workers' own overload surface: the
// dispatcher polls each worker's /readyz (which jordd already exposes,
// distinguishing draining / degraded / breaker state) and ejects workers
// that stop being ready, re-admitting them when they recover. Transport
// failures eject passively and immediately. A 503 carrying the gateway's
// X-Jord-Draining marker means THAT worker is going away — the request is
// re-placed on another worker instead of surfacing the 503 — while plain
// 429/503s (saturation, degradation) are forwarded verbatim, Retry-After
// included: overload policy belongs to the workers, not the proxy.
//
// Workers can be drained and replaced at runtime without dropping
// in-flight requests: drain stops new placement while outstanding
// requests finish, remove refuses until the worker is idle, and add
// admits a fresh worker into the JBSQ scan.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"jord/internal/jbsq"
	"jord/internal/server/gateway"
)

// DefaultBound is the per-worker outstanding bound used until the
// worker's /readyz reveals its real capacity (see Config.Bound).
const DefaultBound = 64

// DefaultHealthInterval is the /readyz polling period when
// Config.HealthInterval is 0.
const DefaultHealthInterval = 250 * time.Millisecond

// Config assembles one dispatcher.
type Config struct {
	// Workers is the initial worker set, as host:port addresses.
	Workers []string

	// Bound is JBSQ's k: the max outstanding dispatcher requests per
	// worker. 0 takes each worker's admission cap (admit_max in its
	// /readyz), so the dispatcher saturates exactly when the worker would
	// start refusing (DefaultBound until the first successful poll).
	Bound int

	// HealthInterval is the /readyz polling period (default 250ms;
	// < 0 disables active polling — passive ejection still applies, but
	// nothing re-admits an ejected worker, so only tests want this).
	HealthInterval time.Duration

	// RequestTimeout bounds one client request end to end, including
	// re-placement attempts (default 60s; < 0 = none).
	RequestTimeout time.Duration

	// MaxBodyBytes bounds /invoke payloads (default 1 MiB). Bodies are
	// buffered — that is what makes re-placement after a worker failure
	// possible — so the bound is also the dispatcher's memory guard.
	MaxBodyBytes int64

	// Dial opens a connection to a worker for the invoke relay (default: a
	// plain TCP dial). It is the seam where the relay touches the network:
	// chaos.Dialer plugs in here and hands back fault-injecting
	// connections. Health polls and the /statsz fan-out do not go through
	// it.
	Dial func(ctx context.Context, addr string) (net.Conn, error)

	// Hedge enables tail-latency hedging: when the first placement has
	// not answered within the function's adaptive hedge delay (50ms until
	// enough latency samples exist, then its clamped p95), a duplicate is
	// placed on a second worker and the first response wins. The
	// idempotency key every request carries keeps the duplicate from
	// executing twice.
	Hedge bool
}

func (c *Config) normalize() {
	if c.HealthInterval == 0 {
		c.HealthInterval = DefaultHealthInterval
	}
	if c.RequestTimeout == 0 {
		c.RequestTimeout = 60 * time.Second
	}
	if c.RequestTimeout < 0 {
		c.RequestTimeout = 0
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.Dial == nil {
		c.Dial = func(ctx context.Context, addr string) (net.Conn, error) {
			var nd net.Dialer
			return nd.DialContext(ctx, "tcp", addr)
		}
	}
}

// worker is one jordd behind the dispatcher.
type worker struct {
	addr    string
	base    string // "http://" + addr, for the health and stats fetches
	headMid string // the invoke request head between the function name and the body length

	outstanding atomic.Int64  // dispatcher requests currently placed here
	dispatched  atomic.Uint64 // lifetime placements
	bound       atomic.Int64  // current k (0 = DefaultBound, pre-poll)

	// ejected is the health verdict: true while the worker must not
	// receive new work (failed /readyz, transport error, drain marker).
	// The health loop owns re-admission.
	ejected atomic.Bool
	// ejectEpoch counts passive ejections. A /readyz poll captures the
	// epoch before its round-trip and discards a READY verdict when the
	// epoch moved underneath it — otherwise a poll that raced a passive
	// ejection would re-admit a worker that just dropped a connection.
	ejectEpoch atomic.Uint64
	// draining is the ADMIN verdict (drain/replace workflow): no new
	// work, never auto-re-admitted. Orthogonal to ejected.
	draining atomic.Bool

	mu       sync.Mutex
	lastErr  string
	lastPoll time.Time
	ready    gateway.Readyz // last successfully decoded /readyz

	// idle is the LIFO pool of kept-alive relay connections (relay.go).
	connMu sync.Mutex
	idle   []*relayConn
	gone   bool // removed from the set: returning connections are closed
}

func (w *worker) boundNow() int64 {
	if b := w.bound.Load(); b > 0 {
		return b
	}
	return DefaultBound
}

// eject takes the worker out of placement on a passive signal (transport
// failure, drain-marked 503, relay break), bumping the epoch so an
// in-flight health poll cannot immediately re-admit it on stale evidence.
// Its pooled connections are suspect too and go with it.
func (w *worker) eject(err error) {
	w.ejectEpoch.Add(1)
	w.ejected.Store(true)
	w.setErr(err)
	w.closeIdle(false)
}

func (w *worker) setErr(err error) {
	w.mu.Lock()
	if err != nil {
		w.lastErr = err.Error()
	} else {
		w.lastErr = ""
	}
	w.mu.Unlock()
}

// admittable reports whether JBSQ may place new work here at all
// (independent of the outstanding bound).
func (w *worker) admittable() bool {
	return !w.ejected.Load() && !w.draining.Load()
}

// Dispatcher spreads invocations across the worker set.
type Dispatcher struct {
	cfg    Config
	client *http.Client // health polls and the stats fan-out; never an invoke

	mu      sync.RWMutex
	workers []*worker

	draining atomic.Bool
	started  time.Time

	// Stats. dispatched counts successful placements (a response was
	// relayed); rejectedBusy is the dispatcher's own 429 (every ready
	// worker at its bound); rejectedDown its own 503 (no ready worker);
	// errRetries / drainRetries are re-placements after a transport error
	// / a draining worker's marked 503; lost counts requests that ran out
	// of workers after at least one attempt (relayed as 503).
	dispatched   atomic.Uint64
	rejectedBusy atomic.Uint64
	rejectedDown atomic.Uint64
	errRetries   atomic.Uint64
	drainRetries atomic.Uint64
	lost         atomic.Uint64
	passthrough  atomic.Uint64 // worker 429/503s forwarded verbatim

	// Fault-tolerance counters. unsafeRetries are same-worker idempotent
	// replays after a post-delivery break. dedupHits counts responses the
	// winning worker replayed from its idempotency cache. relay*Errs split
	// mid-relay failures by which side broke.
	unsafeRetries   atomic.Uint64
	hedgesIssued    atomic.Uint64
	hedgesWon       atomic.Uint64
	hedgesWasted    atomic.Uint64
	dedupHits       atomic.Uint64
	relayWorkerErrs atomic.Uint64
	relayClientErrs atomic.Uint64
	// relayRedials counts failures on a reused worker connection that one
	// fresh dial absorbed (the worker had closed it: a restart, usually).
	relayRedials atomic.Uint64

	hedge *hedgeTracker

	healthStop chan struct{}
	healthDone chan struct{}
}

// New builds a dispatcher over the configured worker set. Call Start to
// begin health polling, and serve Handler() on a listener.
func New(cfg Config) *Dispatcher {
	cfg.normalize()
	d := &Dispatcher{cfg: cfg, client: &http.Client{Transport: &http.Transport{}}, started: time.Now(), hedge: newHedgeTracker()}
	for _, addr := range cfg.Workers {
		d.workers = append(d.workers, d.newWorker(addr))
	}
	return d
}

func (d *Dispatcher) newWorker(addr string) *worker {
	w := &worker{addr: addr, base: "http://" + addr,
		headMid: " HTTP/1.1\r\nHost: " + addr + "\r\nContent-Length: "}
	if d.cfg.Bound > 0 {
		w.bound.Store(int64(d.cfg.Bound))
	}
	return w
}

// Start launches the health loop (no-op when HealthInterval < 0).
func (d *Dispatcher) Start() {
	if d.cfg.HealthInterval < 0 || d.healthStop != nil {
		return
	}
	d.healthStop = make(chan struct{})
	d.healthDone = make(chan struct{})
	go d.healthLoop()
}

// Stop ends the health loop and closes the idle worker connections.
// In-flight forwards are unaffected; callers stop traffic via their HTTP
// server's Shutdown.
func (d *Dispatcher) Stop() {
	if d.healthStop != nil {
		close(d.healthStop)
		<-d.healthDone
		d.healthStop = nil
		d.healthDone = nil
	}
	for _, w := range d.snapshot() {
		w.closeIdle(false)
	}
	d.client.CloseIdleConnections()
}

// SetDraining flips the dispatcher-level drain signal: /invoke refuses
// new work with a marked 503 and /healthz goes 503, while in-flight
// forwards finish under the HTTP server's own Shutdown.
func (d *Dispatcher) SetDraining(v bool) { d.draining.Store(v) }

// snapshot returns the current worker slice (copy-on-write: safe to
// iterate without the lock).
func (d *Dispatcher) snapshot() []*worker {
	d.mu.RLock()
	ws := d.workers
	d.mu.RUnlock()
	return ws
}

// Handler returns the dispatcher's HTTP surface.
func (d *Dispatcher) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /invoke/{fn}", d.handleInvoke)
	mux.HandleFunc("GET /healthz", d.handleHealthz)
	mux.HandleFunc("GET /readyz", d.handleReadyz)
	mux.HandleFunc("GET /statsz", d.handleStatsz)
	mux.HandleFunc("GET /metrics", d.handleMetrics)
	mux.HandleFunc("GET /workers", d.handleWorkers)
	mux.HandleFunc("POST /workers/add", d.handleWorkerAdd)
	mux.HandleFunc("POST /workers/drain", d.handleWorkerDrain)
	mux.HandleFunc("POST /workers/remove", d.handleWorkerRemove)
	return mux
}

// retryAfter mirrors the worker gateway's hint: whole seconds, minimum 1.
func retryAfter(w http.ResponseWriter, d time.Duration) {
	secs := int64((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
}

// pick runs the JBSQ(k) scan: among admittable workers that skip does not
// exclude, reserve a slot on the one with the fewest outstanding requests.
// The scan starts at a random worker, so ties spread across the fleet.
// Returns the reserved worker (caller MUST release via outstanding.Add(-1))
// or nil with anyReady reporting whether ANY admittable worker exists (429
// vs 503 at the caller).
func (d *Dispatcher) pick(skip func(*worker) bool) (wk *worker, anyReady bool) {
	ws := d.snapshot()
	// The scan-then-reserve pair races with concurrent picks; a failed
	// reservation rescans. Bounded so pathological contention degrades to
	// "busy" instead of spinning.
	for rescan := 0; rescan < 4 && len(ws) > 0; rescan++ {
		anyReady = false
		i := jbsq.Pick(len(ws), rand.IntN(len(ws)), func(i int) (int64, int64, bool) {
			w := ws[i]
			if !w.admittable() {
				return 0, 0, false
			}
			anyReady = true
			return w.outstanding.Load(), w.boundNow(), !skip(w)
		})
		if i < 0 {
			return nil, anyReady
		}
		if wk = ws[i]; wk.outstanding.Add(1) <= wk.boundNow() {
			return wk, true
		}
		wk.outstanding.Add(-1) // lost the reservation race
	}
	return nil, anyReady
}

// AddWorker admits a new worker into the JBSQ scan. It starts admittable
// and is probed at the next health tick.
func (d *Dispatcher) AddWorker(addr string) error {
	addr = strings.TrimSpace(addr)
	if addr == "" {
		return errors.New("cluster: empty worker address")
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, w := range d.workers {
		if w.addr == addr {
			return fmt.Errorf("cluster: worker %s already present", addr)
		}
	}
	ws := make([]*worker, len(d.workers), len(d.workers)+1)
	copy(ws, d.workers)
	d.workers = append(ws, d.newWorker(addr))
	return nil
}

// DrainWorker stops new placement on a worker; outstanding requests
// finish normally. Returns the outstanding count at the time of the call
// so operators can poll for idleness before RemoveWorker.
func (d *Dispatcher) DrainWorker(addr string) (outstanding int64, err error) {
	w := d.find(addr)
	if w == nil {
		return 0, fmt.Errorf("cluster: unknown worker %s", addr)
	}
	w.draining.Store(true)
	return w.outstanding.Load(), nil
}

// ResumeWorker clears a worker's admin drain.
func (d *Dispatcher) ResumeWorker(addr string) error {
	w := d.find(addr)
	if w == nil {
		return fmt.Errorf("cluster: unknown worker %s", addr)
	}
	w.draining.Store(false)
	return nil
}

// RemoveWorker takes a worker out of the set. Unless force is set it
// refuses while requests are still outstanding — drain first, poll, then
// remove, and no in-flight request is ever dropped.
func (d *Dispatcher) RemoveWorker(addr string, force bool) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	for i, w := range d.workers {
		if w.addr != addr {
			continue
		}
		if n := w.outstanding.Load(); n > 0 && !force {
			return fmt.Errorf("cluster: worker %s has %d outstanding requests (drain first, or force)", addr, n)
		}
		ws := make([]*worker, 0, len(d.workers)-1)
		ws = append(ws, d.workers[:i]...)
		ws = append(ws, d.workers[i+1:]...)
		d.workers = ws
		w.closeIdle(true)
		return nil
	}
	return fmt.Errorf("cluster: unknown worker %s", addr)
}

func (d *Dispatcher) find(addr string) *worker {
	for _, w := range d.snapshot() {
		if w.addr == addr {
			return w
		}
	}
	return nil
}

// Workers lists addresses in scan order (tests, admin).
func (d *Dispatcher) Workers() []string {
	ws := d.snapshot()
	out := make([]string, len(ws))
	for i, w := range ws {
		out[i] = w.addr
	}
	sort.Strings(out)
	return out
}
