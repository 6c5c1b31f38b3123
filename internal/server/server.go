// Package server assembles the live serving subsystem (jordd): the HTTP
// gateway, admission control, and the goroutine-backed worker pool that
// runs Jord's runtime architecture — JBSQ orchestrators, suspendable
// executor continuations, internal/external queues, and privlib-style
// per-invocation ArgBuf permission transfers — against real traffic.
//
// Where internal/core executes this architecture on the deterministic
// simulation engine to reproduce the paper's numbers, this package
// executes the same architecture on the Go runtime to serve requests:
//
//	d := server.New(server.DefaultConfig())
//	d.MustRegister("echo", func(ctx router.Ctx) ([]byte, error) {
//	    return ctx.Payload(), nil
//	})
//	log.Fatal(d.ListenAndServe())
package server

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"jord/internal/server/admission"
	"jord/internal/server/breaker"
	"jord/internal/server/gateway"
	"jord/internal/server/pool"
	"jord/internal/server/router"
	"jord/internal/server/state"
	"jord/internal/server/trace"
)

// Config assembles one live worker daemon.
type Config struct {
	// Addr is the HTTP listen address (default ":8034").
	Addr string

	// Pool sizes the worker runtime (see pool.Config).
	Pool pool.Config

	// MaxInflight caps concurrently admitted external requests; beyond it
	// the gateway answers 429 immediately (0 defaults to 4× the pool's
	// executor count × JBSQ bound — enough to keep every executor queue
	// full without unbounded buffering). With adaptive admission (see
	// AdmitTarget) this is the hard ceiling the AIMD limit lives under.
	MaxInflight int

	// AdmitTarget is the queue-delay SLO of the adaptive admission
	// controller: while even the minimum gateway→executor queue delay over
	// an AdmitInterval exceeds it, the admit limit shrinks
	// multiplicatively; healthy intervals recover it additively toward
	// MaxInflight. 0 defaults to 5ms; < 0 disables the AIMD loop (static
	// MaxInflight cap only).
	AdmitTarget time.Duration

	// AdmitInterval is the AIMD evaluation window (default 100ms).
	AdmitInterval time.Duration

	// BreakerWindow is the sliding window over which per-function failures
	// (panics, blown deadlines, watchdog flags) are counted toward
	// tripping that function's circuit breaker. 0 defaults to 10s; < 0
	// disables circuit breakers entirely.
	BreakerWindow time.Duration

	// BreakerCooldown is how long a tripped breaker refuses requests
	// before admitting a half-open probe (default 2s).
	BreakerCooldown time.Duration

	// BreakerRatio is the windowed failure fraction that trips a breaker
	// (default 0.5).
	BreakerRatio float64

	// BreakerMinSamples is the minimum windowed outcome count before the
	// ratio can trip (default 20).
	BreakerMinSamples uint64

	// RequestTimeout is the per-request deadline (default 30s; <0 = none).
	RequestTimeout time.Duration

	// MaxBodyBytes bounds /invoke payloads (default 1 MiB).
	MaxBodyBytes int64

	// Edge serves HTTP through the zero-allocation edge front end
	// (gateway.Edge) instead of net/http: the POST /invoke fast path runs
	// from socket to function and back without per-request heap
	// allocations. Management endpoints behave identically (they are
	// delegated to the same handlers). net/http remains the default for
	// its wider protocol surface (HTTP/2, chunked bodies, TLS).
	Edge bool
}

// DrainTimeout bounds a graceful Shutdown whose context carries no
// deadline.
const DrainTimeout = 30 * time.Second

// DefaultConfig returns the default daemon setup.
func DefaultConfig() Config {
	return Config{
		Addr:           ":8034",
		RequestTimeout: 30 * time.Second,
	}
}

func (c *Config) normalize() {
	if c.Addr == "" {
		c.Addr = ":8034"
	}
	if c.RequestTimeout == 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.RequestTimeout < 0 {
		c.RequestTimeout = 0
	}
}

// Daemon is one live Jord worker server.
type Daemon struct {
	Cfg Config
	Reg *router.Registry

	pool  *pool.Pool
	state *state.Store
	gw    *gateway.Gateway
	http  *http.Server  // nil when Cfg.Edge
	edge  *gateway.Edge // nil unless Cfg.Edge

	addr    atomic.Value // string; set once serving
	started atomic.Bool

	// startMu orders start() against Shutdown: Serve assembles the stack
	// on its own goroutine, so a Shutdown racing with startup must wait
	// for the fields above to be fully built (or observe none of them).
	startMu sync.Mutex
}

// New builds a daemon. Register functions, then ListenAndServe or Serve.
func New(cfg Config) *Daemon {
	cfg.normalize()
	return &Daemon{Cfg: cfg, Reg: router.New()}
}

// Register deploys a function on the live path (cf. core.System.Register
// on the simulated path).
func (d *Daemon) Register(name string, body router.Body) error {
	_, err := d.Reg.Register(name, body)
	return err
}

// MustRegister is Register for static function sets.
func (d *Daemon) MustRegister(name string, body router.Body) {
	d.Reg.MustRegister(name, body)
}

// start freezes registration and builds the runtime stack: overload
// controls first (admission controller, per-function breakers), then the
// pool with its feedback hooks pointed at them, then the gateway.
func (d *Daemon) start() error {
	if !d.started.CompareAndSwap(false, true) {
		return fmt.Errorf("server: already started")
	}
	d.startMu.Lock()
	defer d.startMu.Unlock()
	pc := d.Cfg.Pool
	norm := pc.Normalized()

	// Tiered shedding defaults ON for the daemon (0 = auto-size to half
	// the PD reserve; pass < 0 to disable). The raw pool keeps it off so
	// small-PD test rigs and benchmarks see exhaustion, not shedding.
	if pc.PDShedMargin == 0 {
		pc.PDShedMargin = norm.PDReserve / 2
		if pc.PDShedMargin < 1 {
			pc.PDShedMargin = 1
		}
	}

	maxInflight := d.Cfg.MaxInflight
	if maxInflight <= 0 {
		maxInflight = 4 * norm.Executors * norm.JBSQBound
	}
	var adm *admission.Controller
	if d.Cfg.AdmitTarget < 0 {
		adm = admission.New(maxInflight)
	} else {
		// The decrease floor keeps one admitted request per executor, so
		// a collapsed limit still feeds the whole worker.
		adm = admission.NewAdaptive(maxInflight, norm.Executors, d.Cfg.AdmitTarget, d.Cfg.AdmitInterval)
		pc.ObserveQueueDelay = adm.Observe
	}

	var breakers *breaker.Set
	if d.Cfg.BreakerWindow >= 0 {
		breakers = breaker.NewSet(breaker.Config{
			Window:       d.Cfg.BreakerWindow,
			Cooldown:     d.Cfg.BreakerCooldown,
			FailureRatio: d.Cfg.BreakerRatio,
			MinSamples:   d.Cfg.BreakerMinSamples,
			// Freeze a flight-recorder incident at the moment of every trip.
			// The pool is built after this Set, so the closure reads d.pool
			// lazily; trips can only fire once traffic flows, well after
			// start() assigned it. Runs under the breaker mutex: TripBreaker
			// is rate-limited and touches only trace/atomic state.
			OnTrip: func(name string) {
				if p := d.pool; p != nil {
					if tr := p.Trace(); tr != nil {
						tr.TripBreaker(name)
					}
				}
			},
		}, d.Reg.Names())
		pc.OnWatchdog = breakers.RecordFault
	}

	p := pool.New(pc, d.Reg)
	d.pool = p

	// Shared-state tier (64 MiB, promotion after 64 reads): built between
	// pool.New and pool.Start so its dedicated PD allocates before serving
	// begins, with its mutation gate wired to the pool's tiered-shedding
	// band — state growth degrades exactly when external admission does.
	st, err := state.New(state.Config{
		Degraded: func() bool {
			thr := p.ShedThreshold()
			return thr > 0 && p.Table().FreeCount() <= thr
		},
	}, p.Table())
	if err != nil {
		return fmt.Errorf("server: building state store: %w", err)
	}
	d.state = st
	p.SetState(st)

	// Flight-recorder context: when an incident freezes (breaker trip, shed
	// burst, watchdog flag), snapshot the gauges an operator needs alongside
	// the frozen traces. Reads only atomics and lock-free views.
	if tr := p.Trace(); tr != nil {
		tr.SetFlightStats(func() trace.FlightStats {
			ext, internal, execQ := p.QueueDepths()
			ps := p.Stats()
			return trace.FlightStats{
				ExtQueue:     ext,
				IntQueue:     internal,
				ExecQueue:    execQ,
				FreePDs:      p.Table().FreeCountExact(),
				LivePDs:      p.Table().LivePDs(),
				Inflight:     adm.Inflight(),
				AdmitLimit:   int(adm.Limit()),
				Shed:         ps.Shed.Load(),
				Rejected:     ps.Rejected.Load(),
				OpenBreakers: breakers.NotClosed(),
			}
		})
	}

	p.Start()
	d.gw = &gateway.Gateway{
		Reg:            d.Reg,
		Pool:           p,
		Store:          st,
		Adm:            adm,
		Breakers:       breakers,
		Dedup:          gateway.NewDedupCache(0),
		RequestTimeout: d.Cfg.RequestTimeout,
		MaxBodyBytes:   d.Cfg.MaxBodyBytes,
	}
	if d.Cfg.Edge {
		d.edge = gateway.NewEdge(d.gw)
	} else {
		d.http = &http.Server{Handler: d.gw.Handler()}
	}
	return nil
}

// Pool exposes the worker runtime (tests, stats).
func (d *Daemon) Pool() *pool.Pool {
	d.startMu.Lock()
	defer d.startMu.Unlock()
	return d.pool
}

// State exposes the shared-state tier.
func (d *Daemon) State() *state.Store {
	d.startMu.Lock()
	defer d.startMu.Unlock()
	return d.state
}

// Gateway exposes the HTTP layer (tests, stats).
func (d *Daemon) Gateway() *gateway.Gateway {
	d.startMu.Lock()
	defer d.startMu.Unlock()
	return d.gw
}

// Edge exposes the zero-allocation front end (nil unless Config.Edge).
func (d *Daemon) Edge() *gateway.Edge {
	d.startMu.Lock()
	defer d.startMu.Unlock()
	return d.edge
}

// Addr returns the bound listen address once serving ("" before).
func (d *Daemon) Addr() string {
	if v := d.addr.Load(); v != nil {
		return v.(string)
	}
	return ""
}

// Serve runs the daemon on an existing listener until Shutdown or error.
func (d *Daemon) Serve(ln net.Listener) error {
	if err := d.start(); err != nil {
		return err
	}
	d.addr.Store(ln.Addr().String())
	if d.edge != nil {
		return d.edge.Serve(ln)
	}
	err := d.http.Serve(ln)
	if err == http.ErrServerClosed {
		return nil
	}
	return err
}

// ListenAndServe binds Config.Addr and serves until Shutdown or error.
func (d *Daemon) ListenAndServe() error {
	ln, err := net.Listen("tcp", d.Cfg.Addr)
	if err != nil {
		return err
	}
	return d.Serve(ln)
}

// Shutdown drains gracefully: flip /healthz to 503 and refuse new
// invocations, finish everything in flight (bounded by ctx, or by
// DrainTimeout when ctx has no deadline), then
// close the listener. Safe to call once serving.
func (d *Daemon) Shutdown(ctx context.Context) error {
	// Taking startMu means a concurrent start() has either fully built
	// the stack or not begun; the field snapshot below is never partial.
	d.startMu.Lock()
	gw, edge, httpSrv, p, st := d.gw, d.edge, d.http, d.pool, d.state
	d.startMu.Unlock()
	if gw == nil {
		return fmt.Errorf("server: not started")
	}
	gw.SetDraining(true)
	if _, ok := ctx.Deadline(); !ok {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, DrainTimeout)
		defer cancel()
	}
	// Stop accepting connections and wait for in-flight HTTP handlers —
	// each of which waits on its invocation — then drain the pool's
	// internal state and stop the runtime goroutines.
	if edge != nil {
		if err := edge.Shutdown(ctx); err != nil {
			return err
		}
	} else if err := httpSrv.Shutdown(ctx); err != nil {
		return err
	}
	if err := p.Drain(ctx); err != nil {
		return err
	}
	// With the pool drained no invocation can hold a state handle; closing
	// the store frees every value VMA and returns its PD to the table.
	return st.Close()
}
