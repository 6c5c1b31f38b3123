package pool

import (
	"context"
	"errors"
	"math/rand/v2"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"jord/internal/mem/vmatable"
	"jord/internal/metrics"
	"jord/internal/server/router"
	"jord/internal/server/trace"
)

// Errors returned by the external invoke path. The gateway maps them onto
// HTTP statuses (429 / 404 / 503).
var (
	// ErrSaturated means the target orchestrator's external queue is at
	// capacity — the admission-control backpressure signal.
	ErrSaturated = errors.New("pool: saturated: external queue full")
	// ErrUnknownFunction means no function is registered under the name.
	ErrUnknownFunction = errors.New("pool: unknown function")
	// ErrDraining means the pool no longer accepts external work.
	ErrDraining = errors.New("pool: draining")
	// ErrDegraded means tiered shedding refused an external request because
	// the free-PD count is within PDShedMargin of the internal reserve —
	// the worker keeps its last PDs for the nested calls that suspended
	// parents are waiting on, and degrades EXTERNAL service first (the
	// §3.3 invariant extended from "never deadlock" to "degrade external
	// before internal"). The gateway answers 429 with Retry-After.
	ErrDegraded = errors.New("pool: degraded: protection-domain supply near internal reserve")
	// ErrPanicked wraps the error of an invocation whose body panicked, so
	// the gateway (and circuit breakers) can tell a crash from a function
	// that merely returned an error.
	ErrPanicked = errors.New("pool: function panicked")
	// ErrNoState means a body used a Ctx.State* accessor on a pool with no
	// shared-state store attached (SetState was never called).
	ErrNoState = errors.New("pool: no shared-state store configured")
)

// StateBackend is the runtime's view of the shared-state tier
// (internal/server/state.Store): permission-checked KV operations keyed by
// the calling invocation's protection domain. The pool depends only on
// this interface so the state package can build on pool's VMA/Table
// primitives without an import cycle. Handles returned by Get/Take are
// tracked on the invocation and force-released at teardown (see
// router.StateHold).
type StateBackend interface {
	Get(pd PDID, fn string, scope router.StateScope, key string) (router.StateSnap, error)
	Take(pd PDID, fn string, scope router.StateScope, key string) (router.StateTx, error)
	Put(pd PDID, fn string, scope router.StateScope, key string, val []byte) (uint64, error)
	Delete(pd PDID, fn string, scope router.StateScope, key string) error
}

// Config sizes one live worker pool. The shape mirrors core.Config: a few
// orchestrators dispatching into many executors, JBSQ-bounded.
type Config struct {
	// Orchestrators is the number of dispatcher goroutines. Executors are
	// partitioned among them into proximity groups. 0 picks one per 8
	// executors (minimum 1), matching the simulator's default ratio.
	Orchestrators int

	// Executors is the number of executor goroutines. 0 picks GOMAXPROCS.
	Executors int

	// JBSQBound is the queue-depth bound k of JBSQ(k). External requests
	// are dispatched only to executors below the bound; internal (nested)
	// requests bypass it (§3.3).
	JBSQBound int

	// ExternalQueueCap bounds each orchestrator's external queue; arrivals
	// beyond it are rejected with ErrSaturated (the gateway's 429).
	// 0 defaults to 256.
	ExternalQueueCap int

	// NumPDs sizes the protection-domain space. Every in-flight
	// invocation — including suspended parents of nested calls — holds
	// one PD, so this must exceed MaxInflight × (1 + max nesting depth).
	// 0 defaults to 4096.
	NumPDs int

	// PDReserve is the number of PDs held back from *external* requests:
	// executors start an external invocation only while more than
	// PDReserve PDs are free, while internal (nested) requests may
	// consume the reserve. Without it, every PD can end up held by a
	// suspended parent whose child then cannot start — the PD-space
	// analogue of the queue deadlock §3.3's internal priority exists to
	// prevent. 0 defaults to NumPDs/8 (minimum 1). The reserve guarantees
	// progress for depth-1 call chains; deeper fan-outs additionally need
	// NumPDs sized per the rule above.
	PDReserve int

	// SweepInterval is how often the lifecycle sweeper scans orchestrator
	// queues for requests that died before dispatch (deadline expired or
	// caller gone) and, when ExecTimeout is set, running invocations for
	// watchdog flagging. Without the sweeper a dead request is only
	// discovered when an executor dequeues it — potentially never on a
	// saturated worker. The sweeper holds no timer while nothing is
	// sweepable (no deadline-carrying requests, nothing watchdog-tracked),
	// so deadline-free workloads pay nothing for it (see sweeper).
	// 0 defaults to 5ms; < 0 disables the sweeper.
	SweepInterval time.Duration

	// ExecTimeout is the per-invocation watchdog threshold: an invocation
	// (running or suspended on nested calls) still alive past it is
	// flagged once on Stats.Watchdog and its function's counter — the
	// operator signal for stuck bodies holding PDs and runners. It does
	// not kill the body (Go cannot preempt it); cancellation stays
	// cooperative via Ctx.Err/Ctx.Done. 0 disables the watchdog.
	ExecTimeout time.Duration

	// PDShedMargin enables tiered shedding: while at most
	// PDReserve+PDShedMargin PDs are free, Invoke refuses EXTERNAL
	// requests with ErrDegraded instead of queueing them toward a stall.
	// Internal (nested) requests are never shed — they may consume the
	// reserve itself — so external service tightens strictly before
	// internal calls feel any pressure, extending §3.3's internal
	// priority from "never deadlock" to "degrade external before
	// internal". <= 0 disables tiered shedding (the raw-pool default;
	// the live daemon enables it, see server.Config).
	PDShedMargin int

	// ObserveQueueDelay, when set, receives every external request's
	// measured queue delay (Invoke submission -> executor pickup) — the
	// signal the gateway's adaptive admission controller steers on. Called
	// from executor goroutines on the dispatch path: it must be fast,
	// allocation-free, and non-blocking.
	ObserveQueueDelay func(d time.Duration)

	// OnWatchdog, when set, is called (from the sweeper, with the owning
	// executor's lock held) each time the ExecTimeout watchdog flags an
	// invocation, with the stuck function's name — the live feed that
	// lets per-function circuit breakers count stuck bodies as failures.
	// Must be fast and non-blocking.
	OnWatchdog func(fnName string)

	// NoTrace disables the always-on per-invocation tracing layer
	// (internal/server/trace). Tracing is ON by default — the invoke
	// benchmarks and alloc gates run with it enabled — and this knob
	// exists for the on-vs-off overhead comparison jordbench reports.
	NoTrace bool
}

// Normalized returns the configuration with every zero field replaced by
// its default — what a pool built from c will actually run with.
func (c Config) Normalized() Config {
	c.normalize()
	return c
}

func (c *Config) normalize() {
	if c.Executors <= 0 {
		c.Executors = runtime.GOMAXPROCS(0)
	}
	if c.Orchestrators <= 0 {
		c.Orchestrators = c.Executors / 8
		if c.Orchestrators < 1 {
			c.Orchestrators = 1
		}
	}
	if c.Orchestrators > c.Executors {
		c.Orchestrators = c.Executors
	}
	if c.JBSQBound < 1 {
		c.JBSQBound = 4
	}
	if c.ExternalQueueCap <= 0 {
		c.ExternalQueueCap = 256
	}
	if c.NumPDs <= 0 {
		c.NumPDs = 4096
	}
	if c.PDReserve <= 0 {
		c.PDReserve = c.NumPDs / 8
		if c.PDReserve < 1 {
			c.PDReserve = 1
		}
	}
	if c.PDReserve >= c.NumPDs {
		c.PDReserve = c.NumPDs - 1
	}
	if c.SweepInterval == 0 {
		c.SweepInterval = 5 * time.Millisecond
	}
	if c.PDShedMargin < 0 {
		c.PDShedMargin = 0
	}
	// The shed threshold must leave headroom below NumPDs or no external
	// request could ever start.
	if c.PDShedMargin > 0 && c.PDReserve+c.PDShedMargin >= c.NumPDs {
		c.PDShedMargin = c.NumPDs - 1 - c.PDReserve
		if c.PDShedMargin < 0 {
			c.PDShedMargin = 0
		}
	}
}

// request is one invocation flowing through the live runtime — the live
// analogue of core.Request. Requests are recycled through a pool; the
// done channel (capacity 1) carries a completion token instead of being
// closed, so it survives reuse.
type request struct {
	fn       *router.Func
	buf      *VMA // the ArgBuf carrying inputs and outputs
	external bool

	arrival  time.Time
	deadline time.Time // zero = none; nested requests inherit the parent's

	parent *continuation // nested-call linkage

	canceled atomic.Bool // external caller gave up (ctx done)

	// done receives exactly one token when an EXTERNAL request finishes
	// (err valid; written before the token). Nested requests signal
	// completion through the completed flag instead, guarded by the
	// parent continuation's mutex — a recycled request pointer must never
	// deposit into a channel its new owner is already using.
	done      chan struct{}
	completed bool // nested only; guarded by parent.mu
	orphaned  bool // nested only; parent finished without Wait (guarded by parent.mu)
	err       error

	// span is the invocation's trace record, embedded by value so tracing
	// allocates nothing and recycles with the request. Ownership follows
	// the request's: the runtime stamps stages until finish; a traced
	// external caller (the edge, see InvokeTimed) copies it out after the
	// done token and publishes it itself once the response is written.
	span    trace.Span
	tSubmit int64 // submission mark on the trace clock (latency origin)
	tMark   int64 // last stage boundary on the trace clock
	traced  bool  // an external caller owns response stamping + publish
}

// FuncStats accumulates per-function live measurements. The latency
// histogram and the hot counters shard per executor so the completion path
// touches only the finishing executor's cache lines; reads merge the
// shards.
type FuncStats struct {
	Name     string
	Count    metrics.StripedUint64 // completed invocations (external + nested)
	Errors   metrics.StripedUint64
	Watchdog atomic.Uint64            // invocations flagged past ExecTimeout
	Latency  metrics.ShardedHistogram // arrival -> completion, ns
}

// Stats is the pool-wide counter set. Counters bumped on every request
// (Dispatched per handoff, Completed/Expired/Canceled per finish) stripe
// per orchestrator/executor so 32-way completion traffic never ping-pongs
// one cache line; rare-event counters stay plain atomics.
type Stats struct {
	perFunc map[string]*FuncStats // immutable after Start
	funcs   []*FuncStats          // registration order

	Dispatched metrics.StripedUint64 // orchestrator -> executor handoffs (shard = orchestrator)
	Completed  metrics.StripedUint64 // finished invocations (shard = finishing executor)
	Expired    metrics.StripedUint64 // finished with context.DeadlineExceeded
	Canceled   metrics.StripedUint64 // finished with context.Canceled (caller gone / kin canceled)
	Rejected   atomic.Uint64         // ErrSaturated external submissions
	Shed       atomic.Uint64         // ErrDegraded external submissions (PD pressure, tiered shedding)
	Orphaned   atomic.Uint64         // children detached at parent teardown without a Wait
	Watchdog   atomic.Uint64         // invocations flagged stuck past ExecTimeout
	Swept      atomic.Uint64         // dead requests reaped from orchestrator queues pre-dispatch
}

// FuncStats returns the accumulator for a function name (nil if unknown).
func (s *Stats) FuncStats(name string) *FuncStats { return s.perFunc[name] }

// Funcs returns the per-function accumulators in registration order.
func (s *Stats) Funcs() []*FuncStats { return s.funcs }

// Pool is the live worker runtime: orchestrators, executors, the PD table,
// per-function code VMAs, and measurement state.
type Pool struct {
	cfg   Config
	reg   *router.Registry
	tab   *Table
	orchs []*orchestrator
	execs []*executor

	// code holds each function's code VMA (global RX — the VTE G bit, so
	// every invocation PD may execute it without a per-invocation pcopy),
	// indexed by router.Func.ID.
	code []*VMA

	stats Stats

	// reqPool and contPool recycle the per-invocation bookkeeping objects
	// (request structs with their done channels, continuations with their
	// handshake channels and children slices).
	reqPool  sync.Pool
	contPool sync.Pool

	// runners holds parked runner goroutines awaiting a continuation.
	// Only executor goroutines put runners back, so after the executor
	// loops exit the channel is quiescent and Drain can empty it.
	runners chan *runner

	// pdWaiters counts executors currently stalled on PD supply; Cput
	// (via tab.onFree) checks it so ordinary completions skip the
	// wake-every-executor broadcast. A counter rather than a flag: a
	// waiter stays registered until it actually wakes, so one executor's
	// stall re-check finding work cannot consume another's wakeup.
	// Padded: every cput LOADS this line — it must not be invalidated by
	// the per-request RMWs on inflightN/sweepables below.
	_         [56]byte
	pdWaiters atomic.Int64
	_         [56]byte

	// shedThr is the tiered-shedding threshold (PDReserve+PDShedMargin,
	// 0 = disabled): Invoke refuses external requests while the free-PD
	// count is at or below it. Immutable after New; the check is one
	// atomic load on the submit path.
	shedThr int

	// state is the shared-state tier, nil unless SetState attached one.
	// Immutable after Start.
	state StateBackend

	// tr is the per-invocation tracing plane (nil iff Config.NoTrace).
	// Immutable after New; every hot-path stamp is gated on one nil check.
	tr *trace.Recorder

	draining atomic.Bool
	started  atomic.Bool
	startAt  time.Time

	sweepStop chan struct{} // closes when Drain stops the lifecycle sweeper
	drainOnce sync.Once

	// sweepables counts the work the sweeper exists for: deadline-carrying
	// requests in flight plus (when ExecTimeout is on) watchdog-tracked
	// invocations. While it is zero the sweeper parks without a timer —
	// a pending runtime timer taxes every scheduler pass, which deadline-
	// free workloads must not pay (see sweeper). sweepKick (cap 1) carries
	// the counter's 0→1 wakeup.
	sweepables atomic.Int64
	_          [56]byte
	sweepKick  chan struct{}

	// inflightN counts external requests in flight (a raw counter, not a
	// WaitGroup: Invoke increments concurrently with Drain's wait, which
	// WaitGroup forbids from a zero counter). Decrements that cross zero
	// while draining signal idleCh so Drain can stop waiting. Padded onto
	// its own cache line: it is the one RMW every external request pays
	// twice, and it must not share a line with read-mostly neighbours.
	inflightN atomic.Int64
	_         [56]byte
	idleCh    chan struct{}  // cap 1; drain-time zero-crossing signal
	loops     sync.WaitGroup // orchestrator/executor/sweeper goroutines
}

// New assembles a pool over a function registry. Start must be called
// before Invoke; registration closes at Start.
func New(cfg Config, reg *router.Registry) *Pool {
	cfg.normalize()
	p := &Pool{cfg: cfg, reg: reg, tab: NewTable(cfg.NumPDs)}
	if cfg.PDShedMargin > 0 {
		p.shedThr = cfg.PDReserve + cfg.PDShedMargin
	}
	// Credit carving must stop strictly above both the §3.3 reserve and
	// the shedding band, so the exact legacy CAS governs all admission
	// decisions anywhere near those thresholds (see Table.SetCreditFloor).
	floor := cfg.NumPDs / 4
	if m := cfg.PDReserve + 2*creditBatch; floor < m {
		floor = m
	}
	if m := p.shedThr + 2*creditBatch; floor < m {
		floor = m
	}
	if floor < 64 {
		floor = 64
	}
	p.tab.SetCreditFloor(floor)
	if !cfg.NoTrace {
		p.tr = trace.NewRecorder(cfg.Executors)
	}
	p.reqPool.New = func() any { return &request{done: make(chan struct{}, 1)} }
	p.contPool.New = func() any {
		return &continuation{
			yieldCh:  make(chan struct{}),
			resumeCh: make(chan struct{}),
		}
	}
	p.runners = make(chan *runner, 4*cfg.Executors+16)
	p.idleCh = make(chan struct{}, 1)
	p.sweepKick = make(chan struct{}, 1)
	return p
}

// inflightDone retires one external request from the in-flight count; the
// decrement that reaches zero during a drain wakes the waiting Drain.
func (p *Pool) inflightDone() {
	if p.inflightN.Add(-1) == 0 && p.draining.Load() {
		select {
		case p.idleCh <- struct{}{}:
		default:
		}
	}
}

// getRequest returns a recycled (or fresh) request with an empty done
// channel and cleared linkage.
func (p *Pool) getRequest() *request {
	return p.reqPool.Get().(*request)
}

// putRequest recycles a request. The done channel is drained defensively
// so a stale completion token can never leak into the next invocation.
func (p *Pool) putRequest(r *request) {
	select {
	case <-r.done:
	default:
	}
	r.fn = nil
	r.buf = nil
	r.external = false
	r.arrival = time.Time{}
	r.deadline = time.Time{}
	r.parent = nil
	r.canceled.Store(false)
	r.completed = false
	r.orphaned = false
	r.err = nil
	r.span = trace.Span{}
	r.tSubmit = 0
	r.tMark = 0
	r.traced = false
	p.reqPool.Put(r)
}

// releaseRequest recycles a finished request and its ArgBuf structure.
func (p *Pool) releaseRequest(r *request) {
	putVMA(r.buf)
	p.putRequest(r)
}

// getCont returns a recycled (or fresh) continuation.
func (p *Pool) getCont() *continuation {
	return p.contPool.Get().(*continuation)
}

// putCont recycles a finished continuation. Its channels are reused (both
// handshakes complete strictly before recycling); the children slice keeps
// its capacity. A detached continuation (outstanding orphan children) is
// recycled by the LAST orphan's finish, never by finishInvocation — the
// children still lock c.mu through their parent pointers until then.
func (p *Pool) putCont(c *continuation) {
	c.req = nil
	c.exec = nil
	c.pd = 0
	c.runner = nil
	c.waiting = nil
	c.children = c.children[:0]
	c.live = 0
	c.finished = false
	c.resp = nil
	c.err = nil
	c.detached = false
	c.orphans = 0
	c.startAt = time.Time{}
	c.wdFlagged = false
	c.doneCh = nil
	c.stopCh = nil
	c.holds = c.holds[:0] // capacity recycles; entries were released at teardown
	c.ctx = Ctx{}
	p.contPool.Put(c)
}

// getRunner pops a parked runner goroutine, or spawns one.
func (p *Pool) getRunner() *runner {
	select {
	case rn := <-p.runners:
		return rn
	default:
	}
	rn := &runner{work: make(chan *continuation, 1)}
	go rn.loop(p)
	return rn
}

// putRunner parks a runner for reuse; if the pool is full, the runner's
// goroutine is released instead. Called only from executor goroutines.
func (p *Pool) putRunner(rn *runner) {
	select {
	case p.runners <- rn:
	default:
		close(rn.work)
	}
}

// SetState attaches the shared-state tier. Must be called before Start;
// bodies reach it through Ctx.StateGet/StateTake/StatePut/StateDelete.
func (p *Pool) SetState(b StateBackend) { p.state = b }

// State returns the attached shared-state tier (nil if none).
func (p *Pool) State() StateBackend { return p.state }

// Trace returns the tracing recorder (nil iff Config.NoTrace).
func (p *Pool) Trace() *trace.Recorder { return p.tr }

// Config returns the normalized configuration.
func (p *Pool) Config() Config { return p.cfg }

// Table exposes the PD table (tests, stats).
func (p *Pool) Table() *Table { return p.tab }

// Stats exposes the live counters.
func (p *Pool) Stats() *Stats { return &p.stats }

// StartedAt returns when the pool started serving.
func (p *Pool) StartedAt() time.Time { return p.startAt }

// ShedThreshold returns the free-PD count at or below which external
// submissions are refused with ErrDegraded (0 = tiered shedding disabled).
func (p *Pool) ShedThreshold() int { return p.shedThr }

// Start freezes the registry, loads every function's code VMA, and launches
// the orchestrator and executor goroutines.
func (p *Pool) Start() {
	if !p.started.CompareAndSwap(false, true) {
		return
	}
	p.reg.Freeze()
	funcs := p.reg.Funcs()
	p.code = make([]*VMA, len(funcs))
	p.stats.perFunc = make(map[string]*FuncStats, len(funcs))
	// Hot counters stripe across their writers: per-finish counters over
	// the executors, the dispatch counter over the orchestrators.
	p.stats.Completed.SetShards(p.cfg.Executors)
	p.stats.Expired.SetShards(p.cfg.Executors)
	p.stats.Canceled.SetShards(p.cfg.Executors)
	p.stats.Dispatched.SetShards(p.cfg.Orchestrators)
	for _, f := range funcs {
		// Register loads the function code into an executable VMA shared
		// with every PD (the Fig. 8 G bit), cf. core.System.Register.
		p.code[f.ID] = p.tab.NewGlobalVMA(nil, vmatable.PermRX)
		fs := &FuncStats{Name: f.Name}
		fs.Latency.SetShards(p.cfg.Executors)
		fs.Count.SetShards(p.cfg.Executors)
		fs.Errors.SetShards(p.cfg.Executors)
		p.stats.perFunc[f.Name] = fs
		p.stats.funcs = append(p.stats.funcs, fs)
	}
	if p.tr != nil {
		names := make([]string, len(funcs))
		for _, f := range funcs {
			names[f.ID] = f.Name
		}
		p.tr.InitFuncs(names)
	}

	for i := 0; i < p.cfg.Executors; i++ {
		p.execs = append(p.execs, newExecutor(p, i))
	}
	for i := 0; i < p.cfg.Orchestrators; i++ {
		p.orchs = append(p.orchs, newOrchestrator(p, i))
	}
	// Partition executors among orchestrators round-robin (the simulator
	// balances group sizes the same way; there is no mesh distance to
	// break ties by on the live path).
	for i, e := range p.execs {
		o := p.orchs[i%len(p.orchs)]
		o.group = append(o.group, e)
		e.orch = o
	}
	// A freed PD may unblock an executor stalled in its capacity check.
	// The pdWaiters count gates the broadcast so the common Cput pays one
	// atomic load, not a wake of every executor. The count is never reset
	// here: each waiter deregisters itself when it wakes, so a broadcast
	// cannot strand another executor that registered concurrently.
	p.tab.onFree = func() {
		if p.pdWaiters.Load() > 0 {
			for _, e := range p.execs {
				e.wake()
			}
		}
	}
	for _, e := range p.execs {
		p.loops.Add(1)
		go e.run()
	}
	for _, o := range p.orchs {
		p.loops.Add(1)
		go o.run()
	}
	p.sweepStop = make(chan struct{})
	if p.cfg.SweepInterval > 0 {
		p.loops.Add(1)
		go p.sweeper()
	}
	p.startAt = time.Now()
}

// sweeper is the lifecycle background loop: at SweepInterval it reaps
// dead requests (deadline expired, caller gone) out of the orchestrator
// queues so they stop occupying queue slots on a worker that may never
// dequeue them, and — when ExecTimeout is set — flags invocations stuck
// past the watchdog threshold. Executor queues are not swept; their
// entries are checked at dequeue, which is at most JBSQBound requests away.
//
// A pool with nothing sweepable must not pay for the sweeper: a pending
// runtime timer — at ANY period — taxes every scheduler pass with a timer
// heap check, which costs ~10% on this handshake-heavy hot path. So the
// sweeper holds no timer at all while p.sweepables is zero: it parks on
// sweepKick, and the 0→1 transition of the counter (first deadline-
// carrying request, or first watchdog-tracked invocation) wakes it. It
// then ticks at SweepInterval until the count drains and it parks again.
//
// Requests whose caller can only vanish (canceled, no deadline, watchdog
// off) do not arm the sweeper; they are reaped at executor dequeue, which
// is how the pre-sweeper runtime handled all queue deaths.
func (p *Pool) sweeper() {
	defer p.loops.Done()
	timer := time.NewTimer(time.Hour)
	if !timer.Stop() {
		<-timer.C
	}
	defer timer.Stop()
	var dead []*request // reused across sweeps
	for {
		if p.sweepables.Load() == 0 {
			select {
			case <-p.sweepStop:
				return
			case <-p.sweepKick:
				continue // re-check: the kick may be stale
			}
		}
		timer.Reset(p.cfg.SweepInterval)
		select {
		case <-p.sweepStop:
			return
		case <-timer.C:
		}
		now := time.Now()
		for _, o := range p.orchs {
			dead = o.sweep(dead[:0], now)
			for _, r := range dead {
				p.stats.Swept.Add(1)
				// Deadline first: an expired request is usually ALSO marked
				// canceled (Invoke's abandon path fires at the same instant),
				// and the deadline is the deterministic cause.
				if !r.deadline.IsZero() && now.After(r.deadline) {
					p.finish(-1, r, context.DeadlineExceeded)
				} else {
					p.finish(-1, r, context.Canceled)
				}
			}
		}
		if p.cfg.ExecTimeout > 0 {
			cut := now.Add(-p.cfg.ExecTimeout)
			for _, e := range p.execs {
				e.flagStuck(cut)
			}
		}
	}
}

// sweepableAdd registers one sweeper-relevant unit of work (a deadline-
// carrying request in flight, or a watchdog-tracked invocation) and wakes
// the parked sweeper on the zero crossing.
func (p *Pool) sweepableAdd() {
	if p.sweepables.Add(1) == 1 {
		select {
		case p.sweepKick <- struct{}{}:
		default:
		}
	}
}

// sweepableDone retires one sweeper-relevant unit; at zero the sweeper's
// next pass parks it (and its timer) again.
func (p *Pool) sweepableDone() {
	p.sweepables.Add(-1)
}

// submit stages one external request and hands it to an orchestrator: the
// admission/shedding checks, the ArgBuf staging, and the queue handoff
// shared by Invoke and InvokeTimed. On success the caller owns the wait on
// r.done; on error everything is already released.
func (p *Pool) submit(def *router.Func, payload []byte, deadline time.Time, sp *trace.Span) (*request, error) {
	// Count ourselves in flight BEFORE checking the drain flag, so no
	// accepted request can strand in a queue nobody services: either our
	// increment lands before Drain's flag flip (Drain then waits for us),
	// or we observe the flip here and withdraw without submitting. (The
	// other order leaves a window where Drain sees zero, shuts the loops
	// down, and our request is enqueued into a dead pool.)
	p.inflightN.Add(1)
	if p.draining.Load() {
		p.inflightDone()
		return nil, ErrDraining
	}
	// Tiered shedding (one atomic load): refuse external work while the
	// free-PD supply is within the shed margin of the internal reserve,
	// BEFORE staging anything — external admission tightens here so
	// internal (nested) calls, which may consume the reserve itself,
	// never stall behind externals hoarding the last PDs.
	if thr := p.shedThr; thr > 0 && p.tab.FreeCount() <= thr {
		p.inflightDone()
		p.stats.Shed.Add(1)
		if p.tr != nil {
			p.tr.NoteShed() // shed-burst flight-recorder trigger
		}
		return nil, ErrDegraded
	}
	// Stage the request payload into a fresh ArgBuf owned by the runtime
	// domain (§3.3: "orchestrators save these requests into ArgBufs").
	r := p.getRequest()
	r.fn = def
	r.buf = p.tab.NewVMA(ExecutorPD, payload, vmatable.PermRW)
	r.external = true
	r.deadline = deadline
	if tr := p.tr; tr != nil {
		// One trace-clock read is the only arrival stamp a traced request
		// needs: every downstream reader of r.arrival (untraced latency,
		// the ObserveQueueDelay fallback) has a traced branch running off
		// the span marks instead, so the time.Now below is skipped. A
		// traced caller (the edge) hands in a pre-stamped span —
		// parse/admit stages and the earlier start — and takes publish
		// ownership back with the completion token.
		m := tr.Now()
		if sp != nil {
			r.span = *sp
			r.traced = true
		} else {
			r.span.StartNS = m
		}
		r.span.FuncID = int32(def.ID)
		r.span.External = true
		r.tSubmit = m
		r.tMark = m
	} else {
		r.arrival = time.Now()
	}
	// Spread submissions across orchestrators with the per-P random
	// source: rand/v2's global generator never touches a shared cache
	// line, unlike the old round-robin counter whose single atomic was
	// RMW'd by every submitting goroutine.
	o := p.orchs[0]
	if len(p.orchs) > 1 {
		o = p.orchs[rand.IntN(len(p.orchs))]
	}
	if err := o.submitExternal(r); err != nil {
		p.inflightDone()
		p.stats.Rejected.Add(1)
		p.releaseRequest(r)
		return nil, err
	}
	if !deadline.IsZero() {
		// A deadline makes the request sweepable; arm the sweeper for its
		// lifetime (balanced by finish). Deadline-free requests leave the
		// sweeper parked and timer-free.
		p.sweepableAdd()
	}
	return r, nil
}

// Invoke runs one external request through the live runtime: stage the
// ArgBuf, submit to an orchestrator, wait for completion or ctx expiry.
func (p *Pool) Invoke(ctx context.Context, fn string, payload []byte) ([]byte, error) {
	if !p.started.Load() {
		return nil, errors.New("pool: not started")
	}
	def := p.reg.Lookup(fn)
	if def == nil {
		return nil, ErrUnknownFunction
	}
	var deadline time.Time
	if dl, ok := ctx.Deadline(); ok {
		deadline = dl
	}
	r, err := p.submit(def, payload, deadline, nil)
	if err != nil {
		return nil, err
	}
	select {
	case <-r.done:
		if err := r.err; err != nil {
			p.releaseRequest(r)
			return nil, err
		}
		// The executor pmoved the result ArgBuf back to the runtime
		// domain; read it from there. The returned slice stays valid
		// after the VMA structure recycles (see VMA.Read).
		b, err := r.buf.Read(ExecutorPD)
		p.releaseRequest(r)
		return b, err
	case <-ctx.Done():
		// Abandon: the request still drains through the runtime (and
		// releases its inflight slot there), but the caller leaves now.
		// The abandoned request is NOT recycled — the runtime still owns
		// it until its finish, after which the GC reclaims it.
		r.canceled.Store(true)
		return nil, ctx.Err()
	}
}

// InvokeTimed is Invoke for callers that manage deadlines without a
// context — the zero-allocation HTTP edge, which cannot afford
// context.WithTimeout's allocations. def comes from Registry.Lookup or
// LookupBytes; deadline may be zero (none); expired, when non-nil, is the
// caller's own timer channel armed for that deadline, and canceled, when
// non-nil, fires when the caller is gone (nil blocks either select arm,
// i.e. wait forever).
//
// On timeout or cancellation the request is ABANDONED (abandoned=true, err
// = context.DeadlineExceeded or context.Canceled): the runtime still owns
// the request and its ArgBuf, which may alias the caller's payload buffer
// — the caller must treat that buffer as lost.
//
// sp, when non-nil (and tracing is on), is the caller's pre-stamped trace
// span (edge parse/admit stages): the runtime adopts it for the request's
// lifetime and copies it back — stages, outcome, finishing shard — before
// returning a completion, at which point the caller owns stamping the
// response-write stage and publishing. On abandonment the span stays with
// the runtime, which publishes the canceled trace itself at finish.
func (p *Pool) InvokeTimed(def *router.Func, payload []byte, deadline time.Time, expired <-chan time.Time, canceled <-chan struct{}, sp *trace.Span) (resp []byte, abandoned bool, err error) {
	if !p.started.Load() {
		return nil, false, errors.New("pool: not started")
	}
	if def == nil {
		return nil, false, ErrUnknownFunction
	}
	r, err := p.submit(def, payload, deadline, sp)
	if err != nil {
		return nil, false, err
	}
	select {
	case <-r.done:
		if r.traced && sp != nil {
			*sp = r.span
		}
		if err := r.err; err != nil {
			p.releaseRequest(r)
			return nil, false, err
		}
		b, err := r.buf.Read(ExecutorPD)
		p.releaseRequest(r)
		return b, false, err
	case <-expired:
		r.canceled.Store(true)
		return nil, true, context.DeadlineExceeded
	case <-canceled:
		r.canceled.Store(true)
		return nil, true, context.Canceled
	}
}

// finish completes a request: record stats (latency on the finishing
// executor's shard), publish the error, then signal completion — a token
// on the done channel for external requests (Invoke's select), or the
// completed flag under the parent's lock for nested ones (Wait's check).
// Exactly one finish happens per submitted request. Once completion is
// signalled the request may be recycled by its consumer, so no field is
// touched afterwards.
func (p *Pool) finish(shard int, r *request, err error) {
	if !r.deadline.IsZero() {
		p.sweepableDone() // balances the sweepableAdd at submission
	}
	r.err = err
	fs := p.stats.perFunc[r.fn.Name]
	var latNS int64
	if tr := p.tr; tr != nil {
		// One clock read closes both the span and the latency histogram.
		end := tr.Now()
		latNS = end - r.tSubmit
		s := &r.span
		s.EndNS = end
		// Whatever ran after the exec-end stamp (output write-back, ArgBuf
		// pmove, handle release, PD cput) is teardown; a request that died
		// before PD init never reached that stamp and keeps the remainder
		// unattributed ("other" in /tracez).
		if s.Stages[trace.StageInit] > 0 {
			s.Stages[trace.StageTeardown] += end - r.tMark
		}
		s.Outcome = outcomeOf(err)
		s.Shard = int32(shard)
		// Publish unless a traced external caller owns the span (it will
		// stamp the response write and publish after the done token). An
		// abandoned traced request has no caller left to publish — the
		// runtime does it here. (A finish racing the abandonment's flag
		// store may drop that one trace; never double-publish.)
		if !r.traced || r.canceled.Load() {
			tr.Publish(shard, s)
		}
	} else {
		latNS = time.Since(r.arrival).Nanoseconds()
	}
	fs.Latency.RecordShard(shard, latNS)
	fs.Count.AddShard(shard, 1)
	if err != nil {
		fs.Errors.AddShard(shard, 1)
		// Lifecycle accounting is centralized here so queue sweeps,
		// dequeue checks, and cooperative in-body unwinding all count the
		// same way (the gateway maps Canceled onto 499, Expired onto 504).
		switch {
		case errors.Is(err, context.Canceled):
			p.stats.Canceled.AddShard(shard, 1)
		case errors.Is(err, context.DeadlineExceeded):
			p.stats.Expired.AddShard(shard, 1)
		}
	}
	p.stats.Completed.AddShard(shard, 1)
	if r.external {
		r.done <- struct{}{}
		p.inflightDone()
		return
	}
	// Nested request: flip completed and collect the resume decision in
	// one critical section with Wait's suspend decision, so exactly one
	// side sees the other (cf. executor.finishInvocation in the
	// simulator).
	parent := r.parent
	parent.mu.Lock()
	r.completed = true
	if r.orphaned {
		// The parent finished without Wait and detached us: nobody will
		// ever collect this result, so the pool releases the request and
		// its ArgBuf here. The LAST orphan also recycles the parent
		// continuation finishInvocation left un-pooled for us.
		parent.orphans--
		last := parent.detached && parent.orphans == 0
		parent.mu.Unlock()
		p.releaseRequest(r)
		if last {
			p.putCont(parent)
		}
		return
	}
	resume := parent.waiting == r
	if resume {
		parent.waiting = nil
	}
	parent.mu.Unlock()
	if resume {
		parent.exec.readyResume(parent)
	}
}

// outcomeOf maps a finish error onto the span's outcome enum — no error
// strings, so publishing an errored span allocates nothing.
func outcomeOf(err error) trace.Outcome {
	switch {
	case err == nil:
		return trace.OutcomeOK
	case errors.Is(err, ErrPanicked):
		return trace.OutcomePanicked
	case errors.Is(err, context.DeadlineExceeded):
		return trace.OutcomeExpired
	case errors.Is(err, context.Canceled):
		return trace.OutcomeCanceled
	default:
		return trace.OutcomeError
	}
}

// QueueDepths reports current external, internal, and executor queue
// occupancy — the /statsz gauges.
func (p *Pool) QueueDepths() (ext, internal, execQ int) {
	for _, o := range p.orchs {
		e, i := o.depths()
		ext += e
		internal += i
	}
	for _, e := range p.execs {
		execQ += int(e.qlen.Load())
	}
	return ext, internal, execQ
}

// Draining reports whether the pool has stopped accepting external work.
func (p *Pool) Draining() bool { return p.draining.Load() }

// Drain stops accepting external requests, waits for all in-flight work
// (including nested calls) to complete, then shuts the loops and parked
// runner goroutines down. It returns ctx.Err() if the context expires
// first, leaving the loops running so stragglers still complete.
func (p *Pool) Drain(ctx context.Context) error {
	p.draining.Store(true)
	// Wait for the in-flight count to reach zero. Every decrement that
	// crosses zero after the flag flip signals idleCh (see inflightDone);
	// an Invoke racing the flip either lands its increment first — then
	// its finish delivers the signal — or sees the flag and withdraws,
	// itself signalling its transient zero crossing. Re-checking the
	// count after each signal makes spurious or stale tokens harmless.
	for p.inflightN.Load() != 0 {
		select {
		case <-p.idleCh:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	// The sweeper stops with the dispatch loops: external work has
	// drained, and the orchestrator/executor loops run their remaining
	// (internal, orphan) queues to empty without it.
	p.drainOnce.Do(func() {
		if p.sweepStop != nil {
			close(p.sweepStop)
		}
	})
	for _, o := range p.orchs {
		o.close()
	}
	for _, e := range p.execs {
		e.close()
	}
	p.loops.Wait()
	// Return carved credits so post-drain accounting (FreeCount,
	// VerifyIdle) sees the exact physical supply.
	p.tab.reclaimCredits()
	// Only executor goroutines park runners; with the loops gone the
	// channel is quiescent and every parked runner can be released.
	for {
		select {
		case rn := <-p.runners:
			close(rn.work)
		default:
			return nil
		}
	}
}
