package pool

import (
	"context"
	"fmt"
	"iter"
	"sync"
	"sync/atomic"
	"time"

	"jord/internal/mem/vmatable"
	"jord/internal/server/router"
	"jord/internal/server/trace"
)

// executor is the live port of core.Executor: one worker goroutine with a
// bounded queue of dispatched-but-unstarted requests and a list of
// suspended continuations ready to resume. Resumptions have priority so
// in-flight work drains before new work starts (§3.4). The executor never
// blocks inside a function: invocations run as continuations on pooled
// runner coroutines, which the executor enters (ccall) and re-enters
// (center) with one coroutine switch and which hand the "core" straight
// back when they finish or suspend on a nested call (cexit).
type executor struct {
	pool *Pool
	id   int
	orch *orchestrator

	// pds is this executor's private PD free-list cache over the table's
	// sharded global pool — cget/cput usually touch only this list.
	pds *pdCache

	mu     sync.Mutex
	cond   *sync.Cond
	queue  deque[*request]
	resume deque[*continuation]
	closed bool

	// active tracks this executor's started-but-unfinished invocations
	// (running or suspended) for the ExecTimeout watchdog. Maintained only
	// when the watchdog is enabled, so the default hot path pays nothing.
	active []*continuation

	// qlen is queue.Len() plus the slots dispatchers have reserved but not
	// yet filled, read by the lock-free JBSQ probes (the live stand-in for
	// the simulator's cross-core queue-length loads). A dispatcher reserves
	// under its orchestrator's lock before enqueue, so concurrent
	// dispatchers never push a queue past the JBSQ bound.
	qlen atomic.Int32

	started   atomic.Uint64
	completed atomic.Uint64
	suspends  atomic.Uint64
}

func newExecutor(p *Pool, id int) *executor {
	e := &executor{pool: p, id: id, pds: p.tab.newCache()}
	e.cond = sync.NewCond(&e.mu)
	return e
}

// enqueue fills a queue slot a dispatcher reserved in qlen (called with
// no orchestrator lock held, so o.mu and e.mu are never held together).
func (e *executor) enqueue(r *request) {
	e.mu.Lock()
	e.queue.PushBack(r)
	e.cond.Signal()
	e.mu.Unlock()
}

// readyResume queues a suspended continuation for resumption.
func (e *executor) readyResume(c *continuation) {
	e.mu.Lock()
	e.resume.PushBack(c)
	e.cond.Signal()
	e.mu.Unlock()
}

// wake re-checks the loop condition (a PD was freed).
func (e *executor) wake() {
	e.mu.Lock()
	e.cond.Signal()
	e.mu.Unlock()
}

func (e *executor) close() {
	e.mu.Lock()
	e.closed = true
	e.cond.Broadcast()
	e.mu.Unlock()
}

// run is the executor loop: resume suspended continuations first, then
// start queued requests (only while PDs are available — suspended
// continuations hold theirs, cf. privlib.HasFreePDs), else sleep.
func (e *executor) run() {
	defer e.pool.loops.Done()
	e.mu.Lock()
	for {
		if c, ok := e.resume.PopFront(); ok {
			e.mu.Unlock()
			e.resumeContinuation(c)
			e.mu.Lock()
			continue
		}
		if idx := e.nextRunnable(); idx >= 0 {
			r := e.queue.RemoveAt(idx)
			e.qlen.Add(-1)
			e.mu.Unlock()
			// Capacity freed: externals held at the JBSQ bound may dispatch.
			e.orch.capacityFreed()
			e.startInvocation(r)
			e.mu.Lock()
			continue
		}
		if e.closed && e.queue.Len() == 0 && e.resume.Len() == 0 {
			e.mu.Unlock()
			return
		}
		if e.queue.Len() > 0 {
			// About to stall on PD supply — but the supply may be sitting
			// as carved credits on idle executors' caches, invisible to
			// nextRunnable's FreeCount check. Pull every credit back first
			// so a stall only happens against the true physical count.
			e.pool.tab.reclaimCredits()
			// Queued work gated on PD supply. Register as a PD waiter,
			// then re-check: Cput increments the free counter before
			// reading the waiter count, so either our re-check sees the
			// new supply or the Cput sees our registration and wakes us —
			// no lost wakeup. We stay registered until we actually wake
			// (not merely until the re-check), so another executor's
			// re-check finding work can never consume our wakeup: the
			// count only drops when its owner stops waiting.
			e.pool.pdWaiters.Add(1)
			if e.nextRunnable() >= 0 {
				e.pool.pdWaiters.Add(-1)
				continue
			}
			e.cond.Wait()
			e.pool.pdWaiters.Add(-1)
			continue
		}
		// Nothing runnable: a dispatch, a resumption, or a Cput (via
		// pdWaiters) will wake us — resumptions are what free PDs, so
		// this cannot livelock.
		e.cond.Wait()
	}
}

// nextRunnable returns the index of the first queued request allowed to
// start under the current PD supply, or -1. Internal (nested) requests may
// take any free PD; external requests must leave PDReserve PDs behind for
// the children that suspended parents wait on — §3.3's internal priority
// extended from queue slots to the PD resource, so a PD-starved external
// at the head of the queue cannot block an internal behind it. The check
// here is advisory (one atomic load against the table); Cget re-checks
// atomically and losers are requeued. Called with e.mu held.
func (e *executor) nextRunnable() int {
	n := e.queue.Len()
	if n == 0 {
		return -1
	}
	free := e.pool.tab.FreeCount()
	if free <= 0 {
		return -1
	}
	extOK := free > e.pool.cfg.PDReserve
	for i := 0; i < n; i++ {
		if e.queue.At(i).external && !extOK {
			continue
		}
		return i
	}
	return -1
}

// requeueFront puts a request back at the head of the queue (lost a PD
// race between the capacity check and Cget).
func (e *executor) requeueFront(r *request) {
	e.mu.Lock()
	e.queue.PushFront(r)
	e.qlen.Add(1)
	e.mu.Unlock()
}

// startInvocation is the live Figure 4 flow: initialize the PD (ArgBuf
// pmove; code regions are global-RX VMAs, the VTE G bit, so no per-
// invocation code grant is needed), run the continuation on a pooled
// runner coroutine (ccall), and — if it finishes without suspending —
// tear everything down.
func (e *executor) startInvocation(r *request) {
	p := e.pool

	// Dequeue stamp: close the queue stage (submission -> pickup,
	// accumulating across PD-stall requeues via +=).
	tr := p.tr
	var tDeq int64
	if tr != nil {
		tDeq = tr.Now()
		r.span.Stages[trace.StageQueue] += tDeq - r.tMark
		r.tMark = tDeq
	}

	// Feed the adaptive admission loop: the external queue delay (gateway
	// submission -> executor pickup) is the signal CoDel steers on. Gated
	// on the hook so raw pools pay nothing; with tracing on it rides the
	// dequeue stamp instead of reading the clock again.
	if r.external {
		if obs := p.cfg.ObserveQueueDelay; obs != nil {
			if tr != nil {
				obs(time.Duration(tDeq - r.tSubmit))
			} else {
				obs(time.Since(r.arrival))
			}
		}
	}

	// Deadline/cancellation check at dequeue: a request that died in the
	// queue is completed without running (the gateway already answered).
	// Deadline first, matching the sweeper's classification — an expired
	// request is usually also marked canceled by Invoke's abandon path.
	if !r.deadline.IsZero() && time.Now().After(r.deadline) {
		p.finish(e.id, r, context.DeadlineExceeded)
		return
	}
	if r.canceled.Load() {
		p.finish(e.id, r, context.Canceled)
		return
	}

	reserve := 0
	if r.external {
		reserve = p.cfg.PDReserve
	}
	pd, err := p.tab.cgetCached(reserve, e.pds)
	if err != nil {
		// PD supply changed between the loop's capacity check and now;
		// put the request back and let the loop stall until a Cput.
		e.requeueFront(r)
		return
	}
	c := p.getCont()
	c.req = r
	c.exec = e
	c.pd = pd

	// --- Initialize PD (Figure 4): the function's code VMA is global RX
	// (every PD may execute it — the Fig. 8 G bit), so only the ArgBuf
	// ownership transfer remains per-invocation. ---
	if err := r.buf.Pmove(vmatable.ExecutorPD, pd, vmatable.PermRW); err != nil {
		_ = p.tab.cputCached(pd, e.pds)
		p.putCont(c)
		p.finish(e.id, r, err)
		return
	}

	// PD-init stamp: cget + pmove done, the body is about to enter.
	if tr != nil {
		t := tr.Now()
		r.span.Stages[trace.StageInit] += t - r.tMark
		r.tMark = t
	}

	if p.cfg.ExecTimeout > 0 {
		c.startAt = time.Now()
		e.mu.Lock()
		e.active = append(e.active, c)
		e.mu.Unlock()
		p.sweepableAdd() // the watchdog needs sweeper passes while work runs
	}
	e.started.Add(1)
	// --- Enter the PD (ccall): switch to a pooled runner coroutine, which
	// runs the body on this executor until it finishes or suspends ---
	rn := p.getRunner()
	c.runner = rn
	rn.cur = c
	rn.next()
	if c.finished {
		e.finishInvocation(c)
	}
	// Otherwise the continuation suspended on a nested call; it comes
	// back through the resume list when its child completes.
}

// resumeContinuation re-enters a suspended continuation (center) after its
// awaited child completed.
func (e *executor) resumeContinuation(c *continuation) {
	c.runner.next()
	if c.finished {
		e.finishInvocation(c)
	}
}

// finishInvocation is the right half of Figure 4: write the outputs into
// the ArgBuf, transfer it back to the runtime domain, destroy the PD, reap
// any children the body never Waited on, then complete the request and
// recycle the continuation and its runner.
func (e *executor) finishInvocation(c *continuation) {
	p := e.pool
	r := c.req

	// Exec-end stamp: everything from here to finish is teardown, closed
	// by finish's end-of-span clock read (no extra read for it).
	if tr := p.tr; tr != nil {
		t := tr.Now()
		r.span.Stages[trace.StageExec] += t - r.tMark
		r.tMark = t
	}

	ferr := c.err
	if ferr == nil {
		// The function writes its outputs into the ArgBuf while its PD
		// still owns it.
		if err := r.buf.Write(c.pd, c.resp); err != nil {
			ferr = err
		}
	}
	// Transfer the ArgBuf (now holding outputs) back to the runtime
	// domain and destroy the PD. The code region is global (G bit), so
	// there is no per-invocation grant to revoke.
	if err := r.buf.Pmove(c.pd, vmatable.ExecutorPD, vmatable.PermRW); err != nil && ferr == nil {
		ferr = err
	}
	// Force-release state handles the body left held — un-Released read
	// snapshots and open Take transactions (discarded, the Groundhog
	// rollback) — strictly BEFORE the PD is destroyed: a recycled PD ID
	// must never inherit grants on store VMAs. Only the body's own runner
	// appends to holds, and its final yield happens-before this, so no
	// lock is needed.
	for i, h := range c.holds {
		h.ReleaseHold()
		c.holds[i] = nil
	}
	c.holds = c.holds[:0]
	if err := p.tab.cputCached(c.pd, e.pds); err != nil && ferr == nil {
		ferr = err
	}
	e.completed.Add(1)
	if p.cfg.ExecTimeout > 0 {
		e.untrack(c)
		p.sweepableDone()
		if c.wdFlagged {
			r.span.Flagged = true // watchdog-flagged traces are always retained
		}
	}

	// Reap un-Waited children before the continuation can recycle — a
	// body that Asyncs and returns (or panics) must not leave children
	// whose finish would lock a recycled, reused continuation. Completed
	// children release here; in-flight ones are detached: marked orphaned
	// (their finish releases them and never resumes us) and canceled (so
	// queued ones die at dequeue and running ones can unwind via
	// Ctx.Err). The continuation itself is then recycled by the LAST
	// orphan's finish, keeping its mutex valid for every child that still
	// holds a parent pointer.
	// Fast path: no un-collected children and no Done watcher means no
	// other goroutine can be holding (or about to take) c.mu — both fields
	// are written only by the body's own runner, whose final yield
	// happens-before this read. The common no-fault invocation skips the
	// lock entirely.
	if c.live == 0 && c.stopCh == nil {
		p.putRunner(c.runner)
		p.putCont(c)
		p.finish(e.id, r, ferr)
		return
	}

	c.mu.Lock()
	if ch := c.stopCh; ch != nil {
		// Stop the Ctx.Done watcher goroutine before anything recycles.
		close(ch)
		c.stopCh = nil
		c.doneCh = nil
	}
	detached := false
	if c.live > 0 {
		orphans := 0
		for i, ch := range c.children {
			if ch == nil {
				continue
			}
			if ch.completed {
				p.releaseRequest(ch)
				c.children[i] = nil
			} else {
				ch.orphaned = true
				ch.canceled.Store(true)
				orphans++
			}
		}
		if orphans > 0 {
			c.orphans = orphans
			c.detached = true
			detached = true
			p.stats.Orphaned.Add(uint64(orphans))
		}
	}
	// Capture the runner before releasing c.mu: once detached, the LAST
	// orphan's finish may recycle c (putCont nils c.runner) the moment
	// the lock drops, racing an unlocked read of the field.
	runner := c.runner
	c.mu.Unlock()

	// The runner made its final yield and waits for its next continuation;
	// re-pool it, then recycle the continuation (unless detached — see
	// above).
	p.putRunner(runner)
	if !detached {
		p.putCont(c)
	}
	p.finish(e.id, r, ferr)
}

// untrack removes a finishing continuation from the watchdog's active list.
func (e *executor) untrack(c *continuation) {
	e.mu.Lock()
	for i, a := range e.active {
		if a == c {
			last := len(e.active) - 1
			e.active[i] = e.active[last]
			e.active[last] = nil
			e.active = e.active[:last]
			break
		}
	}
	e.mu.Unlock()
}

// flagStuck flags (once per invocation) every active invocation that
// started before cut — the ExecTimeout watchdog scan, called by the pool
// sweeper while tracked invocations keep it armed. Flagging is an
// operator signal (Stats.Watchdog, per-function counters, /statsz), not a
// kill: Go cannot preempt a spinning body, so teardown stays cooperative.
func (e *executor) flagStuck(cut time.Time) {
	p := e.pool
	e.mu.Lock()
	for _, c := range e.active {
		if !c.wdFlagged && c.startAt.Before(cut) {
			c.wdFlagged = true
			p.stats.Watchdog.Add(1)
			if fs := p.stats.perFunc[c.req.fn.Name]; fs != nil {
				fs.Watchdog.Add(1)
			}
			if cb := p.cfg.OnWatchdog; cb != nil {
				cb(c.req.fn.Name)
			}
			if tr := p.tr; tr != nil {
				// Freeze a flight-recorder incident: a stuck body holding
				// a PD and runner is exactly the state worth forensics.
				// Rate-limited inside; the capture reads only atomics and
				// trace-internal locks (safe under e.mu).
				tr.TripWatchdog(c.req.fn.Name)
			}
		}
	}
	e.mu.Unlock()
}

// runner is a pooled coroutine (iter.Pull) that executes continuations in
// place of whichever executor switches into it: next runs cur's body
// (ccall) or resumes it (center) until the body finishes or suspends in
// Ctx.Wait (cexit, a yield) — one coroutine switch each way, no trip
// through the scheduler's run queue. A runner whose continuation suspends
// stays bound to it until the final resume. Pooling the coroutines keeps
// spawning off the hot path. A body must not call runtime.Goexit: next
// propagates the coroutine's exit, so it would end the executor as well.
type runner struct {
	cur   *continuation
	next  func() (struct{}, bool)
	yield func(struct{}) bool
	stop  func()
}

func newRunner(p *Pool) *runner {
	rn := &runner{}
	rn.next, rn.stop = iter.Pull(func(yield func(struct{}) bool) {
		rn.yield = yield
		for {
			rn.cur.execute(p)
			if !yield(struct{}{}) {
				return
			}
		}
	})
	return rn
}

// continuation is one executing function instance: its runner coroutine,
// its protection domain, and its nested-call state — the live analogue of
// core.Continuation. Continuations are recycled through a pool; their
// children and holds slices survive reuse.
type continuation struct {
	req    *request
	exec   *executor
	pd     PDID
	runner *runner

	mu       sync.Mutex
	waiting  *request   // child currently suspended on
	children []*request // Async cookies index into this
	live     int        // non-nil children entries (submitted, not collected)

	// holds tracks state handles (snapshots, open transactions) the body
	// obtained, for force-release at teardown. Appended only by the body's
	// runner, read by finishInvocation after the final yield — no lock
	// needed. Capacity recycles with the continuation.
	holds []router.StateHold

	// detached/orphans track teardown with in-flight un-Waited children:
	// finishInvocation leaves the continuation un-pooled and the last
	// orphan's finish recycles it (guarded by mu).
	detached bool
	orphans  int

	// doneCh/stopCh back Ctx.Done: lazily created on first call (guarded
	// by mu); stopCh closing at finishInvocation retires the watcher
	// goroutine before any recycling.
	doneCh chan struct{}
	stopCh chan struct{}

	// startAt/wdFlagged are the ExecTimeout watchdog state, maintained
	// only when the watchdog is on (guarded by exec.mu via the active
	// list).
	startAt   time.Time
	wdFlagged bool

	finished bool
	resp     []byte
	err      error

	// ctx is the invocation's programming interface, embedded so entering
	// a function allocates nothing.
	ctx Ctx
}

// execute runs the function body; the runner then yields the executor
// back. A panicking body is caught and surfaced as an invocation error —
// one function must not take down the worker (the whole point of the
// paper's isolation).
func (c *continuation) execute(p *Pool) {
	defer func() {
		if rec := recover(); rec != nil {
			c.err = fmt.Errorf("%w: %s: %v", ErrPanicked, c.req.fn.Name, rec)
		}
		c.finished = true
	}()
	c.ctx.pool = p
	c.ctx.cont = c
	c.resp, c.err = c.req.fn.Body(&c.ctx)
}
