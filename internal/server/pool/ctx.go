package pool

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"jord/internal/mem/vmatable"
	"jord/internal/server/router"
	"jord/internal/server/trace"
)

// Ctx is the live programming interface a function body sees — the same
// Listing 1 surface as the simulator's core.Ctx (call/async/wait over
// zero-copy ArgBufs), implemented over coroutines. It is embedded in
// the continuation (no per-invocation allocation) and satisfies
// router.Ctx. It must not be retained past the function body's return:
// the invocation's bookkeeping recycles once the body finishes.
type Ctx struct {
	pool *Pool
	cont *continuation
}

var _ router.Ctx = (*Ctx)(nil)

// PD returns the protection domain this invocation runs in.
func (c *Ctx) PD() PDID { return c.cont.pd }

// FuncName names the function this invocation runs.
func (c *Ctx) FuncName() string { return c.cont.req.fn.Name }

// Err reports whether this invocation should stop: context.Canceled once
// the external caller abandoned the request tree (or this invocation was
// orphaned by its parent's teardown), context.DeadlineExceeded once the
// inherited deadline passed, nil otherwise. Cancellation is cooperative —
// the runtime checks it at every queue dequeue, Async, and Wait, and
// long-running bodies should poll it (or select on Done) so stuck work
// releases its PD and runner promptly.
func (c *Ctx) Err() error {
	r := c.cont.req
	if r.canceled.Load() {
		return context.Canceled
	}
	if !r.deadline.IsZero() && time.Now().After(r.deadline) {
		return context.DeadlineExceeded
	}
	return nil
}

// Deadline returns the invocation's deadline (inherited from the external
// request's context by every nested call), like context.Context.Deadline.
func (c *Ctx) Deadline() (time.Time, bool) {
	dl := c.cont.req.deadline
	return dl, !dl.IsZero()
}

// cancelPollInterval is how often a Done watcher re-evaluates the
// cancellation state. Coarse on purpose: Done is for long-running bodies
// (milliseconds and up), and the watcher exists only while one is using it.
const cancelPollInterval = time.Millisecond

// Done returns a channel closed when Err would return non-nil, like
// context.Context.Done — the select-friendly form of Err for bodies that
// block on their own channels or timers. The channel (and its watcher
// goroutine, retired at invocation teardown) is created lazily on first
// call, so bodies that never ask pay nothing. Like Ctx itself it must not
// be retained past the body's return.
func (c *Ctx) Done() <-chan struct{} {
	cont := c.cont
	cont.mu.Lock()
	if cont.doneCh == nil {
		cont.doneCh = make(chan struct{})
		cont.stopCh = make(chan struct{})
		r := cont.req
		go watchCancel(r.deadline, &r.canceled, cont.doneCh, cont.stopCh)
	}
	d := cont.doneCh
	cont.mu.Unlock()
	return d
}

// watchCancel closes done once the deadline passes or the canceled flag
// flips, and exits when stop closes (invocation teardown). It captures the
// deadline by value and the canceled flag by pointer so it never touches
// other request fields after the request recycles; the atomic load of a
// recycled flag in the teardown window is race-free and its result is
// discarded with the channel.
func watchCancel(deadline time.Time, canceled *atomic.Bool, done, stop chan struct{}) {
	t := time.NewTicker(cancelPollInterval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			if canceled.Load() || (!deadline.IsZero() && time.Now().After(deadline)) {
				close(done)
				<-stop
				return
			}
		}
	}
}

// Payload returns the invocation's input ArgBuf contents. The read is
// permission-checked against this invocation's PD; since the runtime
// pmoved the buffer in before entering the function, the check can only
// fail if the body leaked the buffer away (e.g. via a nested call that is
// still holding it) — which is exactly the misuse the check exists to
// catch, so it panics the invocation (recovered into a 500).
func (c *Ctx) Payload() []byte {
	b, err := c.cont.req.buf.Read(c.cont.pd)
	if err != nil {
		panic(err)
	}
	return b
}

// Call invokes fn synchronously: submit, then suspend until the callee
// finishes (Listing 1: jord::call).
func (c *Ctx) Call(fn string, payload []byte) ([]byte, error) {
	ck, err := c.Async(fn, payload)
	if err != nil {
		return nil, err
	}
	return c.Wait(ck)
}

// Async submits a nested invocation of fn and returns a cookie to Wait on
// (Listing 1: jord::async). The child's ArgBuf is allocated in this PD,
// populated, then pmoved to the runtime domain — the child request rides
// the internal queue, which has absolute dispatch priority (§3.3).
func (c *Ctx) Async(fn string, payload []byte) (router.Cookie, error) {
	p := c.pool
	cont := c.cont
	// A dead invocation submits no new work: once the caller is gone or
	// the deadline passed, fan-outs stop growing and unwind instead.
	if err := c.Err(); err != nil {
		return 0, err
	}
	def := p.reg.Lookup(fn)
	if def == nil {
		return 0, fmt.Errorf("%w: %q", ErrUnknownFunction, fn)
	}
	// Allocate the child's ArgBuf in the caller's PD and hand it to the
	// runtime (pmove), exactly as core.Ctx.submit stages nested calls.
	buf := p.tab.NewVMA(cont.pd, payload, vmatable.PermRW)
	if err := buf.Pmove(cont.pd, vmatable.ExecutorPD, vmatable.PermRW); err != nil {
		putVMA(buf)
		return 0, err
	}
	child := p.getRequest()
	child.fn = def
	child.buf = buf
	child.deadline = cont.req.deadline // nested work inherits the deadline
	child.parent = cont
	if tr := p.tr; tr != nil {
		// Sub-span: the child gets its own span linked to the parent. The
		// parent's span ID is assigned lazily here on its first Async —
		// the plain no-fan-out hot path never touches the shared counter.
		// As in Pool.submit, the trace stamp IS the arrival record: no
		// traced-path reader of child.arrival exists, so time.Now is
		// skipped.
		pr := cont.req
		if pr.span.ID == 0 {
			pr.span.ID = tr.NextID()
		}
		m := tr.Now()
		child.span.StartNS = m
		child.span.ParentID = pr.span.ID
		child.span.FuncID = int32(def.ID)
		child.tSubmit = m
		child.tMark = m
		pr.span.Children++
	} else {
		child.arrival = time.Now()
	}
	cont.mu.Lock()
	cont.children = append(cont.children, child)
	cont.live++
	ck := router.Cookie(len(cont.children) - 1)
	cont.mu.Unlock()
	if !child.deadline.IsZero() {
		p.sweepableAdd() // balanced by the child's finish
	}
	cont.exec.orch.submitInternal(child)
	return ck, nil
}

// Wait blocks until the invocation named by cookie completes, suspending
// the continuation (cexit) if necessary, and hands the result ArgBuf back
// to this PD (Listing 1: jord::wait).
func (c *Ctx) Wait(ck router.Cookie) ([]byte, error) {
	cont := c.cont
	// A dead invocation stops collecting: propagate the cancellation to
	// every outstanding child (queued ones then die at dequeue or sweep;
	// running ones observe it via their own Err) and unwind immediately.
	// The un-collected children — including ck's — stay in the children
	// list, where finishInvocation's orphan reaping owns their teardown.
	if err := c.Err(); err != nil {
		cont.cancelChildren()
		return nil, err
	}
	cont.mu.Lock()
	if int(ck) < 0 || int(ck) >= len(cont.children) {
		cont.mu.Unlock()
		return nil, fmt.Errorf("pool: wait on unknown cookie %d", ck)
	}
	child := cont.children[ck]
	if child == nil {
		cont.mu.Unlock()
		return nil, fmt.Errorf("pool: wait on already-collected cookie %d", ck)
	}
	cont.children[ck] = nil
	cont.live--

	// Decide atomically with the child's completion handshake whether to
	// suspend: finish() flips child.completed and checks cont.waiting
	// under this same lock, so exactly one side sees the other.
	suspend := false
	if !child.completed {
		cont.waiting = child
		suspend = true
	}
	cont.mu.Unlock()

	if suspend {
		// cexit: yield the executor back; it runs other work until the
		// child completes and readyResume re-centers us (the executor's
		// next call returns here). The suspended window is the span's
		// wait stage, bracketing exec around it.
		tr := c.pool.tr
		if tr != nil {
			r := cont.req
			now := tr.Now()
			r.span.Stages[trace.StageExec] += now - r.tMark
			r.tMark = now
		}
		cont.exec.suspends.Add(1)
		cont.runner.yield(struct{}{})
		if tr != nil {
			r := cont.req
			now := tr.Now()
			r.span.Stages[trace.StageWait] += now - r.tMark
			r.tMark = now
		}
	}

	if err := child.err; err != nil {
		c.pool.releaseRequest(child)
		return nil, err
	}
	// Collect: the result ArgBuf returns to this PD (pmove) and is read
	// in place — zero-copy, like the simulator's collect path. Once read,
	// the child request and ArgBuf structure recycle; the returned bytes
	// stay valid (see VMA.Read).
	if err := child.buf.Pmove(vmatable.ExecutorPD, cont.pd, vmatable.PermRW); err != nil {
		c.pool.putRequest(child)
		return nil, err
	}
	b, err := child.buf.Read(cont.pd)
	c.pool.releaseRequest(child)
	return b, err
}

// StateGet returns a read snapshot of a shared-state key. The store hands
// this PD a pcopy R grant on the value's VMA — or, for globally promoted
// hot keys (the VTE G bit), no grant at all: the bytes are readable under
// the global permission with zero PD traffic and zero copies. The handle
// is tracked on the continuation and force-released at teardown if the
// body does not Release it.
func (c *Ctx) StateGet(scope router.StateScope, key string) (router.StateSnap, error) {
	p := c.pool
	if p.state == nil {
		return nil, ErrNoState
	}
	t0 := c.stateStart()
	s, err := p.state.Get(c.cont.pd, c.cont.req.fn.Name, scope, key)
	c.stateEnd(t0)
	if err != nil {
		return nil, err
	}
	c.cont.holds = append(c.cont.holds, s)
	return s, nil
}

// stateStart/stateEnd bracket one state-tier operation for the span's
// state stage (a break-out of exec time, not subtracted from it).
func (c *Ctx) stateStart() int64 {
	if tr := c.pool.tr; tr != nil {
		return tr.Now()
	}
	return 0
}

func (c *Ctx) stateEnd(t0 int64) {
	if tr := c.pool.tr; tr != nil {
		r := c.cont.req
		r.span.Stages[trace.StageState] += tr.Now() - t0
		r.span.StateOps++
	}
}

// StateTake acquires exclusive write ownership of a key: the store pmoves
// the value's VMA RW into this PD. An open transaction at teardown (return,
// panic, watchdog-killed stuck body unwinding) is discarded — ownership
// pmoves back, the committed value untouched.
func (c *Ctx) StateTake(scope router.StateScope, key string) (router.StateTx, error) {
	p := c.pool
	if p.state == nil {
		return nil, ErrNoState
	}
	t0 := c.stateStart()
	tx, err := p.state.Take(c.cont.pd, c.cont.req.fn.Name, scope, key)
	c.stateEnd(t0)
	if err != nil {
		return nil, err
	}
	c.cont.holds = append(c.cont.holds, tx)
	return tx, nil
}

// StatePut atomically creates or replaces a key's value — a take/commit
// micro-transaction held entirely inside the store, never across body code.
func (c *Ctx) StatePut(scope router.StateScope, key string, val []byte) (uint64, error) {
	p := c.pool
	if p.state == nil {
		return 0, ErrNoState
	}
	t0 := c.stateStart()
	ver, err := p.state.Put(c.cont.pd, c.cont.req.fn.Name, scope, key, val)
	c.stateEnd(t0)
	return ver, err
}

// StateDelete removes a key (fails while another invocation owns it).
func (c *Ctx) StateDelete(scope router.StateScope, key string) error {
	p := c.pool
	if p.state == nil {
		return ErrNoState
	}
	t0 := c.stateStart()
	err := p.state.Delete(c.cont.pd, c.cont.req.fn.Name, scope, key)
	c.stateEnd(t0)
	return err
}

// cancelChildren marks every outstanding (submitted, un-collected,
// unfinished) child canceled, cascading an observed cancellation one
// level down the call tree. Deeper descendants observe it the same way
// when those children hit their own Async/Wait/Err checks.
func (c *continuation) cancelChildren() {
	c.mu.Lock()
	for _, ch := range c.children {
		if ch != nil && !ch.completed {
			ch.canceled.Store(true)
		}
	}
	c.mu.Unlock()
}
