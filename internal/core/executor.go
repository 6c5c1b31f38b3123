package core

import (
	"fmt"

	"jord/internal/mem/vmatable"
	"jord/internal/sim/engine"
	"jord/internal/sim/topo"
)

// Executor runs function invocations on one pinned core (§3.4). It holds a
// bounded queue of dispatched-but-unstarted requests and an unbounded list
// of suspended continuations ready to resume; resumptions have priority so
// in-flight work drains before new work starts.
type Executor struct {
	sys  *System
	Core topo.CoreID
	proc *engine.Proc
	orch *Orchestrator

	queue  []*Request
	resume []*Continuation

	// current is the continuation the executor has handed the core to;
	// contYielded flags that it gave the core back (finished or cexit).
	// The explicit flag distinguishes the continuation handshake from
	// unrelated Unparks (e.g. a remote executor queueing a resumption).
	current     *Continuation
	contYielded bool

	Started   uint64
	Completed uint64
	Suspends  uint64

	IsolationCycles engine.Time
}

func newExecutor(s *System, core topo.CoreID) *Executor {
	e := &Executor{sys: s, Core: core}
	e.proc = s.Eng.Spawn(fmt.Sprintf("exec-%d", core), e.run)
	if s.Cfg.TimeSliceNS > 0 {
		e.spawnInterference()
	}
	return e
}

// spawnInterference models a co-located tenant's OS context switches:
// once per time slice the core's VLBs are invalidated (cached user
// translations do not survive the address-space switch; the uatp/uatc/
// ucid CSRs are saved and restored by the OS, §4.4). Jord-specific code
// then pays cold VTW walks to refill — which the paper's nanosecond walk
// makes nearly free, the claim this knob lets tests verify.
func (e *Executor) spawnInterference() {
	s := e.sys
	slice := s.nsToCycles(s.Cfg.TimeSliceNS)
	s.Eng.Spawn(fmt.Sprintf("tenant-%d", e.Core), func(p *engine.Proc) {
		for {
			p.Delay(slice)
			s.Lib.Sub.FlushCore(e.Core)
		}
	})
}

// queueLen is what the orchestrator's JBSQ probe reads.
func (e *Executor) queueLen() int { return len(e.queue) }

// enqueue accepts a dispatched request.
func (e *Executor) enqueue(r *Request) {
	e.queue = append(e.queue, r)
	e.proc.Unpark()
}

// readyResume queues a suspended continuation for resumption.
func (e *Executor) readyResume(c *Continuation) {
	e.resume = append(e.resume, c)
	e.proc.Unpark()
}

// run is the executor loop: resume suspended continuations first, then
// start queued requests, else sleep.
func (e *Executor) run(p *engine.Proc) {
	for {
		switch {
		case len(e.resume) > 0:
			c := e.resume[0]
			e.resume = e.resume[1:]
			e.resumeContinuation(p, c)
		case len(e.queue) > 0:
			if !e.sys.Lib.HasFreePDs() {
				// Every PD ID is held by a suspended function; starting
				// new work would fault in cget. Stall until something
				// completes (each retry consumes one wakeup, so this
				// cannot spin).
				p.Park()
				continue
			}
			r := e.queue[0]
			e.queue = e.queue[1:]
			e.orch.proc.Unpark() // capacity freed: wake a stalled orchestrator
			e.startInvocation(p, r)
		default:
			p.Park()
		}
	}
}

// chargeIsolation delays the executor by a PrivLib op's latency plus the
// I-VLB cost of the PrivLib entry/exit, and books it to the request's
// isolation bucket.
func (e *Executor) chargeIsolation(p *engine.Proc, r *Request, lat engine.Time, err error) {
	if err != nil {
		panic(fmt.Sprintf("core: executor %d isolation op: %v", e.Core, err))
	}
	lat += e.sys.touchInstr(e.Core, vmatable.ExecutorPD, e.sys.funcDef(r.Fn).codeVA)
	p.Delay(lat)
	r.Trace.Isolation += lat
	e.IsolationCycles += lat
}

// chargeAlloc is chargeIsolation for VMA (de)allocations, which land in
// the Alloc bucket: JordNI pays them too, so they are not isolation
// overhead in the paper's sense.
func (e *Executor) chargeAlloc(p *engine.Proc, r *Request, lat engine.Time, err error) {
	if err != nil {
		panic(fmt.Sprintf("core: executor %d alloc op: %v", e.Core, err))
	}
	lat += e.sys.touchInstr(e.Core, vmatable.ExecutorPD, e.sys.funcDef(r.Fn).codeVA)
	p.Delay(lat)
	r.Trace.Alloc += lat
}

// startInvocation implements the Figure 4 flow: initialize the PD (private
// stack and heap, code permission, ArgBuf permission), ccall into the
// function, and — when the function finally finishes — tear everything
// down and report completion.
func (e *Executor) startInvocation(p *engine.Proc, r *Request) {
	lib := e.sys.Lib
	def := e.sys.funcDef(r.Fn)
	r.ServiceStart = p.Now()
	e.Started++
	e.sys.trace(EvDequeue, r, e.Core, "")

	// Dequeue: the request line (written by the orchestrator) migrates to
	// this core.
	p.Delay(e.sys.MM.LinePing(e.Core, e.orch.Core, qAddr(e)))

	var c *Continuation
	if e.sys.Cfg.NightCore {
		// NightCore worker: read the dispatch pipe (the blocked thread
		// pays a scheduler wakeup first), copy the arguments out of shm,
		// deserialize. No protection domains.
		c = &Continuation{req: r, exec: e, pd: vmatable.ExecutorPD}
		bytes := r.Blocks * 64
		cost := e.sys.IPC.WakeupLatency() + e.sys.IPC.MessageRecvCPU(bytes)
		p.Delay(cost)
		r.Trace.Comm += cost
	} else {
		// --- Initialize PD (Figure 4) ---
		pd, lat, err := lib.Cget(e.Core)
		if err != nil {
			// PD space was exhausted between the loop's capacity check
			// and now (virtual time passed during the dequeue). Requeue
			// at the front; the loop will stall until capacity returns.
			e.queue = append([]*Request{r}, e.queue...)
			return
		}
		e.chargeIsolation(p, r, lat, nil)
		c = &Continuation{req: r, exec: e, pd: pd}

		stackVA, lat, err := lib.Mmap(e.Core, pd, e.sys.Cfg.StackBytes, vmatable.PermRW)
		e.chargeAlloc(p, r, lat, err)
		c.stackVA = stackVA
		heapVA, lat, err := lib.Mmap(e.Core, pd, e.sys.Cfg.HeapBytes, vmatable.PermRW)
		e.chargeAlloc(p, r, lat, err)
		c.heapVA = heapVA

		// Copy code permission into the PD (the executor domain retains it).
		lat, err = lib.Pcopy(e.Core, vmatable.ExecutorPD, def.codeVA, pd, vmatable.PermRX)
		e.chargeIsolation(p, r, lat, err)
		// Transfer the ArgBuf permission to the PD.
		lat, err = lib.Pmove(e.Core, vmatable.ExecutorPD, r.ArgBufVA, pd, vmatable.PermRW)
		e.chargeIsolation(p, r, lat, err)

		// The function's first touch of the ArgBuf pulls its blocks from
		// the producer core (zero-copy: only coherence traffic, no copies).
		if r.Producer != e.Core && r.Blocks > 0 {
			xfer := e.sys.MM.BlockStreamTransfer(r.Producer, e.Core, r.Blocks, r.ArgBufVA/64)
			p.Delay(xfer)
			r.Trace.Comm += xfer
		}

		e.sys.trace(EvPDInit, r, e.Core, fmt.Sprintf("pd=%d", c.pd))

		// --- Enter the PD ---
		lat, err = lib.Ccall(e.Core, c.pd)
		e.chargeIsolation(p, r, lat, err)
		e.sys.trace(EvEnter, r, e.Core, "")
	}

	// Launch the continuation and lend it the core.
	e.current = c
	c.proc = e.sys.Eng.Spawn(fmt.Sprintf("fn-%s-%d", def.Name, r.ID), func(fp *engine.Proc) {
		ctx := &Ctx{sys: e.sys, cont: c, proc: fp}
		c.err = def.Body(ctx)
		c.finished = true
		e.yieldFromContinuation()
	})
	e.waitForYield(p)

	if c.finished {
		e.finishInvocation(p, c)
	}
	// Otherwise the continuation suspended; it will come back through the
	// resume list when its child completes.
}

// resumeContinuation re-enters a suspended continuation (center) after its
// awaited child completed, first handing the child's result ArgBuf back to
// the parent's PD.
func (e *Executor) resumeContinuation(p *engine.Proc, c *Continuation) {
	lib := e.sys.Lib
	r := c.req

	if e.sys.Cfg.NightCore {
		// Switch the blocked worker thread back in.
		cost := e.sys.IPC.ThreadSwitch()
		p.Delay(cost)
		r.Trace.Comm += cost
	} else {
		lat, err := lib.Center(e.Core, c.pd)
		e.chargeIsolation(p, r, lat, err)
	}

	e.sys.trace(EvResume, r, e.Core, "")
	e.current = c
	c.proc.Unpark()
	e.waitForYield(p)

	if c.finished {
		e.finishInvocation(p, c)
	}
}

// waitForYield blocks the executor until its current continuation hands
// the core back, ignoring unrelated wakeups (those re-check the flag and
// park again; their work sits in the queue/resume lists for the main
// loop).
func (e *Executor) waitForYield(p *engine.Proc) {
	for !e.contYielded {
		p.Park()
	}
	e.contYielded = false
	e.current = nil
}

// yieldFromContinuation is called from the continuation proc when it
// finishes or suspends: it returns the core to the executor.
func (e *Executor) yieldFromContinuation() {
	e.contYielded = true
	e.proc.Unpark()
}

// finishInvocation is the right half of Figure 4: transfer the ArgBuf
// back, revoke code permission, destroy stack/heap and the PD, then notify
// the orchestrator (external) or resume the parent (nested).
func (e *Executor) finishInvocation(p *engine.Proc, c *Continuation) {
	lib := e.sys.Lib
	r := c.req

	if e.sys.Cfg.NightCore {
		// Serialize the result and send the completion pipe message.
		cost := e.sys.IPC.MessageSendCPU(r.Blocks * 64)
		p.Delay(cost)
		r.Trace.Comm += cost
	} else {
		// Transfer the ArgBuf (now holding outputs) back to the executor
		// domain.
		lat, err := lib.Pmove(e.Core, c.pd, r.ArgBufVA, vmatable.ExecutorPD, vmatable.PermRW)
		e.chargeIsolation(p, r, lat, err)
		// Revoke code access: move the PD's copy back onto the executor
		// domain's existing grant.
		lat, err = lib.Pmove(e.Core, c.pd, e.sys.funcDef(r.Fn).codeVA, vmatable.ExecutorPD, vmatable.PermRX)
		e.chargeIsolation(p, r, lat, err)

		// Any ArgBufs the function created for nested calls die with it.
		for _, va := range c.ownedBufs {
			lat, err = lib.Munmap(e.Core, vmatable.ExecutorPD, va)
			e.chargeAlloc(p, r, lat, err)
		}

		// Destroy the private stack and heap, then the PD.
		lat, err = lib.Munmap(e.Core, c.pd, c.stackVA)
		e.chargeAlloc(p, r, lat, err)
		lat, err = lib.Munmap(e.Core, c.pd, c.heapVA)
		e.chargeAlloc(p, r, lat, err)
		lat, err = lib.Cput(e.Core, c.pd)
		e.chargeIsolation(p, r, lat, err)
	}

	e.sys.trace(EvTeardown, r, e.Core, "")
	r.status = c.err
	e.Completed++

	// A nested request forwarded from another server completes back over
	// the network: its results must cross the wire before the parent can
	// observe them, so done is set by the cluster callback.
	if !r.External && r.remoteHop && e.sys.cluster != nil && r.parent.exec.sys != e.sys {
		if r.ArgBufVA != 0 {
			// The remote-side staging ArgBuf dies once the results ship.
			lat, err := lib.Munmap(e.Core, vmatable.ExecutorPD, r.ArgBufVA)
			e.chargeAlloc(p, r, lat, err)
			r.ArgBufVA = 0
		}
		e.sys.cluster.completeRemote(e, r, p)
		e.sys.recordInvocation(r, p.Now()-r.ServiceStart)
		return
	}
	r.done = true

	if r.External {
		// Notify the orchestrator; latency measurement ends when it is
		// informed (§5).
		note := e.sys.M.NetLatency(e.Core, e.orch.Core, ctrlMsgBytes)
		p.Delay(note)
		r.Trace.Comm += note
		e.sys.recordInvocation(r, p.Now()-r.ServiceStart)
		e.sys.completeExternal(r)
		e.sys.trace(EvComplete, r, e.Core, "")
		if !e.sys.Cfg.NightCore {
			// The root ArgBuf is dead once the response is sent.
			lat, err := lib.Munmap(e.Core, vmatable.ExecutorPD, r.ArgBufVA)
			e.chargeAlloc(p, r, lat, err)
		}
		return
	}

	// Nested request: hand the result to the parent continuation's
	// executor and make the parent runnable if it is waiting on us.
	parent := r.parent
	note := e.sys.M.NetLatency(e.Core, parent.exec.Core, ctrlMsgBytes)
	p.Delay(note)
	r.Trace.Comm += note
	e.sys.recordInvocation(r, p.Now()-r.ServiceStart)
	if parent.waiting == r {
		parent.waiting = nil
		parent.exec.readyResume(parent)
	}
}
