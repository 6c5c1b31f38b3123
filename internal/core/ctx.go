package core

import (
	"fmt"

	"jord/internal/mem/vmatable"
	"jord/internal/sim/engine"
	"jord/internal/sim/topo"
)

// Ctx is the programming interface a function body sees (Listing 1): it
// can compute, allocate VMAs, and invoke other functions synchronously or
// asynchronously with zero-copy ArgBufs. Every operation charges virtual
// time to the invocation's trace.
type Ctx struct {
	sys  *System
	cont *Continuation
	proc *engine.Proc

	// ncHeap mints fake addresses for NightCore-mode heap allocations.
	ncHeap uint64

	// activeBufs are ArgBufs currently owned by this PD, part of the
	// D-VLB working set (see vlbpressure.go).
	activeBufs []uint64
}

// Cookie identifies an asynchronous invocation for Wait.
type Cookie int

// PD returns the protection domain this function runs in.
func (c *Ctx) PD() vmatable.PDID { return c.cont.pd }

// Core returns the executor core running this function.
func (c *Ctx) Core() topo.CoreID { return c.cont.exec.Core }

// Now returns the current virtual time in cycles.
func (c *Ctx) Now() engine.Time { return c.proc.Now() }

// StackVA returns the base address of this invocation's private stack VMA.
func (c *Ctx) StackVA() uint64 { return c.cont.stackVA }

// HeapVA returns the base address of this invocation's private heap VMA.
func (c *Ctx) HeapVA() uint64 { return c.cont.heapVA }

// Exec models length cycles of function computation, including the D-VLB
// translation cost of the data accesses the computation performs.
func (c *Ctx) Exec(cycles engine.Time) {
	cost := cycles + c.touchData(cycles)
	c.proc.Delay(cost)
	c.cont.req.Trace.Exec += cost
	c.sys.trace(EvExecute, c.cont.req, c.Core(),
		fmt.Sprintf("%.0f ns", c.sys.cyclesToNS(cost)))
}

// ExecNS models ns nanoseconds of function computation.
func (c *Ctx) ExecNS(ns float64) { c.Exec(c.sys.nsToCycles(ns)) }

// Mmap allocates a VMA into the function's PD (Listing 1 line 19). The
// latency is charged to the isolation bucket. Under NightCore this is a
// plain heap allocation.
func (c *Ctx) Mmap(bytes uint64, perm vmatable.Perm) (uint64, error) {
	if c.sys.Cfg.NightCore {
		c.proc.Delay(c.sys.IPC.Malloc())
		c.ncHeap++
		return 0xAC<<32 | c.ncHeap, nil
	}
	va, lat, err := c.sys.Lib.Mmap(c.Core(), c.cont.pd, bytes, perm)
	if err != nil {
		return 0, err
	}
	lat += c.privCallInstr()
	c.proc.Delay(lat)
	c.cont.req.Trace.Alloc += lat
	c.noteActiveBuf(va)
	return va, nil
}

// privCallInstr is the I-VLB cost of entering and leaving PrivLib.
func (c *Ctx) privCallInstr() engine.Time {
	return c.sys.touchInstr(c.Core(), c.cont.pd, c.sys.funcDef(c.cont.req.Fn).codeVA)
}

// Munmap deallocates a VMA (Listing 1 line 21).
func (c *Ctx) Munmap(va uint64) error {
	if c.sys.Cfg.NightCore {
		c.proc.Delay(c.sys.IPC.Malloc()) // free() is as cheap as malloc()
		return nil
	}
	lat, err := c.sys.Lib.Munmap(c.Core(), c.cont.pd, va)
	if err != nil {
		return err
	}
	lat += c.privCallInstr()
	c.proc.Delay(lat)
	c.cont.req.Trace.Alloc += lat
	c.dropActiveBuf(va)
	return nil
}

// Load models an explicit read of addr from this PD — the threat-model
// surface: forged addresses fault (§3.1). The NightCore baseline performs
// no in-process checks.
func (c *Ctx) Load(addr uint64) error {
	if c.sys.Cfg.NightCore {
		return nil
	}
	lat, err := c.sys.Lib.Access(c.Core(), c.cont.pd, addr, vmatable.PermR, false)
	c.proc.Delay(lat)
	return err
}

// Store models an explicit write of addr from this PD.
func (c *Ctx) Store(addr uint64) error {
	if c.sys.Cfg.NightCore {
		return nil
	}
	lat, err := c.sys.Lib.Access(c.Core(), c.cont.pd, addr, vmatable.PermW, false)
	c.proc.Delay(lat)
	return err
}

// Async invokes fn with a fresh ArgBuf of the given payload size and
// returns immediately with a cookie to Wait on (Listing 1: jord::async).
func (c *Ctx) Async(fn FuncID, argBlocks int) (Cookie, error) {
	child, err := c.submit(fn, argBlocks)
	if err != nil {
		return 0, err
	}
	c.cont.children = append(c.cont.children, child)
	return Cookie(len(c.cont.children) - 1), nil
}

// Call invokes fn synchronously: it submits the request and suspends until
// the callee finishes (Listing 1: jord::call).
func (c *Ctx) Call(fn FuncID, argBlocks int) error {
	cookie, err := c.Async(fn, argBlocks)
	if err != nil {
		return err
	}
	return c.Wait(cookie)
}

// Wait blocks until the invocation named by cookie completes, suspending
// the continuation (cexit) if necessary, and hands the result ArgBuf back
// to this PD.
func (c *Ctx) Wait(cookie Cookie) error {
	if int(cookie) < 0 || int(cookie) >= len(c.cont.children) {
		return fmt.Errorf("core: wait on unknown cookie %d", cookie)
	}
	child := c.cont.children[cookie]
	if child == nil {
		return fmt.Errorf("core: wait on already-collected cookie %d", cookie)
	}
	if !child.done {
		c.suspendFor(child)
	}
	if c.sys.Cfg.NightCore {
		// Collect: copy the result out of shm and deserialize it.
		cost := c.sys.IPC.MessageRecvCPU(child.Blocks * 64)
		c.proc.Delay(cost)
		c.cont.req.Trace.Comm += cost
		c.cont.children[cookie] = nil
		return child.status
	}
	if child.ArgBufVA == 0 {
		// The child ran on another worker server; its results arrived
		// over the network (costs charged on the remote side), not in a
		// local ArgBuf.
		c.cont.children[cookie] = nil
		return child.status
	}
	// Collect: the result ArgBuf returns to this PD and its blocks stream
	// from the callee's core (zero-copy).
	lib := c.sys.Lib
	lat, err := lib.Pmove(c.Core(), vmatable.ExecutorPD, child.ArgBufVA, c.cont.pd, vmatable.PermRW)
	if err != nil {
		panic(fmt.Sprintf("core: collecting child ArgBuf: %v", err))
	}
	lat += c.privCallInstr()
	c.proc.Delay(lat)
	c.cont.req.Trace.Isolation += lat
	c.noteActiveBuf(child.ArgBufVA)
	if child.Producer != c.Core() && child.Blocks > 0 {
		xfer := c.sys.MM.BlockStreamTransfer(child.Producer, c.Core(), child.Blocks, child.ArgBufVA/64)
		c.proc.Delay(xfer)
		c.cont.req.Trace.Comm += xfer
	}
	c.cont.children[cookie] = nil
	return child.status
}

// submit creates the child request: allocate its ArgBuf in this PD, write
// the inputs, transfer the buffer to the executor domain, and enqueue the
// request on the orchestrator's internal queue.
func (c *Ctx) submit(fn FuncID, argBlocks int) (*Request, error) {
	if int(fn) < 0 || int(fn) >= len(c.sys.funcs) {
		return nil, fmt.Errorf("core: call to unknown function %d", fn)
	}
	lib := c.sys.Lib
	e := c.cont.exec
	r := c.cont.req

	bytes := uint64(argBlocks) * 64
	if bytes == 0 {
		bytes = 64
	}

	child := c.sys.newRequest(fn, argBlocks, false, c.cont)
	child.Producer = c.Core()
	child.measured = r.measured
	child.staged = true

	if c.sys.Cfg.NightCore {
		// Serialize the arguments, copy into shm, pipe-notify the gateway.
		cost := c.sys.IPC.MessageSendCPU(int(bytes))
		c.proc.Delay(cost)
		r.Trace.Comm += cost
	} else {
		va, lat, err := lib.Mmap(c.Core(), c.cont.pd, bytes, vmatable.PermRW)
		if err != nil {
			return nil, err
		}
		c.proc.Delay(lat + c.privCallInstr())
		r.Trace.Alloc += lat
		c.cont.ownedBufs = append(c.cont.ownedBufs, va)

		// Populate inputs (stores through the L1).
		writeCost := engine.Time(argBlocks) * c.sys.MM.L1Hit()
		c.proc.Delay(writeCost)
		r.Trace.Exec += writeCost

		// Hand the buffer to the runtime.
		lat, err = lib.Pmove(c.Core(), c.cont.pd, va, vmatable.ExecutorPD, vmatable.PermRW)
		if err != nil {
			return nil, err
		}
		c.proc.Delay(lat + c.privCallInstr())
		r.Trace.Isolation += lat
		child.ArgBufVA = va
	}

	// Submitting the internal request costs a control message to the
	// orchestrator.
	sub := c.sys.M.NetLatency(e.Core, e.orch.Core, ctrlMsgBytes)
	c.proc.Delay(sub)
	r.Trace.Comm += sub
	c.sys.trace(EvSubmit, r, c.Core(), fmt.Sprintf("child req %d -> %s", child.ID, c.sys.funcDef(fn).Name))
	e.orch.submitInternal(child)
	return child, nil
}

// suspendFor performs cexit: the continuation yields the core back to its
// executor until the child completes and the executor centers us again.
func (c *Ctx) suspendFor(child *Request) {
	e := c.cont.exec
	if c.sys.Cfg.NightCore {
		// The worker thread blocks on the result pipe: a voluntary
		// context switch instead of a 12 ns cexit.
		cost := c.sys.IPC.ThreadSwitch()
		c.proc.Delay(cost)
		c.cont.req.Trace.Comm += cost
	} else {
		lat, err := c.sys.Lib.Cexit(c.Core())
		if err != nil {
			panic(fmt.Sprintf("core: cexit: %v", err))
		}
		c.proc.Delay(lat)
		c.cont.req.Trace.Isolation += lat
	}

	// The Delay above yielded the engine; the child may have completed in
	// the meantime. Re-check before committing to the suspension so the
	// completion notification cannot be lost.
	if child.done {
		return
	}
	c.cont.waiting = child
	e.Suspends++
	c.sys.trace(EvSuspend, c.cont.req, c.Core(), fmt.Sprintf("waiting on req %d", child.ID))
	e.yieldFromContinuation()
	c.proc.Park() // until resumeContinuation unparks us
}
