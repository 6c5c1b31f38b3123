package core

import (
	"fmt"
	"math"

	"jord/internal/jbsq"
	"jord/internal/mem/vmatable"
	"jord/internal/privlib"
	"jord/internal/sim/engine"
	"jord/internal/sim/topo"
)

// Dispatch cost model parameters.
const (
	// dispatchMLP is how many outstanding queue-length probe loads the
	// out-of-order core overlaps during the JBSQ scan (§6.3: "memory-level
	// parallelism that allows loads to multiple cores to be performed
	// simultaneously").
	dispatchMLP = 8
	// dispatchFixedInstr covers request parsing, policy selection, and the
	// final enqueue bookkeeping.
	dispatchFixedInstr = 40
	// probeInstr is the per-executor loop body around the queue-length load.
	probeInstr = 4
	// ctrlMsgBytes sizes dispatch/completion control messages.
	ctrlMsgBytes = 8
)

// Orchestrator receives external requests, accepts internal (nested)
// requests from executors, and dispatches both to its executor group with
// JBSQ, giving internal requests absolute priority to guarantee forward
// progress (§3.3).
type Orchestrator struct {
	sys  *System
	Core topo.CoreID
	proc *engine.Proc

	group []*Executor

	extQ []*Request
	intQ []*Request

	// rr rotates the JBSQ scan's starting point so ties (common at light
	// load, when every queue is empty) spread across the group instead of
	// always picking the lowest-numbered executor.
	rr int

	// Stats.
	Dispatched     uint64
	DispatchCycles engine.Time
	StallCycles    engine.Time
}

func newOrchestrator(s *System, core topo.CoreID) *Orchestrator {
	o := &Orchestrator{sys: s, Core: core}
	o.proc = s.Eng.Spawn(fmt.Sprintf("orch-%d", core), o.run)
	return o
}

// submitExternal enqueues an external request (called from the load
// generator at arrival time).
func (o *Orchestrator) submitExternal(r *Request) {
	o.extQ = append(o.extQ, r)
	o.proc.Unpark()
}

// submitInternal enqueues a nested request generated by a function running
// on one of this orchestrator's executors.
func (o *Orchestrator) submitInternal(r *Request) {
	if r.Arrival == 0 {
		r.Arrival = o.sys.Eng.Now()
	}
	o.intQ = append(o.intQ, r)
	o.proc.Unpark()
}

// run is the orchestrator loop: pick the next request — internal queue
// first (§3.3 deadlock avoidance: external requests are dispatched only
// when the internal queue is empty) — then JBSQ-dispatch it.
func (o *Orchestrator) run(p *engine.Proc) {
	for {
		var r *Request
		internal := false
		switch {
		case len(o.intQ) > 0 && !o.sys.Cfg.UnsafeNoInternalPriority:
			r = o.intQ[0]
			internal = true
		case len(o.extQ) > 0:
			r = o.extQ[0]
		case len(o.intQ) > 0:
			r = o.intQ[0]
			internal = true
		default:
			p.Park()
			continue
		}
		// Under the ablation, nested requests get no bound exemption.
		bypassBound := internal && !o.sys.Cfg.UnsafeNoInternalPriority

		start := p.Now()
		if !r.staged {
			// Stage the request payload (§3.3: "orchestrators save these
			// requests into ArgBufs"; NightCore copies into shm instead).
			// External requests always need this; so do internal requests
			// forwarded from another worker server.
			o.stageRequest(p, r)
		}

		target, probeCost := o.pick(bypassBound)
		p.Delay(probeCost)

		// §3.3: internal requests that cannot be served on this worker
		// server — every local executor is saturated past the spill
		// threshold — are sent through the network to another server.
		// A request is forwarded at most once (no ping-pong): wherever it
		// lands second, it executes.
		if internal && !r.remoteHop && target != nil && o.sys.cluster != nil {
			cl := o.sys.cluster
			if cl.Cfg.SpillQueueThreshold > 0 && len(cl.Servers) > 1 &&
				target.queueLen() >= cl.Cfg.SpillQueueThreshold {
				o.intQ = o.intQ[1:]
				cl.forwardInternal(o, r, p)
				continue
			}
		}

		if target == nil {
			// Every executor queue is at the bound: wait for capacity.
			// An executor unparks us when it dequeues; new arrivals do
			// too. The request stays at the head of its queue.
			o.StallCycles += probeCost
			p.Park()
			continue
		}

		// Pop from the owning queue.
		if internal {
			o.intQ = o.intQ[1:]
		} else {
			o.extQ = o.extQ[1:]
		}

		// Push into the executor queue: the request line migrates to the
		// executor's cache when it polls, but the enqueue itself writes
		// the queue tail (one line ping if the executor owns it).
		// NightCore additionally notifies the worker over a pipe.
		pushCost := o.sys.MM.LinePing(o.Core, target.Core, qAddr(target)) +
			o.sys.M.Cfg.Instr(dispatchFixedInstr)
		if o.sys.Cfg.NightCore {
			pushCost += o.sys.IPC.PipeSendCPU(ctrlMsgBytes)
		}
		p.Delay(pushCost)

		cost := p.Now() - start
		r.Trace.Dispatch += cost
		r.Trace.Queue += start - r.Arrival
		o.Dispatched++
		o.DispatchCycles += cost
		o.sys.Res.DispatchNS.Record(int64(o.sys.cyclesToNS(cost)))
		o.sys.trace(EvDispatch, r, o.Core, fmt.Sprintf("-> executor %d", target.Core))

		target.enqueue(r)
	}
}

// stageRequest prepares the request payload: a fresh ArgBuf VMA in Jord,
// a malloc+copy into SysV shm in NightCore.
func (o *Orchestrator) stageRequest(p *engine.Proc, r *Request) {
	bytes := uint64(r.Blocks) * 64
	if bytes == 0 {
		bytes = 64
	}
	var cost engine.Time
	if o.sys.Cfg.NightCore {
		cost = o.sys.IPC.Malloc() + o.sys.IPC.ShmCopy(int(bytes))
	} else {
		va, lat, err := o.sys.Lib.Mmap(o.Core, privlib.ExecutorPD, bytes, vmatable.PermRW)
		if err != nil {
			panic(fmt.Sprintf("core: orchestrator ArgBuf mmap: %v", err))
		}
		r.ArgBufVA = va
		// Writing the payload: one store stream through the L1.
		cost = lat + engine.Time(r.Blocks)*o.sys.MM.L1Hit()
	}
	p.Delay(cost)
	r.Producer = o.Core
	r.staged = true
	r.Trace.Dispatch += cost
	o.sys.trace(EvStage, r, o.Core, "")
}

// jbsq picks the executor with the fewest queued requests below the JBSQ
// bound, or nil. When bypassBound is set (internal requests under the
// default policy), the bound is ignored: nested requests must make forward
// progress (§3.3). The returned cost models the probe loads with
// memory-level parallelism.
func (o *Orchestrator) jbsq(bypassBound bool) (*Executor, engine.Time) {
	var probeSum engine.Time
	bound := int64(o.sys.Cfg.JBSQBound)
	if bypassBound {
		bound = math.MaxInt64
	}
	o.rr++
	i := jbsq.Pick(len(o.group), o.rr, func(i int) (int64, int64, bool) {
		e := o.group[i]
		probeSum += o.sys.MM.LinePing(o.Core, e.Core, qAddr(e)) + o.sys.M.Cfg.Instr(probeInstr)
		return int64(e.queueLen()), bound, true
	})
	if i < 0 {
		return nil, probeSum / dispatchMLP
	}
	return o.group[i], probeSum / dispatchMLP
}

// qAddr gives each executor queue a stable pseudo-address for the cache
// model's home-slice hashing.
func qAddr(e *Executor) uint64 { return 0x71_0000 + uint64(e.Core)*64 }
