package pool

import (
	"math"
	"sync"
	"time"

	"jord/internal/jbsq"
)

// orchestrator is the live port of core.Orchestrator: it owns an external
// and an internal request queue and JBSQ-dispatches into its executor
// group. Internal (nested) requests have absolute priority and bypass the
// JBSQ bound — §3.3's deadlock avoidance: a saturated system keeps
// dispatching the children its suspended parents are waiting on.
type orchestrator struct {
	pool  *Pool
	id    int
	group []*executor

	mu     sync.Mutex
	cond   *sync.Cond
	extQ   deque[*request]
	intQ   deque[*request]
	closed bool

	// rr rotates the JBSQ scan's starting point so ties spread across the
	// group instead of always landing on the first executor.
	rr int
}

func newOrchestrator(p *Pool, id int) *orchestrator {
	o := &orchestrator{pool: p, id: id}
	o.cond = sync.NewCond(&o.mu)
	return o
}

// submitExternal enqueues an external request, applying the bounded-queue
// admission check (ErrSaturated -> the gateway's 429).
func (o *orchestrator) submitExternal(r *request) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.closed || o.pool.draining.Load() {
		return ErrDraining
	}
	if o.extQ.Len() >= o.pool.cfg.ExternalQueueCap {
		return ErrSaturated
	}
	o.extQ.PushBack(r)
	o.cond.Signal()
	return nil
}

// submitInternal enqueues a nested request from a function running on one
// of this orchestrator's executors. The internal queue is unbounded:
// rejecting it would deadlock the suspended parent (§3.3).
func (o *orchestrator) submitInternal(r *request) {
	o.mu.Lock()
	o.intQ.PushBack(r)
	o.cond.Signal()
	o.mu.Unlock()
}

// capacityFreed is called by executors after each dequeue: a stalled
// orchestrator (all queues at the JBSQ bound) re-probes. Signal and Wait
// both run under o.mu, so the wakeup cannot be lost between the probe and
// the Wait.
func (o *orchestrator) capacityFreed() {
	o.mu.Lock()
	o.cond.Signal()
	o.mu.Unlock()
}

func (o *orchestrator) close() {
	o.mu.Lock()
	o.closed = true
	o.cond.Broadcast()
	o.mu.Unlock()
}

func (o *orchestrator) depths() (ext, internal int) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.extQ.Len(), o.intQ.Len()
}

// sweep removes requests that died before dispatch — deadline already
// expired, or caller gone (canceled) — from both queues and appends them
// to dead. The caller finishes the dead outside o.mu (finish takes parent
// locks for nested requests). Without this, a dead request on a saturated
// worker occupies a queue slot until an executor happens to dequeue it —
// potentially forever for a PD-gated external behind a stuck body.
func (o *orchestrator) sweep(dead []*request, now time.Time) []*request {
	o.mu.Lock()
	for _, q := range [2]*deque[*request]{&o.extQ, &o.intQ} {
		for i := 0; i < q.Len(); {
			r := q.At(i)
			if r.canceled.Load() || (!r.deadline.IsZero() && now.After(r.deadline)) {
				dead = append(dead, q.RemoveAt(i))
				continue
			}
			i++
		}
	}
	o.mu.Unlock()
	return dead
}

// run is the dispatch loop: pick the next request — internal queue first —
// then JBSQ it into the group. The mutex is held across the probe so an
// executor's capacityFreed cannot slip between a failed probe and the
// Wait; it is released around the actual enqueue to keep the executor and
// orchestrator locks disjoint (no lock-order cycles).
func (o *orchestrator) run() {
	defer o.pool.loops.Done()
	o.mu.Lock()
	for {
		if o.closed && o.intQ.Len() == 0 && o.extQ.Len() == 0 {
			o.mu.Unlock()
			return
		}
		var r *request
		internal := false
		switch {
		case o.intQ.Len() > 0:
			r, internal = o.intQ.At(0), true
		case o.extQ.Len() > 0:
			r = o.extQ.At(0)
		default:
			o.cond.Wait()
			continue
		}

		i := o.jbsq(internal)
		if i < 0 {
			// Every executor queue is at the bound: wait for a dequeue
			// (capacityFreed) or a new internal arrival.
			o.cond.Wait()
			continue
		}

		// Pop from the owning queue, then hand off outside the lock.
		if internal {
			o.intQ.PopFront()
		} else {
			o.extQ.PopFront()
		}
		o.mu.Unlock()
		o.group[i].enqueue(r)
		o.pool.stats.Dispatched.AddShard(o.id, 1)
		o.mu.Lock()
	}
}

// jbsq picks the group member with the shortest queue below the JBSQ
// bound, or -1; internal requests ignore the bound. The queue lengths are
// atomic reads — like the simulator's cross-core probe loads, they are
// racy against concurrent enqueues by other orchestrators, which bounds
// (not eliminates) queue depth exactly as real JBSQ does.
func (o *orchestrator) jbsq(internal bool) int {
	bound := int64(o.pool.cfg.JBSQBound)
	if internal {
		bound = math.MaxInt64
	}
	o.rr++
	return jbsq.Pick(len(o.group), o.rr, func(i int) (int64, int64, bool) {
		return int64(o.group[i].qlen.Load()), bound, true
	})
}
