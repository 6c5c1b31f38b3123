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
//
// An orchestrator is a dispatch group, not a goroutine: whoever changes
// what can be dispatched — a submitter (external or nested) or an
// executor that just dequeued — runs the dispatch step itself, so a
// request reaches its executor without waking a dispatcher first.
type orchestrator struct {
	pool  *Pool
	id    int
	group []*executor

	mu   sync.Mutex
	extQ deque[*request]
	intQ deque[*request]

	// rr rotates the JBSQ scan's starting point so ties spread across the
	// group instead of always landing on the first executor.
	rr int
}

// submitExternal enqueues an external request, applying the bounded-queue
// admission check (ErrSaturated -> the gateway's 429), and dispatches.
func (o *orchestrator) submitExternal(r *request) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.pool.draining.Load() {
		return ErrDraining
	}
	if o.extQ.Len() >= o.pool.cfg.ExternalQueueCap {
		return ErrSaturated
	}
	o.extQ.PushBack(r)
	o.dispatch()
	return nil
}

// submitInternal enqueues a nested request from a function running on one
// of this orchestrator's executors, and dispatches. The internal queue is
// unbounded: rejecting it would deadlock the suspended parent (§3.3).
func (o *orchestrator) submitInternal(r *request) {
	o.mu.Lock()
	o.intQ.PushBack(r)
	o.dispatch()
	o.mu.Unlock()
}

// capacityFreed is called by executors after each dequeue: externals held
// back at the JBSQ bound may dispatch now. The dequeue's qlen decrement
// happens before this takes o.mu, so either a submitter's probe saw the
// freed slot or this dispatch sees the submitter's queued request.
func (o *orchestrator) capacityFreed() {
	o.mu.Lock()
	o.dispatch()
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

// dispatch is the dispatch step, called with o.mu held: pick the next
// request — internal queue first — and JBSQ it into the group, until the
// queues are empty or every executor is at the bound (internal requests
// ignore the bound). The chosen slot is reserved in qlen under o.mu, and
// the lock is released around the actual enqueue to keep the executor and
// orchestrator locks disjoint (no lock-order cycles).
func (o *orchestrator) dispatch() {
	for {
		q, bound := &o.intQ, int64(math.MaxInt64)
		if q.Len() == 0 {
			q, bound = &o.extQ, int64(o.pool.cfg.JBSQBound)
		}
		if q.Len() == 0 {
			return
		}
		i := o.jbsq(bound)
		if i < 0 {
			// Every executor queue is at the bound: the next dequeue's
			// capacityFreed dispatches again.
			return
		}
		r, _ := q.PopFront()
		e := o.group[i]
		e.qlen.Add(1)
		o.mu.Unlock()
		e.enqueue(r)
		o.pool.stats.Dispatched.AddShard(o.id, 1)
		o.mu.Lock()
	}
}

// jbsq picks the group member with the shortest queue below bound, or -1.
// The queue lengths are atomic reads — like the simulator's cross-core
// probe loads, they are racy against executors' concurrent dequeues. Those
// only shorten a queue (a PD-stall requeue aside), and every other
// dispatcher into the group reserves under o.mu, so the bound holds.
func (o *orchestrator) jbsq(bound int64) int {
	o.rr++
	return jbsq.Pick(len(o.group), o.rr, func(i int) (int64, int64, bool) {
		return int64(o.group[i].qlen.Load()), bound, true
	})
}
