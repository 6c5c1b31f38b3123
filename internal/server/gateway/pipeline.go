package gateway

import (
	"context"
	"errors"
	"io"
	"net/http"
	"strconv"
	"time"

	"jord/internal/httpwire"
	"jord/internal/server/breaker"
	"jord/internal/server/pool"
	"jord/internal/server/router"
	"jord/internal/server/state"
	"jord/internal/server/trace"
)

// invocation is one POST /invoke/{fn} in the pipeline: the request as its
// transport parsed it, the transport that answers it, its deadline and its
// trace span. The edge reuses one per connection, so its fast path
// allocates nothing; net/http makes one per request. A concrete type, not
// an interface, so the edge's calls stay static and allocation-free.
type invocation struct {
	fn, key        []byte
	contentLen     int64 // declared body length; -1 = unknown (chunked, net/http only)
	expectContinue bool
	oversized      bool // contentLen over MaxBodyBytes: the body is never read
	bodyRead       bool
	ded            *dedupEntry // the cache entry this request leads, until committed

	// The transport: the edge's connection, or net/http's writer and request.
	cs     *connState
	w      http.ResponseWriter
	r      *http.Request
	pooled *[]byte // net/http: the pooled buffer behind the payload

	timer    *time.Timer // request deadline; the edge recycles one per connection
	deadline time.Time
	expired  <-chan time.Time // timer.C while armed
	canceled <-chan struct{}  // client gone (net/http); the edge does not watch its peer

	rec  *trace.Recorder
	span trace.Span
	mark int64
}

// invoke is the one invoke pipeline both transports run: drain → lookup →
// dedup → breaker → admission → size check → body → invoke → outcome →
// dedup commit → answer. The transports keep only their framing (how the
// body is read, how an answer is written). The returned error is the
// transport's: the edge closes the connection on it.
func (g *Gateway) invoke(inv *invocation) error {
	if g.draining.Load() || g.Pool.Draining() {
		return inv.refuse(http.StatusServiceUnavailable, "draining", 5, true)
	}
	def := g.Reg.LookupBytes(inv.fn)
	if def == nil {
		return inv.refuse(http.StatusNotFound, "unknown function", 0, false)
	}
	inv.span.FuncID = int32(def.ID)
	inv.arm(g.RequestTimeout)
	defer inv.disarm()
	if g.Dedup == nil || len(inv.key) == 0 {
		return g.execute(inv, def)
	}

	// Idempotent replay before any resource is spent: a re-sent invocation
	// whose key already completed is answered from the cache — no
	// admission slot, no pool work, no duplicated side effects.
	key := string(inv.key) // does not escape: no allocation up to 32 bytes
	for {
		e, leader := g.Dedup.Begin(key)
		if leader {
			inv.ded = e
			err := g.execute(inv, def)
			if inv.ded != nil { // not recorded: the next request with the key executes
				g.Dedup.Abort(inv.ded)
				inv.ded = nil
			}
			return err
		}
		// Single-flight: wait for the leader's outcome — within this
		// request's own deadline — rather than execute twice.
		var err error
		select {
		case <-e.Done():
			status, ctype, body, ok := e.Result()
			if ok {
				err = inv.reply(status, ctype, body, true)
			}
			g.Dedup.Release(e)
			if ok {
				return err
			}
			continue // the leader aborted: race to lead ourselves
		case <-inv.expired:
			err = context.DeadlineExceeded
		case <-inv.canceled:
			err = context.Canceled
		}
		g.Dedup.Release(e)
		return inv.fail(errStatus(err))
	}
}

// execute is the pipeline from the breaker on.
func (g *Gateway) execute(inv *invocation, def *router.Func) error {
	// Circuit breaker first: a quarantined function is refused before it
	// can consume an admission slot or pool resources.
	brk, probe := g.Breakers.For(def.Name), false
	if brk != nil {
		p, ok, retry := brk.Allow(time.Now())
		if !ok {
			// Whole seconds, rounded up, at least 1: "0" reads as "retry now".
			secs := max(int((retry+time.Second-1)/time.Second), 1)
			return inv.refuse(http.StatusServiceUnavailable, "circuit open", secs, false)
		}
		probe = p
	}
	cancelProbe := func() {
		if probe {
			brk.CancelProbe() // the refusal says nothing about the function
		}
	}
	if !g.Adm.TryAdmit() {
		cancelProbe()
		return inv.refuse(http.StatusTooManyRequests, "saturated: too many requests in flight", 1, false)
	}
	defer g.Adm.Release()
	// Declared-oversized payloads are refused BEFORE a single body byte is
	// buffered: the 413 must not cost pool memory or read bandwidth.
	if inv.oversized {
		cancelProbe()
		return inv.refuse(http.StatusRequestEntityTooLarge, "payload too large", 0, false)
	}
	inv.stamp(trace.StageAdmit)
	payload, err := inv.readBody(g.maxBody())
	if err != nil {
		cancelProbe()
		return err
	}
	inv.stamp(trace.StageParse) // the body read is wire time

	var spp *trace.Span
	if inv.rec != nil {
		spp = &inv.span
	}
	resp, abandoned, err := g.Pool.InvokeTimed(def, payload, inv.deadline, inv.expired, inv.canceled, spp)
	if abandoned {
		// The runtime still owns the ArgBuf aliasing the body buffer:
		// surrender it to the GC (rare path).
		if inv.cs != nil {
			inv.cs.body = nil
		}
		inv.pooled = nil
	}
	if brk != nil {
		recordOutcome(brk, probe, err)
	}
	if err != nil {
		inv.publishError(err, abandoned)
		status, msg, retry, drain := errStatus(err)
		// A function-level failure is a COMPLETED execution: record it so a
		// retry replays the verdict instead of running the body again.
		if inv.ded != nil && invokeExecuted(err) {
			inv.commit(g.Dedup, status, textPlain, []byte(msg+"\n"))
		}
		return inv.fail(status, msg, retry, drain)
	}
	// Commit BEFORE the first response byte: the reason a retry exists is
	// that this very write can fail mid-flight, and the replay must
	// already be visible when the re-sent request races in.
	inv.commit(g.Dedup, http.StatusOK, octetStream, resp)
	if err := inv.reply(http.StatusOK, octetStream, resp, false); err != nil {
		return err
	}
	if rec := inv.rec; rec != nil {
		// Stamped after the bytes hit the socket; the completed span lands
		// on the shard of the executor that finished it.
		t := rec.Now()
		if inv.span.EndNS > 0 {
			inv.span.Stages[trace.StageResp] += t - inv.span.EndNS
		}
		inv.span.EndNS = t
		rec.Publish(int(inv.span.Shard), &inv.span)
	}
	return nil
}

// commit records the response of the dedup entry this request leads.
func (inv *invocation) commit(c *DedupCache, status int, ctype string, body []byte) {
	if inv.ded != nil {
		c.Commit(inv.ded, status, ctype, body)
		inv.ded = nil
	}
}

const (
	textPlain   = "text/plain; charset=utf-8"
	octetStream = "application/octet-stream"
)

// StatusClientClosedRequest is nginx's non-standard 499: the client went
// away before the response was ready.
const StatusClientClosedRequest = 499

// errStatus is the one mapping from an invoke error to its answer:
// saturation is backpressure (429), degradation — the pool's or the state
// tier's — and drain are 503, deadlines 504, a gone client 499, anything
// else (isolation faults, function errors) a 500 with the message. Every
// 429/503 carries Retry-After (seconds); drain adds the DrainingHeader.
func errStatus(err error) (status int, msg string, retry int, drain bool) {
	switch {
	case errors.Is(err, pool.ErrSaturated):
		return http.StatusTooManyRequests, err.Error(), 1, false
	case errors.Is(err, pool.ErrDegraded), errors.Is(err, state.ErrDegraded):
		return http.StatusServiceUnavailable, err.Error(), 1, false
	case errors.Is(err, pool.ErrDraining):
		return http.StatusServiceUnavailable, err.Error(), 5, true
	case errors.Is(err, pool.ErrUnknownFunction):
		return http.StatusNotFound, err.Error(), 0, false
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout, "deadline exceeded", 0, false
	case errors.Is(err, context.Canceled):
		return StatusClientClosedRequest, "client closed request", 0, false
	}
	return http.StatusInternalServerError, err.Error(), 0, false
}

// backpressure reports an outcome that says nothing about the function:
// a refusal (saturation, degradation, drain, unknown function) or the
// client going away.
func backpressure(err error) bool {
	return errors.Is(err, pool.ErrSaturated) || errors.Is(err, pool.ErrDegraded) ||
		errors.Is(err, state.ErrDegraded) || errors.Is(err, pool.ErrDraining) ||
		errors.Is(err, pool.ErrUnknownFunction) || errors.Is(err, context.Canceled)
}

// invokeExecuted reports whether an Invoke error implies the function
// body ran to completion — only those outcomes are recorded for replay.
// Refusals say nothing about the invocation (a retry should execute), and
// deadline/cancel outcomes are ambiguous: the invocation may still be
// running, so recording a verdict could contradict a side effect that
// lands later. Those paths keep at-least-once semantics.
func invokeExecuted(err error) bool {
	return !backpressure(err) && !errors.Is(err, context.DeadlineExceeded)
}

// recordOutcome classifies one invocation result for the function's
// breaker. Failures are signals the FUNCTION is sick: panics and blown
// deadlines. Backpressure is not recorded — for a probe it releases the
// slot so the next request probes again. Everything else, application
// errors the body returned deliberately included, counts as success: a
// function returning errors is working as programmed.
func recordOutcome(brk *breaker.Breaker, probe bool, err error) {
	if backpressure(err) {
		if probe {
			brk.CancelProbe()
		}
		return
	}
	brk.Record(errors.Is(err, pool.ErrPanicked) || errors.Is(err, context.DeadlineExceeded), probe, time.Now())
}

// arm starts the request deadline. InvokeTimed and the dedup wait select
// on the timer's channel directly, so no context is allocated.
func (inv *invocation) arm(d time.Duration) {
	if d <= 0 {
		return
	}
	inv.deadline = time.Now().Add(d)
	if inv.timer == nil {
		inv.timer = time.NewTimer(d)
	} else {
		inv.timer.Reset(d)
	}
	inv.expired = inv.timer.C
}

// disarm stops the deadline. Since Go 1.23 a stopped or reset timer never
// delivers a stale tick, so a recycled timer needs no drain.
func (inv *invocation) disarm() {
	if inv.expired != nil {
		inv.timer.Stop()
		inv.expired, inv.deadline = nil, time.Time{}
	}
}

// startSpan opens the request's trace span; rec nil = tracing off.
func (inv *invocation) startSpan(rec *trace.Recorder) {
	if inv.rec = rec; rec != nil {
		inv.mark = rec.Now()
		inv.span = trace.Span{FuncID: -1, External: true, StartNS: inv.mark}
	}
}

// stamp charges the time since the last mark to a trace stage.
func (inv *invocation) stamp(stage trace.Stage) {
	if rec := inv.rec; rec != nil {
		t := rec.Now()
		inv.span.Stages[stage] += t - inv.mark
		inv.mark = t
	}
}

// refuse answers a request turned away before execution and publishes its
// span, charging the time since the last mark to admit — the refusal
// verdict IS the admission work.
func (inv *invocation) refuse(status int, msg string, retry int, drain bool) error {
	if rec := inv.rec; rec != nil {
		inv.stamp(trace.StageAdmit)
		inv.span.EndNS, inv.span.Outcome = inv.mark, trace.OutcomeRefused
		rec.Publish(-1, &inv.span)
	}
	return inv.fail(status, msg, retry, drain)
}

// publishError publishes the span of a failed invocation. Abandoned
// requests are published by the runtime when they finally finish; a span
// the runtime never adopted (submit-time refusal) has no EndNS — classify
// and close it here.
func (inv *invocation) publishError(err error, abandoned bool) {
	rec := inv.rec
	if rec == nil || abandoned {
		return
	}
	sh := int(inv.span.Shard)
	if inv.span.EndNS == 0 {
		sh, inv.span.EndNS, inv.span.Outcome = -1, rec.Now(), trace.OutcomeError
		if errors.Is(err, pool.ErrDegraded) {
			inv.span.Outcome = trace.OutcomeShed
		} else if errors.Is(err, pool.ErrSaturated) {
			inv.span.Outcome = trace.OutcomeSaturated
		}
	}
	rec.Publish(sh, &inv.span)
}

// readBody reads the body: on the edge straight into the connection's
// reusable buffer (the exact bytes the ArgBuf will alias), under net/http
// into a pooled buffer, declared or chunked, under the cap.
func (inv *invocation) readBody(limit int64) ([]byte, error) {
	inv.bodyRead = true
	if cs := inv.cs; cs != nil {
		if inv.expectContinue {
			if _, err := cs.conn.Write(continue100); err != nil {
				return nil, err
			}
		}
		cl := int(inv.contentLen)
		if cap(cs.body) < cl {
			cs.body = make([]byte, cl)
		}
		_, err := io.ReadFull(cs.br, cs.body[:cl])
		return cs.body[:cl], err
	}
	payload, bp, err := httpwire.ReadBody(inv.r.Body, inv.contentLen, limit)
	switch {
	case errors.Is(err, httpwire.ErrTooLarge):
		return nil, inv.fail(http.StatusRequestEntityTooLarge, "payload too large", 0, false)
	case err != nil:
		return nil, inv.fail(http.StatusBadRequest, "reading body: "+err.Error(), 0, false)
	}
	inv.pooled = bp
	return payload, nil
}

// skipBody keeps an edge connection aligned after an answer sent before
// the body was read: the declared body is discarded so keep-alive survives
// refusals — unless the client awaits 100-continue and never sent it (RFC
// 9110 §10.1.1 permits the final status instead of blocking on it), or the
// body is oversized and reading it is what the refusal avoids; then the
// connection closes after the answer.
func (inv *invocation) skipBody() error {
	if inv.bodyRead {
		return nil
	}
	inv.bodyRead = true
	if inv.expectContinue || inv.oversized {
		inv.cs.keepAlive = false
		return nil
	}
	_, err := inv.cs.br.Discard(int(inv.contentLen))
	return err
}

// fail answers a plain-text error: status, message, Retry-After seconds
// (0 = none) and the draining marker.
func (inv *invocation) fail(status int, msg string, retry int, drain bool) error {
	if inv.cs != nil {
		if err := inv.skipBody(); err != nil {
			return err
		}
		return inv.cs.writeSimple(status, msg, retry, drain)
	}
	if retry > 0 {
		inv.w.Header().Set("Retry-After", strconv.Itoa(retry))
	}
	if drain {
		inv.w.Header().Set(DrainingHeader, "1")
	}
	http.Error(inv.w, msg, status)
	return errRefused
}

// reply answers with a body: status, Content-Type, the bytes, and whether
// they are a replay from the dedup cache.
func (inv *invocation) reply(status int, ctype string, body []byte, replay bool) error {
	if inv.cs != nil {
		if err := inv.skipBody(); err != nil {
			return err
		}
		return inv.cs.writeResponse(status, ctype, body, 0, false, replay)
	}
	if ctype != "" {
		inv.w.Header().Set("Content-Type", ctype)
	}
	if replay {
		inv.w.Header().Set(DedupHeader, "1")
	}
	inv.w.WriteHeader(status)
	_, err := inv.w.Write(body)
	return err
}
