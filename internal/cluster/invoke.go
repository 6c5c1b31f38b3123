package cluster

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"jord/internal/server/gateway"
)

// attempt names one forward: where it goes, and in which role.
type attempt struct {
	wk    *worker
	hedge bool // the hedged duplicate, or its same-worker replay
}

// outcome is one attempt's result, as the retry policy sees it.
type outcome struct {
	attempt
	resp  *workerResp
	class respClass // meaningful when err != nil
	err   error
}

var errDrainMarked = errors.New("draining (marked 503)")

func (d *Dispatcher) handleInvoke(w http.ResponseWriter, r *http.Request) {
	fn := r.PathValue("fn")
	if d.draining.Load() {
		retryAfter(w, 5*time.Second)
		w.Header().Set(gateway.DrainingHeader, "1")
		http.Error(w, "dispatcher draining", http.StatusServiceUnavailable)
		return
	}

	// Buffer the body up front (bounded): a request is only "in flight"
	// against a worker once delivery starts, so a worker that dies takes
	// no request bytes with it — the buffered body is re-sent elsewhere.
	if r.ContentLength > d.cfg.MaxBodyBytes {
		http.Error(w, "payload too large", http.StatusRequestEntityTooLarge)
		return
	}
	var (
		payload []byte
		pooled  *[]byte
	)
	if cl := r.ContentLength; cl >= 0 {
		pooled = getBody(cl)
		payload = (*pooled)[:cl]
		if _, err := io.ReadFull(r.Body, payload); err != nil {
			bodyPool.Put(pooled)
			http.Error(w, "reading body: "+err.Error(), http.StatusBadRequest)
			return
		}
	} else {
		// Chunked (unknown-length) bodies ride the same pooled buffers as
		// framed ones, growing by doubling up to the bound, instead of
		// handing io.ReadAll a fresh allocation per request.
		pooled = getBody(32 << 10)
		buf := (*pooled)[:cap(*pooled)]
		total := 0
		for {
			if total == len(buf) {
				if int64(len(buf)) > d.cfg.MaxBodyBytes {
					break // read past the bound; rejected below
				}
				grown := len(buf) * 2
				if int64(grown) > d.cfg.MaxBodyBytes+1 {
					grown = int(d.cfg.MaxBodyBytes + 1)
				}
				nb := make([]byte, grown)
				copy(nb, buf)
				*pooled = nb
				buf = nb
			}
			n, err := r.Body.Read(buf[total:])
			total += n
			if err == io.EOF {
				break
			}
			if err != nil {
				bodyPool.Put(pooled)
				http.Error(w, "reading body: "+err.Error(), http.StatusBadRequest)
				return
			}
		}
		if int64(total) > d.cfg.MaxBodyBytes {
			bodyPool.Put(pooled)
			http.Error(w, "payload too large", http.StatusRequestEntityTooLarge)
			return
		}
		payload = buf[:total]
	}

	// The worker-bound request head is rendered by hand, so nothing that
	// could end a line may enter it. net/http has already refused such
	// header values; fn arrives unescaped from the path.
	contentType := r.Header.Get("Content-Type")
	key := r.Header.Get(gateway.IdempotencyKeyHeader)
	if strings.ContainsAny(contentType, "\r\n") || strings.ContainsAny(key, "\r\n") {
		bodyPool.Put(pooled)
		http.Error(w, "malformed header value", http.StatusBadRequest)
		return
	}
	if !plainSegment(fn) {
		fn = url.PathEscape(fn)
	}
	var deadline time.Time
	if d.cfg.RequestTimeout > 0 {
		deadline = time.Now().Add(d.cfg.RequestTimeout)
	}

	// Every invocation carries an idempotency key (client-supplied wins)
	// so post-delivery failures can replay from the worker's dedup cache
	// instead of double-executing. It has to ride the FIRST attempt: a key
	// stamped only on the retry would find nothing registered to replay.
	if key == "" && !d.cfg.DisableIdempotency {
		key = newIdemKey()
	}
	rl := relay{d: d, ctx: r.Context(), deadline: deadline, w: w,
		fn: fn, contentType: contentType, key: key, payload: payload}
	d.dispatch(&rl, pooled)
}

// plainSegment reports whether fn can stand in a request line as it is.
func plainSegment(fn string) bool {
	for i := 0; i < len(fn); i++ {
		if c := fn[i]; !tokenByte[c] || c == '%' {
			return false
		}
	}
	return true
}

// relay is one client request on its way through placement: what is being
// sent, and what has failed so far.
type relay struct {
	d           *Dispatcher
	ctx         context.Context
	deadline    time.Time // zero = none; set on every worker conn at acquire
	w           http.ResponseWriter
	fn          string
	contentType string
	key         string
	payload     []byte

	attempts   int
	everHedged bool
	// Both nil until the first failure: the common request never fails.
	tried       map[*worker]bool // failed here; do not re-place
	sameRetried map[*worker]bool // idempotent replay already tried here
}

// dispatch places one buffered request and sees it answered. It owns
// pooled: the buffer returns to the pool only after every launched attempt
// has stopped reading payload.
//
// With nothing to race, attempts run one after another on this (the
// handler's) goroutine: no goroutine, channel or derived context per
// request. Only a request that may be hedged goes through race.
func (d *Dispatcher) dispatch(rl *relay, pooled *[]byte) {
	wk := rl.place()
	if wk == nil {
		bodyPool.Put(pooled)
		return
	}
	// Hedge only with a key: the duplicate may race a completed primary,
	// and only the replay cache keeps that from double-executing.
	if d.cfg.Hedge && rl.key != "" {
		d.race(rl, wk, pooled)
		return
	}
	for a, more := (attempt{wk: wk}), true; more; {
		rl.attempts++
		resp, class, err := d.forward(rl.ctx, rl.deadline, a.wk, rl.fn, rl.contentType, rl.key, rl.payload)
		a.wk.outstanding.Add(-1)
		a, more = rl.settle(outcome{a, resp, class, err}, 0)
	}
	bodyPool.Put(pooled)
}

// race is dispatch for a request that may be hedged: attempts run on
// their own goroutines so a duplicate can be placed when the hedge timer
// fires, the first clean response wins and the rest are canceled.
func (d *Dispatcher) race(rl *relay, first *worker, pooled *[]byte) {
	// Buffered for a primary, a hedge and their replays; more than that
	// only makes a sender wait for the loop (or the drain below).
	results := make(chan outcome, 8)
	var cancels []context.CancelFunc
	inflight := 0
	active := make(map[*worker]bool) // attempt currently running here

	defer func() {
		for _, c := range cancels {
			c()
		}
		if inflight == 0 {
			bodyPool.Put(pooled)
			return
		}
		// Losing attempts are still running (hedge losers, canceled
		// stragglers) and still read payload while their request write
		// winds down: drain them off-path, then recycle the buffer.
		go func(n int) {
			for i := 0; i < n; i++ {
				if o := <-results; o.resp != nil {
					o.resp.release()
				}
			}
			bodyPool.Put(pooled)
		}(inflight)
	}()

	// The goroutines take copies: rl stays on the handler's stack.
	ctx, deadline, fn, contentType, key, payload := rl.ctx, rl.deadline, rl.fn, rl.contentType, rl.key, rl.payload
	launch := func(a attempt) {
		rl.attempts++
		inflight++
		active[a.wk] = true
		actx, cancel := context.WithCancel(ctx)
		cancels = append(cancels, cancel)
		go func() {
			resp, class, err := d.forward(actx, deadline, a.wk, fn, contentType, key, payload)
			a.wk.outstanding.Add(-1)
			results <- outcome{a, resp, class, err}
		}()
	}
	launch(attempt{wk: first})

	t := time.NewTimer(d.hedge.delay(fn, d.cfg.HedgeDelay))
	defer t.Stop()
	hedgeC := t.C
	for {
		select {
		case <-ctx.Done():
			http.Error(rl.w, "deadline exceeded while dispatching", http.StatusGatewayTimeout)
			return

		case <-hedgeC:
			hedgeC = nil
			excl := make(map[*worker]bool, len(rl.tried)+len(active))
			for wk := range rl.tried {
				excl[wk] = true
			}
			for wk := range active {
				excl[wk] = true
			}
			if hw, _ := d.pick(excl); hw != nil {
				d.hedgesIssued.Add(1)
				rl.everHedged = true
				launch(attempt{wk: hw, hedge: true})
			}

		case o := <-results:
			inflight--
			delete(active, o.wk)
			next, more := rl.settle(o, inflight)
			if !more {
				return
			}
			if next.wk != nil {
				launch(next)
			}
		}
	}
}

// place reserves the best untried worker; when there is none it writes
// the dispatcher's own verdict and returns nil.
func (rl *relay) place() *worker {
	d, w := rl.d, rl.w
	wk, anyReady := d.pick(rl.tried)
	if wk != nil {
		return wk
	}
	switch {
	case rl.attempts > 0:
		// At least one worker was tried and failed mid-stream; the
		// remaining set is exhausted. 503: the CLUSTER could not serve
		// this, distinct from per-request saturation.
		d.lost.Add(1)
		retryAfter(w, time.Second)
		http.Error(w, "no worker could serve the request", http.StatusServiceUnavailable)
	case anyReady:
		// Ready workers exist but all sit at their JBSQ bound: the
		// cluster is saturated, tell the client to back off.
		d.rejectedBusy.Add(1)
		retryAfter(w, time.Second)
		http.Error(w, "cluster saturated: all workers at bound", http.StatusTooManyRequests)
	default:
		d.rejectedDown.Add(1)
		retryAfter(w, time.Second)
		http.Error(w, "no ready workers", http.StatusServiceUnavailable)
	}
	return nil
}

// replace moves the request to another worker after o's worker failed it
// — unless other attempts are still running, whose outcomes decide.
func (rl *relay) replace(o outcome, inflight int) (next attempt, more bool) {
	if rl.tried == nil {
		rl.tried = make(map[*worker]bool)
	}
	rl.tried[o.wk] = true
	if inflight > 0 {
		return attempt{}, true
	}
	wk := rl.place()
	return attempt{wk: wk}, wk != nil
}

// settle applies the retry policy to one finished attempt, with inflight
// others still running. It answers the client when the request is decided.
// next.wk non-nil is an attempt to launch; otherwise more reports whether
// to wait for the attempts in flight (false: the request is answered).
func (rl *relay) settle(o outcome, inflight int) (next attempt, more bool) {
	d := rl.d
	if o.err == nil {
		if o.resp.status == http.StatusServiceUnavailable && len(o.resp.vals[hDraining]) > 0 &&
			d.untriedOthers(o.wk, rl.tried) > 0 {
			// This worker is going away; that is a placement problem, not
			// an answer. Eject it and try the rest of the fleet. Only when
			// NO other worker can take the request does the drain 503 fall
			// through to the client.
			o.resp.release()
			o.wk.eject(errDrainMarked)
			d.drainRetries.Add(1)
			return rl.replace(o, inflight)
		}
		// First clean response wins; race cancels everything else on return.
		d.finish(rl.w, o, rl.everHedged)
		return attempt{}, false
	}

	switch o.class {
	case classSafe:
		// The request never reached the worker whole: eject passively (the
		// health loop re-admits once /readyz answers again) and re-place
		// anywhere.
		o.wk.eject(o.err)
		d.errRetries.Add(1)
		return rl.replace(o, inflight)

	case classUnsafe:
		o.wk.eject(o.err)
		switch {
		case rl.key == "":
			// No idempotency key: a post-delivery failure is not safely
			// retryable — the worker may have executed. Surface it.
			d.unsafe502.Add(1)
			http.Error(rl.w, "upstream connection failed after request delivery; no idempotency key, not retried", http.StatusBadGateway)
			return attempt{}, false
		case !rl.sameRetried[o.wk]:
			// Delivered (or possibly delivered): the only retry that cannot
			// double-execute targets the SAME worker, whose idempotency
			// cache replays the completed response.
			if rl.sameRetried == nil {
				rl.sameRetried = make(map[*worker]bool)
			}
			rl.sameRetried[o.wk] = true
			d.unsafeRetries.Add(1)
			o.wk.outstanding.Add(1)
			return attempt{wk: o.wk, hedge: o.hedge}, true
		}
		// The same-worker replay failed too: the worker is gone and its
		// replay cache died with it. Re-place elsewhere; if the dead worker
		// completed the call in its final moment this is the documented
		// at-least-once residue.
		d.errRetries.Add(1)
		return rl.replace(o, inflight)
	}

	// classCtx: the client left or the deadline passed. Not a worker
	// failure; another attempt still running may yet answer.
	if inflight > 0 {
		return attempt{}, true
	}
	http.Error(rl.w, "deadline exceeded while dispatching", http.StatusGatewayTimeout)
	return attempt{}, false
}

// untriedOthers counts admittable workers (other than wk) this request
// has not failed against yet.
func (d *Dispatcher) untriedOthers(wk *worker, tried map[*worker]bool) int {
	n := 0
	for _, other := range d.snapshot() {
		if other != wk && other.admittable() && !tried[other] {
			n++
		}
	}
	return n
}

// finish relays the winning response and settles the counters.
func (d *Dispatcher) finish(w http.ResponseWriter, o outcome, everHedged bool) {
	if o.hedge {
		d.hedgesWon.Add(1)
	} else if everHedged {
		d.hedgesWasted.Add(1)
	}
	resp := o.resp
	if len(resp.vals[hDedup]) > 0 {
		d.dedupHits.Add(1)
	}
	o.wk.dispatched.Add(1)
	if resp.status == http.StatusTooManyRequests || resp.status == http.StatusServiceUnavailable {
		d.passthrough.Add(1)
	}
	clientErr, workerErr := d.writeResp(w, resp)
	resp.release()
	switch {
	case workerErr != nil:
		// The worker died mid-relay after the head was committed: the
		// client sees a truncated body and nothing can be retried. Count
		// it and keep the worker out until health clears it.
		d.relayWorkerErrs.Add(1)
		o.wk.eject(workerErr)
	case clientErr != nil:
		d.relayClientErrs.Add(1)
	default:
		d.dispatched.Add(1)
	}
}

// writeResp copies one worker response to the client verbatim: status,
// Retry-After, drain and replay markers included — the dispatcher adds
// no interpretation to worker verdicts it did not re-place.
func (d *Dispatcher) writeResp(w http.ResponseWriter, r *workerResp) (clientErr, workerErr error) {
	h := w.Header()
	for i, name := range relayedHeaders {
		if v := r.vals[i]; len(v) > 0 {
			h.Set(name, string(v))
		}
	}
	if r.rest == nil {
		h.Set("Content-Length", strconv.Itoa(len(r.body)))
	} else if r.clen >= 0 {
		h.Set("Content-Length", strconv.FormatInt(r.clen, 10))
	}
	w.WriteHeader(r.status)
	if len(r.body) > 0 {
		if _, err := w.Write(r.body); err != nil {
			return err, nil
		}
	}
	if r.rest == nil {
		return nil, nil
	}
	bp := getBody(32 << 10)
	defer bodyPool.Put(bp)
	buf := (*bp)[:cap(*bp)]
	for {
		n, rerr := r.rest.Read(buf)
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				return werr, nil
			}
		}
		if rerr == io.EOF {
			return nil, nil
		}
		if rerr != nil {
			return nil, rerr
		}
	}
}
