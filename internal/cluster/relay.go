package cluster

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strconv"
	"sync"
	"time"

	"jord/internal/httpwire"
	"jord/internal/server/gateway"
)

// The dispatcher's worker-facing half: one request and one response on a
// kept-alive raw connection, built the way gateway.Edge serves them — head
// rendered into per-connection scratch, head and payload sent with one
// writev, the response head parsed in place, the body read straight into a
// pooled buffer. A worker's open connections need no limit of their own:
// a connection is held only inside a JBSQ slot, so there are never more
// than k of them.

// relayConn is one persistent connection to a worker and its reusable
// machinery.
type relayConn struct {
	c    net.Conn
	br   *bufio.Reader
	head []byte // request-head scratch
	wv   httpwire.Writev
	// kick expires the connection's deadline, which unblocks a read or
	// write in progress; built once so arming it per attempt is cheap.
	kick   func()
	reused bool // has carried a complete exchange before
}

// aLongTimeAgo is a deadline that has always passed.
var aLongTimeAgo = time.Unix(1, 0)

func (w *worker) takeConn() *relayConn {
	w.connMu.Lock()
	var rc *relayConn
	if n := len(w.idle); n > 0 {
		rc, w.idle[n-1] = w.idle[n-1], nil
		w.idle = w.idle[:n-1]
	}
	w.connMu.Unlock()
	return rc
}

func (w *worker) putConn(rc *relayConn) {
	rc.reused = true
	w.connMu.Lock()
	if !w.gone {
		w.idle = append(w.idle, rc)
		rc = nil
	}
	w.connMu.Unlock()
	if rc != nil {
		rc.c.Close()
	}
}

// closeIdle closes the pooled connections; gone also stops later returns
// from being pooled (the worker left the set).
func (w *worker) closeIdle(gone bool) {
	w.connMu.Lock()
	idle := w.idle
	w.idle = nil
	w.gone = w.gone || gone
	w.connMu.Unlock()
	for _, rc := range idle {
		rc.c.Close()
	}
}

func (d *Dispatcher) dialWorker(ctx context.Context, wk *worker, deadline time.Time) (*relayConn, error) {
	if !deadline.IsZero() {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, deadline)
		defer cancel()
	}
	c, err := d.cfg.Dial(ctx, wk.addr)
	if err != nil {
		return nil, err
	}
	return &relayConn{
		c:    c,
		br:   bufio.NewReaderSize(c, 16<<10),
		head: make([]byte, 0, 256),
		kick: func() { c.SetDeadline(aLongTimeAgo) },
	}, nil
}

// relayStage is how far an exchange got before it failed; the retry class
// follows from it.
type relayStage int

const (
	stageWrite relayStage = iota // the request was not written in full
	stageSent                    // request written, not one response byte seen
	stageResp                    // the response had begun
)

// forward runs one attempt against wk and buffers the response (bounded;
// a body past MaxBodyBytes is left on the connection and streamed by
// writeResp). ctx cancellation and deadline (zero = none) both unblock a
// blocked worker read, and the connection is then closed, which is how
// the worker learns of the abort.
//
// Unlike net/http's transport, the pool has no background reader to weed
// out keep-alive connections the worker has closed. So a failure on
// a reused connection before the first response byte is taken for a stale
// connection and absorbed by one fresh dial to the same worker. That
// cannot run the function twice: the request either never went out whole
// or carries the key the worker's replay cache answers.
func (d *Dispatcher) forward(ctx context.Context, deadline time.Time, wk *worker,
	fn, contentType, key string, payload []byte) (*workerResp, respClass, error) {

	var start time.Time
	if d.cfg.Hedge {
		start = time.Now()
	}
	rc := wk.takeConn()
	if rc != nil && rc.br.Buffered() > 0 {
		rc.c.Close() // bytes nobody asked for: not a connection to frame a response on
		rc = nil
	}
	for redialed := false; ; redialed = true {
		if rc == nil {
			var err error
			if rc, err = d.dialWorker(ctx, wk, deadline); err != nil {
				class, err := classify(ctx, stageWrite, err)
				return nil, class, err
			}
		}
		resp, stage, err := d.exchange(ctx, deadline, wk, rc, fn, contentType, key, payload)
		if err == nil {
			switch {
			case resp.rest != nil: // the tail is still on the wire; resp owns rc and release closes it
			case resp.reuse:
				wk.putConn(rc)
			default:
				rc.c.Close()
			}
			if resp.status == http.StatusOK && d.cfg.Hedge {
				d.hedge.observe(fn, time.Since(start))
			}
			return resp, 0, nil
		}
		rc.c.Close()
		class, err := classify(ctx, stage, err)
		if class != classCtx && rc.reused && !redialed && stage != stageResp {
			d.relayRedials.Add(1)
			rc = nil
			continue
		}
		return nil, class, err
	}
}

// classify maps a failed exchange onto the retry-safety split. A deadline
// expiry is ours whether the conn deadline or the kick produced it.
func classify(ctx context.Context, stage relayStage, err error) (respClass, error) {
	switch {
	case ctx.Err() != nil:
		return classCtx, ctx.Err()
	case errors.Is(err, os.ErrDeadlineExceeded), errors.Is(err, context.DeadlineExceeded):
		return classCtx, context.DeadlineExceeded
	case stage == stageWrite:
		return classSafe, err
	}
	return classUnsafe, err
}

// exchange arms cancellation around one roundTrip.
func (d *Dispatcher) exchange(ctx context.Context, deadline time.Time, wk *worker, rc *relayConn,
	fn, contentType, key string, payload []byte) (*workerResp, relayStage, error) {

	rc.c.SetDeadline(deadline)
	var stop func() bool
	if ctx.Done() != nil {
		stop = context.AfterFunc(ctx, rc.kick)
	}
	resp, stage, err := d.roundTrip(wk, rc, fn, contentType, key, payload)
	if stop != nil && !stop() && err == nil {
		// Canceled as the response completed: the kick has (or will have)
		// spoiled the connection's deadline, and nobody wants the answer.
		resp.release()
		return nil, stageResp, ctx.Err()
	}
	return resp, stage, err
}

// roundTrip writes one request on rc and reads its response.
func (d *Dispatcher) roundTrip(wk *worker, rc *relayConn,
	fn, contentType, key string, payload []byte) (*workerResp, relayStage, error) {

	b := append(rc.head[:0], "POST /invoke/"...)
	b = append(b, fn...)
	b = append(b, wk.headMid...)
	b = strconv.AppendInt(b, int64(len(payload)), 10)
	if contentType != "" {
		b = append(b, "\r\nContent-Type: "...)
		b = append(b, contentType...)
	}
	b = append(b, "\r\n"+gateway.IdempotencyKeyHeader+": "...)
	b = append(b, key...)
	b = append(b, "\r\n\r\n"...)
	rc.head = b
	if err := rc.wv.Write(rc.c, b, payload); err != nil {
		return nil, stageWrite, err
	}

	if _, err := rc.br.Peek(1); err != nil {
		return nil, stageSent, err
	}
	var h respHead
	var n int
	for {
		buf, _ := rc.br.Peek(rc.br.Buffered())
		var v httpwire.Verdict
		if n, v = httpwire.ParseResponseHead(buf, &h.ResponseHead, relayedHeaders[:], h.vals[:]); v == httpwire.HeadFast {
			break
		}
		if v == httpwire.HeadMore {
			_, err := rc.br.Peek(len(buf) + 1)
			if err == nil {
				continue
			}
			if err != bufio.ErrBufferFull {
				return nil, stageResp, err
			}
		}
		return d.readSlow(rc)
	}

	resp := respPool.Get().(*workerResp)
	resp.setHead(&h) // copies what it keeps: Discard invalidates h's slices
	rc.br.Discard(n)
	if h.ContentLength > d.cfg.MaxBodyBytes {
		resp.rest, resp.rc = io.LimitReader(rc.br, h.ContentLength), rc
		return resp, stageResp, nil
	}
	var err error
	if resp.body, resp.pooled, err = httpwire.ReadBody(rc.br, h.ContentLength, d.cfg.MaxBodyBytes); err != nil {
		// The head arrived but the body broke off. Nothing has reached the
		// client, so the dispatch loop can still retry this.
		resp.release()
		return nil, stageResp, err
	}
	resp.reuse = !h.Close
	return resp, stageResp, nil
}

// readSlow takes a response the in-place parser would not frame (chunked,
// close-delimited, anything unusual — a jordd without -edge sends those)
// through http.ReadResponse on the same reader. Such a connection is not
// pooled afterwards.
func (d *Dispatcher) readSlow(rc *relayConn) (*workerResp, relayStage, error) {
	hr, err := http.ReadResponse(rc.br, nil)
	if err != nil {
		return nil, stageResp, err
	}
	if hr.StatusCode < 200 {
		return nil, stageResp, fmt.Errorf("cluster: unexpected interim response %d from worker", hr.StatusCode)
	}
	// hr.Body is never closed: Close may block draining it, and closing rc
	// ends the read either way.
	max := d.cfg.MaxBodyBytes
	body, err := io.ReadAll(io.LimitReader(hr.Body, max+1))
	if err != nil {
		return nil, stageResp, err
	}
	h := respHead{ResponseHead: httpwire.ResponseHead{Status: hr.StatusCode, ContentLength: hr.ContentLength}}
	for i, name := range relayedHeaders {
		h.vals[i] = []byte(hr.Header.Get(name))
	}
	resp := respPool.Get().(*workerResp)
	resp.setHead(&h)
	resp.body = body
	if int64(len(body)) > max {
		resp.rest, resp.rc = hr.Body, rc
	}
	return resp, stageResp, nil
}

// workerResp is one worker response, buffered so it can be (a) discarded
// and retried when the worker turns out to be draining, and (b) relayed
// by whichever attempt wins a hedge race without two goroutines writing
// the client connection. Pooled; header values live in hdr.
type workerResp struct {
	status int
	clen   int64                       // advertised Content-Length (-1 unknown)
	vals   [len(relayedHeaders)][]byte // the relayed header values; empty = absent
	hdr    []byte                      // backs vals

	body   []byte
	pooled *[]byte    // pooled buffer backing body
	rest   io.Reader  // non-nil: body overflowed the buffer budget, stream the tail
	rc     *relayConn // the connection rest reads from; release closes it
	reuse  bool       // rc may carry another request
}

var respPool = sync.Pool{New: func() any { return &workerResp{hdr: make([]byte, 0, 128)} }}

func (r *workerResp) setHead(h *respHead) {
	r.status, r.clen = h.Status, h.ContentLength
	b := r.hdr[:0]
	for _, v := range h.vals {
		b = append(b, v...)
	}
	r.hdr = b
	for i, v := range h.vals { // sliced only now: the appends may have moved b
		r.vals[i], b = b[:len(v):len(v)], b[len(v):]
	}
}

// release closes a connection the response still owns and recycles the
// buffers.
func (r *workerResp) release() {
	if r.rc != nil {
		r.rc.c.Close()
	}
	httpwire.PutBody(r.pooled)
	*r = workerResp{hdr: r.hdr[:0]}
	respPool.Put(r)
}

// respHead is what the dispatcher reads off a worker's response head. The
// values alias the parsed buffer.
type respHead struct {
	httpwire.ResponseHead
	vals [len(relayedHeaders)][]byte // nil: header absent
}

// relayedHeaders are the worker response headers that reach the client,
// besides Content-Length; respHead.vals and workerResp.vals follow this
// order.
var relayedHeaders = [...]string{"Content-Type", "Retry-After", gateway.DrainingHeader, gateway.DedupHeader}

const (
	hDraining = 2 // index of gateway.DrainingHeader
	hDedup    = 3 // index of gateway.DedupHeader
)
