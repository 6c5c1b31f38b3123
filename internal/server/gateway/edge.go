package gateway

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"jord/internal/server/pool"
	"jord/internal/server/trace"
)

// Edge is the zero-allocation HTTP/1.1 front end: a purpose-built server
// for the POST /invoke/{fn} fast path that takes a request from socket to
// function and back without a single heap allocation per request. Go's
// net/http cannot make that promise (it allocates request/header objects
// per request by design), so the edge speaks just enough HTTP/1.1 itself —
// the fasthttp approach, specialized further to jordd's two-endpoint
// surface:
//
//   - POST /invoke/{fn}: parsed with ReadSlice (no line copies), function
//     looked up via Registry.LookupBytes (no string materialization), body
//     read with io.ReadFull straight into a per-connection pooled buffer
//     that becomes the invocation's ArgBuf payload zero-copy, deadline
//     managed by a recycled per-connection timer through pool.InvokeTimed
//     (no context allocation), and the response written with one writev
//     (net.Buffers) straight from the VMA-backed result bytes.
//   - Everything else (GET /healthz, /readyz, /statsz, /varz, and any
//     unrecognized request) delegates to the normal gateway handlers
//     through a buffered adapter — the cold path, where allocations are
//     irrelevant.
//
// Keep-alive is supported (the steady state for load balancers and
// benchmarks); per-CONNECTION state is pooled and reused across requests,
// so the amortized per-request allocation count on the fast path is zero —
// measured, not aspirational (see TestEdgeInvokeAllocs and the http_echo
// scenario in jordbench).
type Edge struct {
	g   *Gateway
	mux http.Handler // cold-path delegate, built once

	ln       net.Listener
	mu       sync.Mutex
	conns    map[net.Conn]*connState
	wg       sync.WaitGroup
	draining atomic.Bool
}

// NewEdge builds the edge front end over a configured gateway.
func NewEdge(g *Gateway) *Edge {
	return &Edge{g: g, mux: g.Handler(), conns: make(map[net.Conn]*connState)}
}

// connState is one connection's reusable machinery. Everything a request
// needs lives here and survives across requests (and, via csPool, across
// connections), so the steady-state request touches no allocator.
type connState struct {
	conn net.Conn
	br   *bufio.Reader

	wbuf  []byte // response head (and small error bodies)
	body  []byte // request body; becomes the ArgBuf payload zero-copy
	fname []byte // function name, copied out of the volatile read buffer
	host  []byte // Host header, copied out of the volatile read buffer
	ikey  []byte // idempotency key header, copied out of the read buffer

	// nb is the writev pair (head + VMA-backed response). WriteTo CONSUMES
	// a net.Buffers, so nb is rebuilt each response from the persistent
	// backing array nbArr — appending to the consumed slice would
	// reallocate it every request.
	nb    net.Buffers
	nbArr [2][]byte

	timer      *time.Timer // per-request deadline for InvokeTimed, recycled
	timerArmed bool

	// span is the per-request trace record for the fast path, embedded
	// here (not on the stack) so handing its address to InvokeTimed can
	// never force a heap allocation. The runtime adopts it at submit and
	// hands it back with the completion; refusals publish it directly.
	span trace.Span

	// busy is true while a request is being processed; Shutdown only
	// deadline-kicks conns parked between requests.
	busy atomic.Bool
}

// csPool recycles connStates across connections.
var csPool = sync.Pool{New: func() any {
	return &connState{
		br:    bufio.NewReaderSize(nil, 16<<10),
		wbuf:  make([]byte, 0, 256),
		fname: make([]byte, 0, 64),
		host:  make([]byte, 0, 64),
		ikey:  make([]byte, 0, 64),
	}
}}

// Serve accepts connections on ln until Shutdown closes it.
func (e *Edge) Serve(ln net.Listener) error {
	e.mu.Lock()
	e.ln = ln
	e.mu.Unlock()
	for {
		c, err := ln.Accept()
		if err != nil {
			if e.draining.Load() {
				return nil // Shutdown closed the listener
			}
			return err
		}
		cs := csPool.Get().(*connState)
		cs.conn = c
		cs.br.Reset(c)
		e.mu.Lock()
		e.conns[c] = cs
		e.mu.Unlock()
		e.wg.Add(1)
		go e.serveConn(cs)
	}
}

// Shutdown stops accepting, kicks idle connections, and waits (until ctx
// expires) for in-flight requests to finish; stragglers are then closed
// hard. Mirrors http.Server.Shutdown closely enough for server.go to treat
// the two interchangeably.
func (e *Edge) Shutdown(ctx context.Context) error {
	e.draining.Store(true)
	e.mu.Lock()
	if e.ln != nil {
		e.ln.Close()
	}
	for c, cs := range e.conns {
		if !cs.busy.Load() {
			// Parked between requests: fail its pending read now. A conn
			// whose request line has just arrived but which has not yet
			// reached markBusy will observe draining there (both sides
			// cross e.mu) and clear this deadline before its header and
			// body reads — the kick only ever kills the parked ReadSlice.
			c.SetReadDeadline(time.Now())
		}
	}
	e.mu.Unlock()
	done := make(chan struct{})
	go func() { e.wg.Wait(); close(done) }()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		e.mu.Lock()
		for c := range e.conns {
			c.Close()
		}
		e.mu.Unlock()
		return ctx.Err()
	}
}

// release returns a connection's state to the pool after closing it.
func (e *Edge) release(cs *connState) {
	c := cs.conn
	c.Close()
	e.mu.Lock()
	delete(e.conns, c)
	e.mu.Unlock()
	if cs.timer != nil {
		cs.timer.Stop()
	}
	cs.conn = nil
	cs.br.Reset(nil)
	cs.busy.Store(false)
	csPool.Put(cs)
	e.wg.Done()
}

// Header byte constants for allocation-free case-insensitive matching.
var (
	hdrContentLength    = []byte("Content-Length")
	hdrConnection       = []byte("Connection")
	hdrExpect           = []byte("Expect")
	hdrTransferEncoding = []byte("Transfer-Encoding")
	hdrHost             = []byte("Host")
	hdrIdemKey          = []byte(IdempotencyKeyHeader)
	valClose            = []byte("close")
	val100Continue      = []byte("100-continue")
	pathInvoke          = []byte("/invoke/")
	methodPost          = []byte("POST")
	proto11             = []byte("HTTP/1.1")
	continue100         = []byte("HTTP/1.1 100 Continue\r\n\r\n")
)

// serveConn runs the per-connection request loop.
func (e *Edge) serveConn(cs *connState) {
	defer e.release(cs)
	for {
		keepAlive, err := e.serveOne(cs)
		if err != nil || !keepAlive {
			return
		}
		if e.draining.Load() {
			return
		}
	}
}

// markBusy flags the connection as mid-request, synchronizing with
// Shutdown's idle-kick through e.mu. Without it there is a window between
// ReadSlice returning a request line and busy flipping true in which
// Shutdown sees a "parked" connection and arms an already-expired read
// deadline — failing the in-flight request's header/body reads and
// dropping it without a response. Taking the lock orders the two: either
// Shutdown saw busy=true and skipped the kick, or this side sees draining
// and clears the deadline so the final request completes (serveConn exits
// after it via the draining check).
func (e *Edge) markBusy(cs *connState) {
	e.mu.Lock()
	cs.busy.Store(true)
	kicked := e.draining.Load()
	e.mu.Unlock()
	if kicked {
		cs.conn.SetReadDeadline(time.Time{})
	}
}

// reqHead is the parsed request envelope, filled per request.
type reqHead struct {
	contentLen     int64 // -1 = absent
	wantClose      bool
	expectContinue bool
	chunked        bool
}

// serveOne reads, dispatches, and answers exactly one request. It returns
// whether the connection should stay open.
func (e *Edge) serveOne(cs *connState) (keepAlive bool, err error) {
	// Request line. A clean EOF between requests is a normal close.
	line, err := cs.br.ReadSlice('\n')
	if err != nil {
		if err == bufio.ErrBufferFull {
			e.markBusy(cs)
			return false, cs.writeSimple(http.StatusRequestURITooLong, "request line too long", 0, false)
		}
		return false, err
	}
	e.markBusy(cs)
	defer cs.busy.Store(false)

	line = trimCRLF(line)
	sp1 := bytes.IndexByte(line, ' ')
	if sp1 < 0 {
		return false, cs.writeSimple(http.StatusBadRequest, "malformed request line", 0, false)
	}
	sp2 := bytes.IndexByte(line[sp1+1:], ' ')
	if sp2 < 0 {
		return false, cs.writeSimple(http.StatusBadRequest, "malformed request line", 0, false)
	}
	sp2 += sp1 + 1
	method, path, proto := line[:sp1], line[sp1+1:sp2], line[sp2+1:]
	http11 := bytes.Equal(proto, proto11)

	// The fast path: POST /invoke/{fn}. The function name is copied into
	// connection-owned scratch space because every subsequent ReadSlice may
	// invalidate the request-line bytes.
	fastPath := bytes.Equal(method, methodPost) && bytes.HasPrefix(path, pathInvoke)
	if fastPath {
		cs.fname = append(cs.fname[:0], path[len(pathInvoke):]...)
	} else {
		// Cold path (GET endpoints, anything else): reconstruct a request
		// for the normal mux. Copies and allocations are fine here, but
		// framing is not — serveCold must consume (or refuse-and-close)
		// any declared body, or its bytes would be parsed as the next
		// request line under keep-alive.
		methodS, pathS := string(method), string(path)
		var h reqHead
		if err := e.readHead(cs, &h); err != nil {
			return false, err
		}
		return e.serveCold(cs, methodS, pathS, http11, &h)
	}

	// Trace origin: after the request line is in hand (the blocking
	// keep-alive read must not count) and before the header/body reads.
	rec := e.g.Pool.Trace()
	var tMark int64
	if rec != nil {
		tMark = rec.Now()
		cs.span = trace.Span{FuncID: -1, External: true, StartNS: tMark}
	}

	var h reqHead
	if err := e.readHead(cs, &h); err != nil {
		return false, err
	}
	keepAlive = http11 && !h.wantClose
	if rec != nil {
		t := rec.Now()
		cs.span.Stages[trace.StageParse] += t - tMark
		tMark = t
	}

	// Keyed requests leave the zero-alloc path: idempotent replay rides
	// the dedup cache shared with the net/http handler, so the edge
	// PARSES the header without allocating (readHead) and FORWARDS the
	// request through the cold-path delegate, key intact. This is the
	// steady state behind a dispatcher, which keys EVERY request; the
	// detour measures +0.8 µs and 5 allocs per 64 B echo against the
	// keyless fast path (benchmark rows gateway.edge_keyed_us.64 vs
	// gateway.edge_keyless_us.64).
	if len(cs.ikey) > 0 && e.g.Dedup != nil {
		return e.serveCold(cs, "POST", "/invoke/"+string(cs.fname), http11, &h)
	}

	// Header-derived refusals, before any body byte moves:
	// declared-oversized payloads must not cost pool memory or bandwidth
	// (the connection closes — the body is unread on the wire), and
	// chunked bodies belong to the net/http gateway, not the fast path.
	if h.contentLen > e.g.maxBody() {
		return false, cs.writeSimple(http.StatusRequestEntityTooLarge, "payload too large", 0, false)
	}
	if h.chunked || h.contentLen < 0 {
		return false, cs.writeSimple(http.StatusLengthRequired, "content-length required", 0, false)
	}
	cl := int(h.contentLen)

	if e.draining.Load() || e.g.Pool.Draining() {
		refuseTrace(rec, cs, tMark)
		return cs.reject(&h, keepAlive, http.StatusServiceUnavailable, "draining", 5, true)
	}

	def := e.g.Reg.LookupBytes(cs.fname)
	if def == nil {
		refuseTrace(rec, cs, tMark)
		return cs.reject(&h, keepAlive, http.StatusNotFound, "unknown function", 0, false)
	}
	if rec != nil {
		cs.span.FuncID = int32(def.ID)
	}

	// Circuit breaker, then admission — the same order and semantics as
	// handleInvoke, lookup via bytes so the closed path stays alloc-free.
	var (
		brk   = e.g.Breakers.ForBytes(cs.fname)
		probe bool
	)
	if brk != nil {
		p, ok, retry := brk.Allow(time.Now())
		if !ok {
			refuseTrace(rec, cs, tMark)
			return cs.reject(&h, keepAlive, http.StatusServiceUnavailable, "circuit open", retrySecs(retry), false)
		}
		probe = p
	}
	if !e.g.Adm.TryAdmit() {
		if probe {
			brk.CancelProbe()
		}
		refuseTrace(rec, cs, tMark)
		return cs.reject(&h, keepAlive, http.StatusTooManyRequests, "saturated", 1, false)
	}
	defer e.g.Adm.Release()
	if rec != nil {
		t := rec.Now()
		cs.span.Stages[trace.StageAdmit] += t - tMark
		tMark = t
	}

	if h.expectContinue {
		if _, err := cs.conn.Write(continue100); err != nil {
			if probe {
				brk.CancelProbe()
			}
			return false, err
		}
	}

	// Read the body straight into the connection's reusable buffer — the
	// exact bytes the ArgBuf will alias, no intermediate copy or slice.
	if cap(cs.body) < cl {
		cs.body = make([]byte, cl)
	}
	payload := cs.body[:cl]
	if _, err := io.ReadFull(cs.br, payload); err != nil {
		if probe {
			brk.CancelProbe()
		}
		return false, err
	}
	if rec != nil {
		// The body read folds into parse: wire time, not runtime time.
		t := rec.Now()
		cs.span.Stages[trace.StageParse] += t - tMark
		tMark = t
	}

	// Deadline via the connection's recycled timer: InvokeTimed selects on
	// its channel directly, so no context (or timer) is allocated.
	var (
		deadline time.Time
		expired  <-chan time.Time
	)
	if d := e.g.RequestTimeout; d > 0 {
		deadline = time.Now().Add(d)
		if cs.timer == nil {
			cs.timer = time.NewTimer(d)
		} else {
			cs.timer.Reset(d)
		}
		cs.timerArmed = true
		expired = cs.timer.C
	}

	var spp *trace.Span
	if rec != nil {
		spp = &cs.span
	}
	resp, abandoned, err := e.g.Pool.InvokeTimed(def, payload, deadline, expired, spp)

	if cs.timerArmed {
		cs.timerArmed = false
		if abandoned {
			// InvokeTimed consumed the fired tick; the timer is clean.
		} else if !cs.timer.Stop() {
			// Fired between completion and Stop: drain the stale tick so
			// the next Reset cannot deliver it into a fresh invocation.
			select {
			case <-cs.timer.C:
			default:
			}
		}
	}
	if abandoned {
		// The runtime still owns the ArgBuf aliasing cs.body: surrender
		// the buffer to the GC and start fresh next request (rare path).
		cs.body = nil
	}

	if brk != nil {
		e.g.recordOutcome(brk, probe, err)
	}
	if err != nil {
		// Abandoned requests are published by the runtime when they finally
		// finish (the canceled rule in pool.finish); everything else is the
		// edge's to publish. A span the runtime never adopted (submit-time
		// refusal) has no EndNS — classify and close it here.
		if rec != nil && !abandoned {
			sh := int(cs.span.Shard)
			if cs.span.EndNS == 0 {
				sh = -1
				cs.span.EndNS = rec.Now()
				switch {
				case errors.Is(err, pool.ErrDegraded):
					cs.span.Outcome = trace.OutcomeShed
				case errors.Is(err, pool.ErrSaturated):
					cs.span.Outcome = trace.OutcomeSaturated
				default:
					cs.span.Outcome = trace.OutcomeError
				}
			}
			rec.Publish(sh, &cs.span)
		}
		return keepAlive, cs.writeInvokeError(err)
	}

	// Answer straight from the VMA-backed response bytes: build the head
	// in connection scratch, then one writev for head + body.
	b := cs.wbuf[:0]
	b = append(b, "HTTP/1.1 200 OK\r\nContent-Length: "...)
	b = strconv.AppendInt(b, int64(len(resp)), 10)
	b = append(b, "\r\nContent-Type: application/octet-stream\r\n\r\n"...)
	cs.wbuf = b
	if err := cs.writev(b, resp); err != nil {
		return false, err
	}
	if rec != nil {
		// Response writev, stamped after the bytes hit the socket; then the
		// completed span lands on the shard of the executor that finished it.
		t := rec.Now()
		if cs.span.EndNS > 0 {
			cs.span.Stages[trace.StageResp] += t - cs.span.EndNS
		}
		cs.span.EndNS = t
		rec.Publish(int(cs.span.Shard), &cs.span)
	}
	return keepAlive, nil
}

// refuseTrace closes and publishes a span for a request refused at the edge
// (draining, unknown function, open breaker, admission). The time since the
// last mark is charged to admit — the refusal verdict IS the admission work.
func refuseTrace(rec *trace.Recorder, cs *connState, tMark int64) {
	if rec == nil {
		return
	}
	t := rec.Now()
	cs.span.Stages[trace.StageAdmit] += t - tMark
	cs.span.EndNS = t
	cs.span.Outcome = trace.OutcomeRefused
	rec.Publish(-1, &cs.span)
}

// writev writes head+body with one gathered write, rebuilding the
// net.Buffers from the connection's backing array (WriteTo consumes it).
func (cs *connState) writev(head, body []byte) error {
	cs.nbArr[0], cs.nbArr[1] = head, body
	cs.nb = net.Buffers(cs.nbArr[:2])
	_, err := cs.nb.WriteTo(cs.conn)
	cs.nbArr[0], cs.nbArr[1] = nil, nil
	return err
}

// errRefused marks a request readHead already answered (400/431): the
// caller must close the connection without writing anything further. The
// previous code returned writeSimple's error here — nil on a successful
// write — so serveOne carried on and stacked a second response (e.g. 411)
// onto the same request.
var errRefused = errors.New("edge: refusal already written")

// readHead parses the header block into h, leaving the reader positioned
// at the body. Unknown headers are skipped; only the five the edge acts on
// are matched (case-insensitively, without copies).
func (e *Edge) readHead(cs *connState, h *reqHead) error {
	h.contentLen = -1
	cs.host = cs.host[:0]
	cs.ikey = cs.ikey[:0]
	for {
		line, err := cs.br.ReadSlice('\n')
		if err != nil {
			if err == bufio.ErrBufferFull {
				if werr := cs.writeSimple(http.StatusRequestHeaderFieldsTooLarge, "header too large", 0, false); werr != nil {
					return werr
				}
				return errRefused
			}
			return err
		}
		line = trimCRLF(line)
		if len(line) == 0 {
			return nil
		}
		colon := bytes.IndexByte(line, ':')
		if colon < 0 {
			continue
		}
		key, val := line[:colon], TrimOWS(line[colon+1:])
		switch {
		case bytes.EqualFold(key, hdrContentLength):
			n, ok := ParseDecimal(val)
			if !ok {
				if werr := cs.writeSimple(http.StatusBadRequest, "bad content-length", 0, false); werr != nil {
					return werr
				}
				return errRefused
			}
			h.contentLen = n
		case bytes.EqualFold(key, hdrConnection):
			if bytes.EqualFold(val, valClose) {
				h.wantClose = true
			}
		case bytes.EqualFold(key, hdrExpect):
			if bytes.EqualFold(val, val100Continue) {
				h.expectContinue = true
			}
		case bytes.EqualFold(key, hdrTransferEncoding):
			h.chunked = true
		case bytes.EqualFold(key, hdrHost):
			// Copied into connection scratch: the value's bytes live in
			// the volatile read buffer, invalidated by the next ReadSlice.
			cs.host = append(cs.host[:0], val...)
		case bytes.EqualFold(key, hdrIdemKey):
			cs.ikey = append(cs.ikey[:0], val...)
		}
	}
}

// discard consumes n unread body bytes so a refused request leaves the
// connection aligned on the next request (keep-alive under rejection — the
// retry-heavy overload pattern must not pay connection setup per 429).
func (cs *connState) discard(n int) error {
	if n <= 0 {
		return nil
	}
	_, err := cs.br.Discard(n)
	return err
}

// reject answers a refusal issued before any body byte was consumed. A
// normal client has the declared body in flight, so it is discarded and
// the connection kept alive. An Expect: 100-continue client has NOT sent
// the body and is waiting for the interim response — blocking in Discard
// would stall both sides until the client's expect timeout — so the final
// status goes out immediately and the connection closes, which RFC 9110
// §10.1.1 permits in place of the 100.
func (cs *connState) reject(h *reqHead, keepAlive bool, status int, msg string, retry int, drain bool) (bool, error) {
	if h.expectContinue {
		return false, cs.writeSimple(status, msg, retry, drain)
	}
	if err := cs.discard(int(h.contentLen)); err != nil {
		return false, err
	}
	return keepAlive, cs.writeSimple(status, msg, retry, drain)
}

// serveCold feeds a non-fast-path request through the regular gateway mux
// via a buffered ResponseWriter, then serializes the result. Allocation
// cost is irrelevant here; connection framing is not. A declared body is
// read off the wire before the mux runs (so keep-alive stays aligned on a
// request-line boundary), oversized or chunked bodies are refused with the
// connection closing (never buffered), and Connection: close is honored.
func (e *Edge) serveCold(cs *connState, method, path string, http11 bool, h *reqHead) (bool, error) {
	keepAlive := http11 && !h.wantClose
	if h.chunked {
		return false, cs.writeSimple(http.StatusLengthRequired, "content-length required", 0, false)
	}
	if h.contentLen > e.g.maxBody() {
		return false, cs.writeSimple(http.StatusRequestEntityTooLarge, "payload too large", 0, false)
	}
	var body io.Reader
	if h.contentLen > 0 {
		if h.expectContinue {
			if _, err := cs.conn.Write(continue100); err != nil {
				return false, err
			}
		}
		buf := make([]byte, h.contentLen)
		if _, err := io.ReadFull(cs.br, buf); err != nil {
			return false, err
		}
		body = bytes.NewReader(buf)
	}
	req, err := http.NewRequest(method, "http://jordd"+path, body)
	if err != nil {
		return false, cs.writeSimple(http.StatusBadRequest, "malformed request", 0, false)
	}
	if len(cs.host) > 0 {
		req.Host = string(cs.host)
	}
	if len(cs.ikey) > 0 {
		req.Header.Set(IdempotencyKeyHeader, string(cs.ikey))
	}
	cw := &coldWriter{h: make(http.Header), status: http.StatusOK}
	e.mux.ServeHTTP(cw, req)

	b := cs.wbuf[:0]
	b = append(b, "HTTP/1.1 "...)
	b = strconv.AppendInt(b, int64(cw.status), 10)
	b = append(b, ' ')
	b = append(b, http.StatusText(cw.status)...)
	b = append(b, "\r\nContent-Length: "...)
	b = strconv.AppendInt(b, int64(cw.buf.Len()), 10)
	b = append(b, "\r\n"...)
	for k, vs := range cw.h {
		for _, v := range vs {
			b = append(b, k...)
			b = append(b, ": "...)
			b = append(b, v...)
			b = append(b, "\r\n"...)
		}
	}
	b = append(b, "\r\n"...)
	cs.wbuf = b
	if err := cs.writev(b, cw.buf.Bytes()); err != nil {
		return false, err
	}
	return keepAlive, nil
}

// coldWriter is the minimal ResponseWriter behind serveCold.
type coldWriter struct {
	h      http.Header
	buf    bytes.Buffer
	status int
	wrote  bool
}

func (w *coldWriter) Header() http.Header { return w.h }
func (w *coldWriter) WriteHeader(code int) {
	if !w.wrote {
		w.status = code
		w.wrote = true
	}
}
func (w *coldWriter) Write(p []byte) (int, error) {
	w.wrote = true
	return w.buf.Write(p)
}

// writeSimple answers a status with a short plain-text body (retrySecs > 0
// adds Retry-After; drain adds the DrainingHeader cluster marker), built
// entirely in connection scratch — error paths stay allocation-free too,
// so overload answers are as cheap as successes.
func (cs *connState) writeSimple(status int, msg string, retrySecs int, drain bool) error {
	b := cs.wbuf[:0]
	b = append(b, "HTTP/1.1 "...)
	b = strconv.AppendInt(b, int64(status), 10)
	b = append(b, ' ')
	b = append(b, http.StatusText(status)...)
	b = append(b, "\r\nContent-Length: "...)
	b = strconv.AppendInt(b, int64(len(msg)+1), 10)
	b = append(b, "\r\nContent-Type: text/plain; charset=utf-8\r\n"...)
	if retrySecs > 0 {
		b = append(b, "Retry-After: "...)
		b = strconv.AppendInt(b, int64(retrySecs), 10)
		b = append(b, "\r\n"...)
	}
	if drain {
		b = append(b, DrainingHeader...)
		b = append(b, ": 1\r\n"...)
	}
	b = append(b, "\r\n"...)
	b = append(b, msg...)
	b = append(b, '\n')
	cs.wbuf = b
	_, err := cs.conn.Write(b)
	return err
}

// writeInvokeError is writeInvokeError's status mapping for the edge path.
func (cs *connState) writeInvokeError(err error) error {
	switch {
	case errors.Is(err, pool.ErrSaturated):
		return cs.writeSimple(http.StatusTooManyRequests, "saturated", 1, false)
	case errors.Is(err, pool.ErrDegraded):
		return cs.writeSimple(http.StatusServiceUnavailable, "degraded", 1, false)
	case errors.Is(err, pool.ErrDraining):
		return cs.writeSimple(http.StatusServiceUnavailable, "draining", 5, true)
	case errors.Is(err, pool.ErrUnknownFunction):
		return cs.writeSimple(http.StatusNotFound, "unknown function", 0, false)
	case errors.Is(err, context.DeadlineExceeded):
		return cs.writeSimple(http.StatusGatewayTimeout, "deadline exceeded", 0, false)
	case errors.Is(err, context.Canceled):
		return cs.writeSimple(StatusClientClosedRequest, "client closed request", 0, false)
	default:
		return cs.writeSimple(http.StatusInternalServerError, err.Error(), 0, false)
	}
}

// retrySecs converts a breaker's retry hint to whole seconds, minimum 1.
func retrySecs(d time.Duration) int {
	s := int((d + time.Second - 1) / time.Second)
	if s < 1 {
		s = 1
	}
	return s
}

func trimCRLF(b []byte) []byte {
	if n := len(b); n > 0 && b[n-1] == '\n' {
		b = b[:n-1]
	}
	if n := len(b); n > 0 && b[n-1] == '\r' {
		b = b[:n-1]
	}
	return b
}

// TrimOWS strips optional whitespace (spaces/tabs) from both ends.
func TrimOWS(b []byte) []byte {
	for len(b) > 0 && (b[0] == ' ' || b[0] == '\t') {
		b = b[1:]
	}
	for n := len(b); n > 0 && (b[n-1] == ' ' || b[n-1] == '\t'); n = len(b) {
		b = b[:n-1]
	}
	return b
}

// ParseDecimal parses a non-negative decimal without allocating. Inputs
// longer than 18 digits are rejected outright: 18 digits always fit int64,
// while longer strings could wrap the n*10+digit accumulator past the sign
// bit and back to a small positive value — a Content-Length alias that
// would let the edge misframe the body (checking n < 0 alone misses the
// double-wrap case).
func ParseDecimal(b []byte) (int64, bool) {
	if len(b) == 0 || len(b) > 18 {
		return 0, false
	}
	var n int64
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int64(c-'0')
	}
	return n, true
}
