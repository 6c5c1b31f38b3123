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

	"jord/internal/httpwire"
	"jord/internal/server/trace"
)

// Edge is the zero-allocation HTTP/1.1 front end. Go's net/http allocates
// request and header objects per request by design, so the edge speaks
// just enough HTTP/1.1 itself — the fasthttp approach, specialized to
// jordd's surface:
//
//   - /invoke/{fn}, keyed or not: the head parsed in place with ReadSlice
//     by httpwire.ParseRequestHead, as strictly as net/http reads it, then
//     the gateway's one invoke pipeline (pipeline.go) on the connection's
//     reusable invocation — body read straight into a per-connection
//     buffer that becomes the ArgBuf payload zero-copy, deadline on a
//     recycled per-connection timer through pool.InvokeTimed, the response
//     one writev straight from the VMA-backed result bytes.
//   - Everything else (the management GETs) delegates to the net/http
//     handlers through a buffered adapter — the cold path.
//
// Per-connection state is pooled and reused across requests and
// connections, so the steady-state request allocates nothing, keyed or
// not (TestEdgeInvokeAllocs, TestEdgeKeyedAllocs, the gateway.edge_*
// benchmark rows).
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

	wbuf []byte // response head
	msg  []byte // plain-text error body
	body []byte // request body; becomes the ArgBuf payload zero-copy

	head      httpwire.RequestHead
	inv       invocation // the pipeline's view of the request; inv.cs == this
	keepAlive bool
	wv        httpwire.Writev // head + VMA-backed response in one write

	// busy is true while a request is being processed; Shutdown only
	// deadline-kicks conns parked between requests.
	busy atomic.Bool
}

// csPool recycles connStates across connections.
var csPool = sync.Pool{New: func() any {
	cs := &connState{
		br:   bufio.NewReaderSize(nil, 16<<10),
		wbuf: make([]byte, 0, 256),
		msg:  make([]byte, 0, 64),
		head: httpwire.RequestHead{Method: make([]byte, 0, 8), Path: make([]byte, 0, 64), Key: make([]byte, 0, 64)},
	}
	cs.inv.cs = cs
	return cs
}}

// Serve accepts connections on ln until Shutdown closes it. Called after
// Shutdown, it closes ln and returns nil at once.
func (e *Edge) Serve(ln net.Listener) error {
	e.mu.Lock()
	if e.draining.Load() {
		// Shutdown ran first and found no listener to close.
		e.mu.Unlock()
		ln.Close()
		return nil
	}
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
	if cs.inv.timer != nil {
		cs.inv.timer.Stop()
	}
	cs.conn = nil
	cs.br.Reset(nil)
	cs.busy.Store(false)
	csPool.Put(cs)
	e.wg.Done()
}

// Byte constants for allocation-free matching.
var (
	pathInvoke  = []byte("/invoke/")
	methodPost  = []byte("POST")
	continue100 = []byte("HTTP/1.1 100 Continue\r\n\r\n")
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

	// Trace origin: after the request line is in hand (the blocking
	// keep-alive read must not count) and before the header/body reads.
	h, inv := &cs.head, &cs.inv
	inv.startSpan(e.g.Pool.Trace())
	if status, err := httpwire.ParseRequestHead(line, cs.br, h, IdempotencyKeyHeader); status != 0 || err != nil {
		if err != nil {
			return false, err
		}
		return false, cs.writeSimple(status, http.StatusText(status), 0, false)
	}
	cs.keepAlive = h.HTTP11 && !h.Close
	inv.stamp(trace.StageParse)

	// Every /invoke/ request, keyed or not, runs the invoke pipeline on
	// this connection's invocation; the mux sees only the management
	// routes. Header-derived framing refusals come first: chunked bodies
	// belong to the net/http gateway, not the edge, and the connection
	// closes (the body is unread on the wire).
	if !bytes.HasPrefix(h.Path, pathInvoke) {
		return e.serveCold(cs, h)
	}
	if h.Chunked || h.ContentLength < 0 {
		return false, cs.writeSimple(http.StatusLengthRequired, "content-length required", 0, false)
	}
	inv.fn, inv.key = h.Path[len(pathInvoke):], h.Key
	inv.contentLen, inv.expectContinue = h.ContentLength, h.ExpectContinue
	inv.oversized, inv.bodyRead = h.ContentLength > e.g.maxBody(), false
	if bytes.Equal(h.Method, methodPost) {
		err = e.g.invoke(inv)
	} else {
		err = inv.fail(http.StatusMethodNotAllowed, "method not allowed", 0, false)
	}
	return cs.keepAlive, err
}

// errRefused marks a request whose refusal is already written: the
// caller writes nothing further.
var errRefused = errors.New("edge: refusal already written")

// serveCold feeds a non-invoke request through the regular gateway mux
// via a buffered ResponseWriter, then serializes the result. Allocation
// cost is irrelevant here; connection framing is not. A declared body is
// read off the wire before the mux runs (so keep-alive stays aligned on a
// request-line boundary), oversized or chunked bodies are refused with the
// connection closing (never buffered), and Connection: close is honored.
func (e *Edge) serveCold(cs *connState, h *httpwire.RequestHead) (bool, error) {
	if h.Chunked {
		return false, cs.writeSimple(http.StatusLengthRequired, "content-length required", 0, false)
	}
	if h.ContentLength > e.g.maxBody() {
		return false, cs.writeSimple(http.StatusRequestEntityTooLarge, "payload too large", 0, false)
	}
	var body io.Reader
	if h.ContentLength > 0 {
		if h.ExpectContinue {
			if _, err := cs.conn.Write(continue100); err != nil {
				return false, err
			}
		}
		buf := make([]byte, h.ContentLength)
		if _, err := io.ReadFull(cs.br, buf); err != nil {
			return false, err
		}
		body = bytes.NewReader(buf)
	}
	req, err := http.NewRequest(string(h.Method), "http://jordd"+string(h.Path), body)
	if err != nil {
		return false, cs.writeSimple(http.StatusBadRequest, "malformed request", 0, false)
	}
	cw := &coldWriter{h: make(http.Header), status: http.StatusOK}
	e.mux.ServeHTTP(cw, req)

	head := bytes.NewBuffer(cs.startHead(cw.status, cw.buf.Len()))
	_ = cw.h.Write(head)
	head.WriteString("\r\n")
	if err := cs.wv.Write(cs.conn, head.Bytes(), cw.buf.Bytes()); err != nil {
		return false, err
	}
	return cs.keepAlive, nil
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

// startHead renders a status line and Content-Length into connection
// scratch; the caller appends its headers and the blank line.
func (cs *connState) startHead(status, n int) []byte {
	b := append(cs.wbuf[:0], "HTTP/1.1 "...)
	b = strconv.AppendInt(b, int64(status), 10)
	b = append(b, ' ')
	b = append(b, http.StatusText(status)...)
	b = append(b, "\r\nContent-Length: "...)
	b = strconv.AppendInt(b, int64(n), 10)
	return append(b, "\r\n"...)
}

// writeResponse answers with body straight from its (VMA-backed) bytes:
// the head in connection scratch — Retry-After seconds when retry > 0, the
// DrainingHeader on drain, DedupHeader on a replay — then one writev for
// head + body.
func (cs *connState) writeResponse(status int, ctype string, body []byte, retry int, drain, replay bool) error {
	b := cs.startHead(status, len(body))
	if ctype != "" {
		b = append(b, "Content-Type: "...)
		b = append(b, ctype...)
		b = append(b, "\r\n"...)
	}
	if retry > 0 {
		b = append(b, "Retry-After: "...)
		b = strconv.AppendInt(b, int64(retry), 10)
		b = append(b, "\r\n"...)
	}
	if drain {
		b = append(b, DrainingHeader+": 1\r\n"...)
	}
	if replay {
		b = append(b, DedupHeader+": 1\r\n"...)
	}
	if status == http.StatusMethodNotAllowed {
		b = append(b, "Allow: POST\r\n"...)
	}
	cs.wbuf = append(b, "\r\n"...)
	return cs.wv.Write(cs.conn, cs.wbuf, body)
}

// writeSimple answers a status with a short plain-text message, built in
// connection scratch: error paths stay allocation-free too, so overload
// answers are as cheap as successes.
func (cs *connState) writeSimple(status int, msg string, retry int, drain bool) error {
	cs.msg = append(append(cs.msg[:0], msg...), '\n')
	return cs.writeResponse(status, textPlain, cs.msg, retry, drain, false)
}
