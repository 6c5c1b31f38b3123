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

	"jord/internal/server/trace"
)

// Edge is the zero-allocation HTTP/1.1 front end. Go's net/http allocates
// request and header objects per request by design, so the edge speaks
// just enough HTTP/1.1 itself — the fasthttp approach, specialized to
// jordd's surface:
//
//   - /invoke/{fn}, keyed or not: the head parsed in place with ReadSlice,
//     as strictly as net/http reads it (FuzzEdgeRequestHead), then the
//     gateway's one invoke pipeline (pipeline.go) on the connection's
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

	head      reqHead
	inv       invocation // the pipeline's view of the request; inv.cs == this
	keepAlive bool

	// nb is the writev pair (head + VMA-backed response). WriteTo CONSUMES
	// a net.Buffers, so nb is rebuilt each response from the persistent
	// backing array nbArr — appending to the consumed slice would
	// reallocate it every request.
	nb    net.Buffers
	nbArr [2][]byte

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
		head: reqHead{method: make([]byte, 0, 8), path: make([]byte, 0, 64), key: make([]byte, 0, 64)},
	}
	cs.inv.cs = cs
	return cs
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
	if status, err := parseHead(line, cs.br, h); status != 0 || err != nil {
		if err != nil {
			return false, err
		}
		return false, cs.writeSimple(status, http.StatusText(status), 0, false)
	}
	cs.keepAlive = h.http11 && !h.closeTok
	inv.stamp(trace.StageParse)

	// Every /invoke/ request, keyed or not, runs the invoke pipeline on
	// this connection's invocation; the mux sees only the management
	// routes. Header-derived framing refusals come first: chunked bodies
	// belong to the net/http gateway, not the edge, and the connection
	// closes (the body is unread on the wire).
	if !bytes.HasPrefix(h.path, pathInvoke) {
		return e.serveCold(cs, h)
	}
	if h.chunked || h.contentLen < 0 {
		return false, cs.writeSimple(http.StatusLengthRequired, "content-length required", 0, false)
	}
	inv.fn, inv.key = h.path[len(pathInvoke):], h.key
	inv.contentLen, inv.expectContinue = h.contentLen, h.expectContinue
	inv.oversized, inv.bodyRead = h.contentLen > e.g.maxBody(), false
	if bytes.Equal(h.method, methodPost) {
		err = e.g.invoke(inv)
	} else {
		err = inv.fail(http.StatusMethodNotAllowed, "method not allowed", 0, false)
	}
	return cs.keepAlive, err
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

// errRefused marks a request whose refusal is already written: the
// caller writes nothing further.
var errRefused = errors.New("edge: refusal already written")

// reqHead is one parsed request head. method, path and key are copied
// into connection-owned scratch: the read buffer they came from is
// invalidated by the next ReadSlice.
type reqHead struct {
	method, path, key []byte
	http11            bool  // HTTP/1.1 (or a later 1.x): keep-alive by default
	contentLen        int64 // -1 = absent
	closeTok          bool  // a Connection header lists "close"
	expectContinue    bool
	chunked           bool // Transfer-Encoding present: never framed, always refused

	sawHost, sawKey bool
}

// parseHead parses a request head — the request line (read by the caller,
// which marks the connection busy in between) and the header block from
// br — leaving br at the body. It is as strict as http.ReadRequest:
// whatever it accepts, ReadRequest accepts with the same method, target,
// framing, Connection and Expect verdicts and idempotency key (held to
// that by FuzzEdgeRequestHead). Where the RFCs let a server refuse, it is
// stricter: obs-fold, whitespace before a colon, a repeated Content-Length,
// a target that is not an absolute path, an expectation other than
// 100-continue, and versions other than HTTP/1.x are refused. status != 0
// is the refusal to send before closing; err is a read error, after which
// no response is possible.
func parseHead(line []byte, br *bufio.Reader, h *reqHead) (status int, err error) {
	*h = reqHead{method: h.method[:0], path: h.path[:0], key: h.key[:0], contentLen: -1}
	method, rest, ok1 := bytes.Cut(trimCRLF(line), []byte{' '})
	target, proto, ok2 := bytes.Cut(rest, []byte{' '})
	if !ok1 || !ok2 || !isToken(method) || !originForm(target) {
		return http.StatusBadRequest, nil
	}
	if len(proto) != 8 || string(proto[:7]) != "HTTP/1." || proto[7] < '0' || proto[7] > '9' {
		return http.StatusHTTPVersionNotSupported, nil
	}
	h.http11 = proto[7] != '0'
	h.method = append(h.method, method...)
	h.path = append(h.path, target...)
	for {
		line, err := br.ReadSlice('\n')
		if err == bufio.ErrBufferFull {
			return http.StatusRequestHeaderFieldsTooLarge, nil
		} else if err != nil {
			return 0, err
		}
		if line = trimCRLF(line); len(line) == 0 {
			return 0, nil
		}
		// A leading space or tab (obs-fold) or one before the colon fails
		// the token test on the name.
		name, val, ok := bytes.Cut(line, []byte{':'})
		if !ok || !isToken(name) {
			return http.StatusBadRequest, nil
		}
		val = TrimOWS(val)
		for _, c := range val {
			if c < ' ' && c != '\t' || c == 0x7f {
				return http.StatusBadRequest, nil
			}
		}
		switch {
		case asciiFold(name, "Content-Length"):
			if h.contentLen >= 0 {
				return http.StatusBadRequest, nil
			}
			if h.contentLen, ok = ParseDecimal(val); !ok {
				return http.StatusBadRequest, nil
			}
		case asciiFold(name, "Transfer-Encoding"):
			h.chunked = true
		case asciiFold(name, "Connection"):
			h.closeTok = h.closeTok || listHasToken(val, "close")
		case asciiFold(name, "Host"):
			if h.sawHost {
				return http.StatusBadRequest, nil
			}
			h.sawHost = true
		case asciiFold(name, "Expect"):
			if !asciiFold(val, "100-continue") {
				return http.StatusExpectationFailed, nil
			}
			h.expectContinue = true
		case asciiFold(name, IdempotencyKeyHeader):
			if !h.sawKey { // the first counts, as Header.Get reads it
				h.sawKey, h.key = true, append(h.key, val...)
			}
		}
	}
}

// tokenByte marks the RFC 9110 tchar set: method and header-name bytes.
var tokenByte = func() (t [256]bool) {
	for _, c := range []byte("!#$%&'*+-.^_`|~0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ") {
		t[c] = true
	}
	return t
}()

func isToken(b []byte) bool {
	for _, c := range b {
		if !tokenByte[c] {
			return false
		}
	}
	return len(b) > 0
}

// originForm reports whether a request target is an absolute path (and
// query) url.ParseRequestURI accepts: no control bytes, and every %-escape
// in the path well formed.
func originForm(t []byte) bool {
	if len(t) == 0 || t[0] != '/' {
		return false
	}
	for _, c := range t {
		if c < ' ' || c == 0x7f {
			return false
		}
	}
	path, _, _ := bytes.Cut(t, []byte{'?'})
	for i, c := range path {
		if c == '%' && (i+2 >= len(path) || !isHex(path[i+1]) || !isHex(path[i+2])) {
			return false
		}
	}
	return true
}

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

// asciiFold is an ASCII-only case-insensitive comparison: unlike
// bytes.EqualFold it never matches a non-ASCII byte (no "ſ" for "s"), as
// net/http's token comparisons do not.
func asciiFold(b []byte, s string) bool {
	if len(b) != len(s) {
		return false
	}
	for i, c := range b {
		if l := c | 0x20; c != s[i] && (l != s[i]|0x20 || l < 'a' || l > 'z') {
			return false
		}
	}
	return true
}

// listHasToken reports whether a comma-separated header value lists token
// (httpguts.HeaderValuesContainsToken, which net/http reads Connection
// with).
func listHasToken(v []byte, token string) bool {
	for {
		elem, rest, more := bytes.Cut(v, []byte{','})
		if asciiFold(TrimOWS(elem), token) {
			return true
		}
		if !more {
			return false
		}
		v = rest
	}
}

// serveCold feeds a non-invoke request through the regular gateway mux
// via a buffered ResponseWriter, then serializes the result. Allocation
// cost is irrelevant here; connection framing is not. A declared body is
// read off the wire before the mux runs (so keep-alive stays aligned on a
// request-line boundary), oversized or chunked bodies are refused with the
// connection closing (never buffered), and Connection: close is honored.
func (e *Edge) serveCold(cs *connState, h *reqHead) (bool, error) {
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
	req, err := http.NewRequest(string(h.method), "http://jordd"+string(h.path), body)
	if err != nil {
		return false, cs.writeSimple(http.StatusBadRequest, "malformed request", 0, false)
	}
	cw := &coldWriter{h: make(http.Header), status: http.StatusOK}
	e.mux.ServeHTTP(cw, req)

	head := bytes.NewBuffer(cs.startHead(cw.status, cw.buf.Len()))
	_ = cw.h.Write(head)
	head.WriteString("\r\n")
	if err := cs.writev(head.Bytes(), cw.buf.Bytes()); err != nil {
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
	return cs.writev(cs.wbuf, body)
}

// writeSimple answers a status with a short plain-text message, built in
// connection scratch: error paths stay allocation-free too, so overload
// answers are as cheap as successes.
func (cs *connState) writeSimple(status int, msg string, retry int, drain bool) error {
	cs.msg = append(append(cs.msg[:0], msg...), '\n')
	return cs.writeResponse(status, textPlain, cs.msg, retry, drain, false)
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
