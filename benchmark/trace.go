package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"os"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"jord/internal/server/gateway"
	"jord/internal/server/pool"
	"jord/internal/server/router"
	"jord/internal/server/state"
)

// The traced run measures every layer from outside: the benchmark wraps
// the listener a worker serves on, the handler the dispatcher exposes, the
// bodies in the function registry and the pool's state backend, and
// records one span per crossing. Spans of one request share the request
// id, which travels in the X-Bench-Id header (read by the dispatcher
// wrapper) and as a 17-byte payload prefix (read by the listener and body
// wrappers, stripped before the real body sees the payload). Nothing
// inside the program is touched.

var epoch = time.Now()

// nowNS is the one clock every span and every latency uses (monotonic).
func nowNS() int64 { return int64(time.Since(epoch)) }

type spanKind uint8

const (
	kClient  spanKind = iota // client.request: due time -> last response byte
	kCluster                 // cluster.handle: around Dispatcher.Handler()
	kGateway                 // gateway.serve: first request byte in -> last response byte out
	kBody                    // fn.body: around a registered body
	kState                   // state.op: one call into the state backend or a handle
)

var kindNames = [...]string{"client.request", "cluster.handle", "gateway.serve", "fn.body", "state.op"}

// state.op codes (span.aux).
const (
	stGet int64 = iota
	stTake
	stPut
	stDelete
	stCommit
	stDiscard
	stRelease
)

var stateOpNames = [...]string{"get", "take", "put", "delete", "commit", "discard", "release"}

// span flags.
const (
	flagKeyed    = 1 // gateway.serve: the request carried an idempotency key
	flagConflict = 1 // state.op: the call returned state.ErrTaken
)

type span struct {
	id         uint64
	start, end int64
	aux        int64 // client.request: send time; state.op: op code
	kind       spanKind
	flag       uint8
	worker     int8
}

// tracer holds the spans of one traced run in memory. Spans are only kept
// while armed, so warm-up leaves nothing behind.
type tracer struct {
	armed  atomic.Bool
	shards [16]struct {
		mu    sync.Mutex
		spans []span
		_     [40]byte
	}
	// pdReq maps a protection domain to the request running in it, so the
	// state wrapper (which sees only the PD) can label its spans. Written
	// by the body wrapper at body entry; a PD runs one body at a time.
	pdReq []atomic.Uint64
}

func newTracer() *tracer {
	return &tracer{pdReq: make([]atomic.Uint64, 1<<16)}
}

func (t *tracer) add(s span) {
	if !t.armed.Load() || s.id == 0 {
		return
	}
	sh := &t.shards[s.id&15]
	sh.mu.Lock()
	sh.spans = append(sh.spans, s)
	sh.mu.Unlock()
}

func (t *tracer) all() []span {
	var out []span
	for i := range t.shards {
		out = append(out, t.shards[i].spans...)
	}
	return out
}

// Request ids on the wire: 16 lower-case hex digits; in a payload they are
// followed by one space.
const idPrefixLen = 17

func appendID(b []byte, id uint64) []byte {
	const hex = "0123456789abcdef"
	for shift := 60; shift >= 0; shift -= 4 {
		b = append(b, hex[(id>>uint(shift))&15])
	}
	return b
}

func parseID(b []byte) (uint64, bool) {
	if len(b) < 16 {
		return 0, false
	}
	var id uint64
	for _, c := range b[:16] {
		switch {
		case c >= '0' && c <= '9':
			id = id<<4 | uint64(c-'0')
		case c >= 'a' && c <= 'f':
			id = id<<4 | uint64(c-'a'+10)
		default:
			return 0, false
		}
	}
	return id, id != 0
}

// splitID strips the id prefix off a traced payload.
func splitID(p []byte) (id uint64, rest []byte, ok bool) {
	if len(p) < idPrefixLen || p[16] != ' ' {
		return 0, p, false
	}
	id, ok = parseID(p)
	if !ok {
		return 0, p, false
	}
	return id, p[idPrefixLen:], true
}

// ---- cluster.handle -------------------------------------------------------

const benchIDHeader = "X-Bench-Id"

func (t *tracer) wrapHandler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, ok := parseID([]byte(r.Header.Get(benchIDHeader)))
		if !ok {
			h.ServeHTTP(w, r)
			return
		}
		t0 := nowNS()
		h.ServeHTTP(w, r)
		t.add(span{id: id, kind: kCluster, start: t0, end: nowNS(), worker: -1})
	})
}

// ---- gateway.serve --------------------------------------------------------

type tracedListener struct {
	net.Listener
	t      *tracer
	worker int8
}

func (t *tracer) wrapListener(ln net.Listener, worker int) net.Listener {
	return &tracedListener{Listener: ln, t: t, worker: int8(worker)}
}

func (l *tracedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &tracedConn{Conn: c, t: l.t, worker: l.worker}, nil
}

// tracedConn watches the bytes a worker reads and writes on one
// connection. It parses just enough HTTP/1.1 (no pipelining, declared
// Content-Length — what both the generator and the dispatcher's transport
// send) to know where a request starts, whether it is keyed, which request
// id leads its body, and when the server goes back to reading: at that
// point the previous response is complete and its last Write closes the
// span.
type tracedConn struct {
	net.Conn
	t      *tracer
	worker int8

	mu        sync.Mutex // net/http servers read in the background while a handler writes
	stage     int        // 0 between requests, 1 in the head, 2 in the body, 3 request consumed
	head      []byte
	idBuf     []byte
	bodyLeft  int
	invoke    bool
	keyed     bool
	start     int64
	lastWrite int64
	wrote     bool
}

var (
	crlfcrlf      = []byte("\r\n\r\n")
	hdrCL         = []byte("content-length:")
	hdrKey        = []byte("\r\n" + gateway.IdempotencyKeyHeader + ":")
	invokeReqLine = []byte("POST /invoke/")
)

func (c *tracedConn) Read(p []byte) (int, error) {
	c.mu.Lock()
	c.finishLocked()
	c.mu.Unlock()
	n, err := c.Conn.Read(p)
	if n > 0 {
		now := nowNS()
		c.mu.Lock()
		c.feedLocked(p[:n], now)
		c.mu.Unlock()
	}
	return n, err
}

func (c *tracedConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	now := nowNS()
	c.mu.Lock()
	c.lastWrite, c.wrote = now, true
	c.mu.Unlock()
	return n, err
}

func (c *tracedConn) Close() error {
	c.mu.Lock()
	c.finishLocked()
	c.mu.Unlock()
	return c.Conn.Close()
}

// finishLocked closes the span of a request that has been answered.
func (c *tracedConn) finishLocked() {
	if c.stage != 3 || !c.wrote {
		return
	}
	if c.invoke {
		if id, ok := parseID(c.idBuf); ok {
			s := span{id: id, kind: kGateway, start: c.start, end: c.lastWrite, worker: c.worker}
			if c.keyed {
				s.flag = flagKeyed
			}
			c.t.add(s)
		}
	}
	c.stage, c.wrote = 0, false
}

func (c *tracedConn) feedLocked(b []byte, now int64) {
	for len(b) > 0 {
		switch c.stage {
		case 0:
			c.start, c.stage = now, 1
			c.head, c.idBuf = c.head[:0], c.idBuf[:0]
		case 1:
			c.head = append(c.head, b...)
			b = nil
			i := bytes.Index(c.head, crlfcrlf)
			if i < 0 {
				if len(c.head) > 64<<10 {
					c.stage = 3 // not a request we understand; stop buffering
				}
				continue
			}
			head := c.head[:i+2]
			c.invoke = bytes.HasPrefix(head, invokeReqLine)
			c.keyed = bytes.Contains(head, hdrKey)
			c.bodyLeft = contentLength(head)
			c.stage = 2
			b = c.head[i+4:]
			if c.bodyLeft == 0 {
				c.stage = 3
			}
		case 2:
			n := len(b)
			if n > c.bodyLeft {
				n = c.bodyLeft
			}
			if need := 16 - len(c.idBuf); need > 0 {
				if need > n {
					need = n
				}
				c.idBuf = append(c.idBuf, b[:need]...)
			}
			c.bodyLeft -= n
			b = b[n:]
			if c.bodyLeft == 0 {
				c.stage = 3
			}
		default:
			return // bytes past the declared body: nobody here pipelines
		}
	}
}

// contentLength finds the declared length in a request head (0 if absent).
func contentLength(head []byte) int {
	for len(head) > 0 {
		line := head
		if i := bytes.IndexByte(head, '\n'); i >= 0 {
			line, head = head[:i], head[i+1:]
		} else {
			head = nil
		}
		if len(line) > len(hdrCL) && bytes.EqualFold(line[:len(hdrCL)], hdrCL) {
			n := 0
			for _, ch := range bytes.TrimSpace(line[len(hdrCL):]) {
				if ch < '0' || ch > '9' {
					return 0
				}
				n = n*10 + int(ch-'0')
			}
			return n
		}
	}
	return 0
}

// ---- fn.body --------------------------------------------------------------

// wrapBody times one registered body. A payload without an id prefix
// (seeding, post-run checks) runs the body untouched.
func (t *tracer) wrapBody(worker int, body router.Body) router.Body {
	return func(ctx router.Ctx) ([]byte, error) {
		id, rest, ok := splitID(ctx.Payload())
		if !ok {
			return body(ctx)
		}
		if pc, ok := ctx.(interface{ PD() pool.PDID }); ok {
			t.pdReq[int(pc.PD())&(len(t.pdReq)-1)].Store(id)
		}
		tc := &tracedCtx{Ctx: ctx, payload: rest, id: id}
		t0 := nowNS()
		out, err := body(tc)
		t.add(span{id: id, kind: kBody, start: t0, end: nowNS(), worker: int8(worker)})
		return out, err
	}
}

// tracedCtx hands the body its payload without the id prefix and puts the
// prefix back on nested calls, so child bodies join the same request.
type tracedCtx struct {
	router.Ctx
	payload []byte
	id      uint64
}

func (c *tracedCtx) Payload() []byte { return c.payload }

func (c *tracedCtx) prefixed(payload []byte) []byte {
	b := make([]byte, 0, idPrefixLen+len(payload))
	b = append(appendID(b, c.id), ' ')
	return append(b, payload...)
}

func (c *tracedCtx) Call(fn string, payload []byte) ([]byte, error) {
	return c.Ctx.Call(fn, c.prefixed(payload))
}

func (c *tracedCtx) Async(fn string, payload []byte) (router.Cookie, error) {
	return c.Ctx.Async(fn, c.prefixed(payload))
}

// ---- state.op -------------------------------------------------------------

// tracedState is the timing decorator over pool.StateBackend, installed
// with Pool.SetState before the first request. Returned handles are
// wrapped too, so Commit, Discard and Release are timed where they happen.
type tracedState struct {
	inner  pool.StateBackend
	t      *tracer
	worker int8
}

func (t *tracer) wrapState(inner pool.StateBackend, worker int) pool.StateBackend {
	return &tracedState{inner: inner, t: t, worker: int8(worker)}
}

func (s *tracedState) op(pd pool.PDID, code int64, t0 int64, err error) uint64 {
	id := s.t.pdReq[int(pd)&(len(s.t.pdReq)-1)].Load()
	s.opID(id, code, t0, err)
	return id
}

func (s *tracedState) opID(id uint64, code int64, t0 int64, err error) {
	sp := span{id: id, kind: kState, start: t0, end: nowNS(), aux: code, worker: s.worker}
	if errors.Is(err, state.ErrTaken) {
		sp.flag = flagConflict
	}
	s.t.add(sp)
}

func (s *tracedState) Get(pd pool.PDID, fn string, scope router.StateScope, key string) (router.StateSnap, error) {
	t0 := nowNS()
	sn, err := s.inner.Get(pd, fn, scope, key)
	id := s.op(pd, stGet, t0, err)
	if err != nil {
		return nil, err
	}
	return &tracedSnap{StateSnap: sn, s: s, id: id}, nil
}

func (s *tracedState) Take(pd pool.PDID, fn string, scope router.StateScope, key string) (router.StateTx, error) {
	t0 := nowNS()
	tx, err := s.inner.Take(pd, fn, scope, key)
	id := s.op(pd, stTake, t0, err)
	if err != nil {
		return nil, err
	}
	return &tracedTx{StateTx: tx, s: s, id: id}, nil
}

func (s *tracedState) Put(pd pool.PDID, fn string, scope router.StateScope, key string, val []byte) (uint64, error) {
	t0 := nowNS()
	v, err := s.inner.Put(pd, fn, scope, key, val)
	s.op(pd, stPut, t0, err)
	return v, err
}

func (s *tracedState) Delete(pd pool.PDID, fn string, scope router.StateScope, key string) error {
	t0 := nowNS()
	err := s.inner.Delete(pd, fn, scope, key)
	s.op(pd, stDelete, t0, err)
	return err
}

type tracedSnap struct {
	router.StateSnap
	s  *tracedState
	id uint64
}

func (sn *tracedSnap) Release() {
	t0 := nowNS()
	sn.StateSnap.Release()
	sn.s.opID(sn.id, stRelease, t0, nil)
}

type tracedTx struct {
	router.StateTx
	s  *tracedState
	id uint64
}

func (tx *tracedTx) Commit(val []byte) (uint64, error) {
	t0 := nowNS()
	v, err := tx.StateTx.Commit(val)
	tx.s.opID(tx.id, stCommit, t0, err)
	return v, err
}

func (tx *tracedTx) Discard() {
	t0 := nowNS()
	tx.StateTx.Discard()
	tx.s.opID(tx.id, stDiscard, t0, nil)
}

// ---- analysis ---------------------------------------------------------------

// traceSummary is what the span trees of one traced phase add up to.
type traceSummary struct {
	requests int
	// durations in ns, by series
	dur map[string][]int64
	// reconcile holds, per request, the share of the client-observed
	// latency (send -> last byte) that the client's child spans cover.
	reconcile []float64

	gatewaySpans, keyedSpans int
	stateOps                 int // get+take+put+delete
	takes, takeConflicts     int
}

// node is a span placed in its request's tree.
type node struct {
	span
	parent int   // index into the request's nodes, -1 for the root
	cover  int64 // part of [start,end] its direct children cover
	covEnd int64
}

func (n *node) self() int64 { return (n.end - n.start) - n.cover }

// buildTree nests one request's spans by interval containment: a span's
// parent is the tightest span that encloses it. Self time is the span
// minus the part its children cover.
func buildTree(spans []span) []node {
	sort.Slice(spans, func(i, j int) bool {
		a, b := spans[i], spans[j]
		if a.start != b.start {
			return a.start < b.start
		}
		if a.end != b.end {
			return a.end > b.end
		}
		return a.kind < b.kind
	})
	nodes := make([]node, len(spans))
	var stack []int
	for i, s := range spans {
		nodes[i] = node{span: s, parent: -1, covEnd: s.start}
		for len(stack) > 0 {
			top := &nodes[stack[len(stack)-1]]
			if top.start <= s.start && s.end <= top.end {
				break
			}
			stack = stack[:len(stack)-1]
		}
		if len(stack) > 0 {
			pi := stack[len(stack)-1]
			p := &nodes[pi]
			nodes[i].parent = pi
			from := s.start
			if p.covEnd > from {
				from = p.covEnd
			}
			if s.end > from {
				p.cover += s.end - from
				p.covEnd = s.end
			}
		}
		stack = append(stack, i)
	}
	return nodes
}

// analyze groups spans by request, builds each tree and accumulates the
// per-layer series. Requests without a client.request span (their client
// span fell outside the armed phase) are dropped. forEach, when set, sees
// every built tree (used to write the trace file).
func analyze(spans []span, forEach func(id uint64, nodes []node)) *traceSummary {
	sort.Slice(spans, func(i, j int) bool { return spans[i].id < spans[j].id })
	sum := &traceSummary{dur: make(map[string][]int64)}
	add := func(series string, ns int64) { sum.dur[series] = append(sum.dur[series], ns) }
	for lo := 0; lo < len(spans); {
		hi := lo
		for hi < len(spans) && spans[hi].id == spans[lo].id {
			hi++
		}
		group := spans[lo:hi]
		lo = hi
		nodes := buildTree(group)
		if nodes[0].kind != kClient {
			continue
		}
		sum.requests++
		root := &nodes[0]
		if observed := root.end - root.aux; observed > 0 {
			sum.reconcile = append(sum.reconcile, float64(root.cover)/float64(observed))
		}
		for i := range nodes {
			n := &nodes[i]
			d := n.end - n.start
			switch n.kind {
			case kCluster:
				add("cluster.handle", d)
				add("cluster.self", n.self())
			case kGateway:
				sum.gatewaySpans++
				if n.flag&flagKeyed != 0 {
					sum.keyedSpans++
				}
				add("gateway.serve", d)
				add("gateway.serve_self", n.self())
			case kState:
				switch n.aux {
				case stGet, stPut, stDelete:
					sum.stateOps++
				case stTake:
					sum.stateOps++
					sum.takes++
					if n.flag == flagConflict {
						sum.takeConflicts++
					}
				}
				add("state."+stateOpNames[n.aux], d)
			}
		}
		if forEach != nil {
			forEach(group[0].id, nodes)
		}
	}
	return sum
}

func (s *traceSummary) pct(series string, q float64) float64 {
	xs := s.dur[series]
	slices.Sort(xs)
	return percentile(xs, q) / 1e3
}

// ---- trace file -------------------------------------------------------------

type spanJSON struct {
	Request string `json:"request"`
	Name    string `json:"name"`
	Parent  int    `json:"parent"` // index into this file's spans, -1 for a root
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	SelfNS  int64  `json:"self_ns"`
	Worker  int    `json:"worker"` // -1: not on a worker
	Op      string `json:"op,omitempty"`
	Keyed   bool   `json:"keyed,omitempty"`
	SentNS  int64  `json:"sent_ns,omitempty"`
}

type traceFile struct {
	Workload    string     `json:"workload"`
	Seed        int64      `json:"seed"`
	Requests    int        `json:"requests_traced"`
	SampleEvery int        `json:"sample_every"`
	Note        string     `json:"note"`
	Spans       []spanJSON `json:"spans"`
}

// maxTraceFileRequests bounds the trace file: every span stays in memory
// and feeds the metrics, but only an even sample of whole requests is
// written out, so a 100k-request phase does not leave 50 MB behind.
const maxTraceFileRequests = 4000

func writeTraceFile(path string, tf *traceFile) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(tf); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// collector builds the forEach callback that samples requests into tf.
func (tf *traceFile) collector(total int) func(uint64, []node) {
	every := 1
	if total > maxTraceFileRequests {
		every = (total + maxTraceFileRequests - 1) / maxTraceFileRequests
	}
	tf.SampleEvery = every
	seen := 0
	return func(id uint64, nodes []node) {
		seen++
		if (seen-1)%every != 0 {
			return
		}
		base := len(tf.Spans)
		rid := string(appendID(nil, id))
		for i := range nodes {
			n := &nodes[i]
			sj := spanJSON{
				Request: rid, Name: kindNames[n.kind], Parent: -1,
				StartNS: n.start, EndNS: n.end, SelfNS: n.self(), Worker: int(n.worker),
			}
			if n.parent >= 0 {
				sj.Parent = base + n.parent
			}
			switch n.kind {
			case kState:
				sj.Op = stateOpNames[n.aux]
			case kGateway:
				sj.Keyed = n.flag&flagKeyed != 0
			case kClient:
				sj.SentNS = n.aux
			}
			tf.Spans = append(tf.Spans, sj)
		}
	}
}
