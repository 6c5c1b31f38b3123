package cluster

import (
	"bufio"
	"bytes"
	"context"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"jord/internal/httpwire"
)

// checkHeadAgainstNetHTTP holds httpwire.ParseResponseHead, reading
// relayedHeaders, to net/http's reading of the same bytes. headFast is a
// promise that http.ReadResponse accepts the head and agrees on status,
// framing and the relayed headers; headMore, that there is no complete
// head for it to accept. headSlow promises nothing: the relay then asks
// http.ReadResponse itself.
func checkHeadAgainstNetHTTP(t *testing.T, data []byte) headVerdict {
	t.Helper()
	var h respHead
	n, v := httpwire.ParseResponseHead(data, &h.ResponseHead, relayedHeaders[:], h.vals[:])
	ref, err := http.ReadResponse(bufio.NewReader(bytes.NewReader(data)), nil)
	switch v {
	case headMore:
		if err == nil {
			t.Fatalf("parser wants more bytes, net/http accepted a %d:\n%q", ref.StatusCode, data)
		}
	case headFast:
		if err != nil {
			t.Fatalf("parser framed a head net/http rejects (%v):\n%q", err, data)
		}
		if ref.StatusCode != h.Status || ref.ContentLength != h.ContentLength || ref.Close != h.Close ||
			len(ref.TransferEncoding) != 0 {
			t.Fatalf("status/framing: parser %d len %d close %v; net/http %d len %d close %v te %v\n%q",
				h.Status, h.ContentLength, h.Close, ref.StatusCode, ref.ContentLength, ref.Close, ref.TransferEncoding, data)
		}
		for i, name := range relayedHeaders {
			_, present := ref.Header[name]
			if want := ref.Header.Get(name); want != string(h.vals[i]) || present != (h.vals[i] != nil) {
				t.Fatalf("%s: parser %q, net/http %q (present %v)\n%q", name, h.vals[i], want, present, data)
			}
		}
		// Same body start: what net/http reads as the body is what follows
		// the parser's head, up to the declared length.
		want := data[n:]
		if int64(len(want)) > h.ContentLength {
			want = want[:h.ContentLength]
		}
		if body, _ := io.ReadAll(ref.Body); !bytes.Equal(body, want) {
			t.Fatalf("body: net/http read %q, parser's head leaves %q\n%q", body, want, data)
		}
		// A head that arrives in pieces is the same head: no prefix of it
		// may be framed differently.
		for k := 0; k < n; k++ {
			if _, pv := httpwire.ParseResponseHead(data[:k], &h.ResponseHead, relayedHeaders[:], h.vals[:]); pv != headMore {
				t.Fatalf("prefix of %d bytes of a %d-byte head: verdict %d\n%q", k, n, pv, data)
			}
		}
	}
	return v
}

// The parser's verdicts under the names this file reads them by.
type headVerdict = httpwire.Verdict

const (
	headMore = httpwire.HeadMore
	headFast = httpwire.HeadFast
	headSlow = httpwire.HeadSlow
)

var respHeadCases = []struct {
	name string
	in   string
	want headVerdict
}{
	{"edge 200", "HTTP/1.1 200 OK\r\nContent-Length: 5\r\nContent-Type: application/octet-stream\r\n\r\nhello", headFast},
	{"edge drain 503", "HTTP/1.1 503 Service Unavailable\r\nContent-Length: 9\r\nContent-Type: text/plain; charset=utf-8\r\nRetry-After: 5\r\nX-Jord-Draining: 1\r\n\r\ndraining\n", headFast},
	{"replay", "HTTP/1.1 200 OK\r\nX-Jord-Dedup: 1\r\nContent-Length: 0\r\n\r\n", headFast},
	{"net/http worker", "HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\nDate: Mon, 01 Jan 2024 00:00:00 GMT\r\nContent-Length: 2\r\n\r\nok", headFast},
	{"lower-case names, padded values", "HTTP/1.1 429 Too Many Requests\r\ncontent-length:  3 \r\nretry-after:\t7\r\n\r\nabc", headFast},
	{"bare LF", "HTTP/1.1 200 OK\nContent-Length: 1\n\nx", headFast},
	{"no reason phrase", "HTTP/1.1 200\r\nContent-Length: 0\r\n\r\n", headFast},
	{"connection close", "HTTP/1.1 200 OK\r\nConnection: close\r\nContent-Length: 1\r\n\r\nx", headFast},
	{"connection keep-alive", "HTTP/1.1 200 OK\r\nConnection: Keep-Alive\r\nContent-Length: 1\r\n\r\nx", headFast},
	{"connection token list", "HTTP/1.1 200 OK\r\nConnection: keep-alive, close\r\nContent-Length: 0\r\n\r\n", headFast},
	{"connection cloſe", "HTTP/1.1 200 OK\r\nConnection: cloſe\r\nContent-Length: 0\r\n\r\n", headFast},
	{"repeated header, first wins", "HTTP/1.1 200 OK\r\nContent-Type: a/b\r\nContent-Type: c/d\r\nContent-Length: 0\r\n\r\n", headFast},
	{"empty first value still wins", "HTTP/1.1 200 OK\r\nRetry-After:\r\nRetry-After: 3\r\nContent-Length: 0\r\n\r\n", headFast},

	{"incomplete status line", "HTTP/1.1 200 O", headMore},
	{"incomplete headers", "HTTP/1.1 200 OK\r\nContent-Length: 5\r\n", headMore},
	{"empty", "", headMore},

	{"chunked", "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n", headSlow},
	{"close-delimited", "HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\n\r\nuntil close", headSlow},
	{"HTTP/1.0", "HTTP/1.0 200 OK\r\nContent-Length: 1\r\n\r\nx", headSlow},
	{"interim", "HTTP/1.1 100 Continue\r\n\r\n", headSlow},
	{"no content", "HTTP/1.1 204 No Content\r\nContent-Length: 0\r\n\r\n", headSlow},
	{"two content-lengths", "HTTP/1.1 200 OK\r\nContent-Length: 1\r\nContent-Length: 1\r\n\r\nx", headSlow},
	{"signed length", "HTTP/1.1 200 OK\r\nContent-Length: +1\r\n\r\nx", headSlow},
	{"overlong length", "HTTP/1.1 200 OK\r\nContent-Length: 0000000000000000001\r\n\r\nx", headSlow},
	{"folded header", "HTTP/1.1 200 OK\r\nContent-Type: a/b;\r\n q=1\r\nContent-Length: 0\r\n\r\n", headSlow},
	{"space before colon", "HTTP/1.1 200 OK\r\nContent-Length : 1\r\n\r\nx", headSlow},
	{"control byte in value", "HTTP/1.1 200 OK\r\nContent-Type: a\x01b\r\nContent-Length: 0\r\n\r\n", headSlow},
	{"two spaces after version", "HTTP/1.1  200 OK\r\nContent-Length: 0\r\n\r\n", headSlow},
	{"garbage", "\x00\x01\x02\r\n\r\n", headSlow},
}

func TestParseRespHead(t *testing.T) {
	for _, tc := range respHeadCases {
		if got := checkHeadAgainstNetHTTP(t, []byte(tc.in)); got != tc.want {
			t.Errorf("%s: verdict %d, want %d", tc.name, got, tc.want)
		}
	}
}

func FuzzRelayResponseHead(f *testing.F) {
	for _, tc := range respHeadCases {
		f.Add([]byte(tc.in))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkHeadAgainstNetHTTP(t, data)
	})
}

// rawStub is a worker stripped to the wire: it answers every request on
// every connection with a canned echo of the body, allocating nothing in
// steady state, and counts what it served.
type rawStub struct {
	ln     net.Listener
	served atomic.Int64
	mu     sync.Mutex
	conns  []net.Conn
}

func startRawStub(t *testing.T) *rawStub {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := &rawStub{ln: ln}
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			s.mu.Lock()
			s.conns = append(s.conns, c)
			s.mu.Unlock()
			go s.serve(c)
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		s.closeConns()
	})
	return s
}

// closeConns closes every accepted connection, as a restarting worker
// would; the listener keeps accepting.
func (s *rawStub) closeConns() {
	s.mu.Lock()
	for _, c := range s.conns {
		c.Close()
	}
	s.conns = nil
	s.mu.Unlock()
}

func (s *rawStub) serve(c net.Conn) {
	defer c.Close()
	br := bufio.NewReaderSize(c, 16<<10)
	var body, out []byte
	for {
		n := 0
		for {
			line, err := br.ReadSlice('\n')
			if err != nil {
				return
			}
			if v, ok := bytes.CutPrefix(line, []byte("Content-Length: ")); ok {
				n, _ = strconv.Atoi(string(bytes.TrimSpace(v)))
			}
			if len(line) <= 2 {
				break
			}
		}
		if cap(body) < n {
			body = make([]byte, n)
		}
		body = body[:n]
		if _, err := io.ReadFull(br, body); err != nil {
			return
		}
		s.served.Add(1)
		out = append(out[:0], "HTTP/1.1 200 OK\r\nContent-Type: application/octet-stream\r\nContent-Length: "...)
		out = append(strconv.AppendInt(out, int64(n), 10), "\r\n\r\n"...)
		out = append(out, body...)
		if _, err := c.Write(out); err != nil {
			return
		}
	}
}

// TestRelayAllocs: one attempt on a kept-alive worker connection —
// request head, writev, in-place response parse, pooled body, connection
// back in the pool — allocates nothing in steady state. (A cancelable
// context adds context.AfterFunc's registration; the handler path pays
// that, and it is measured here so the number stays honest.)
func TestRelayAllocs(t *testing.T) {
	if race {
		t.Skip("race instrumentation allocates")
	}
	stub := startRawStub(t)
	d := New(Config{Workers: []string{stub.ln.Addr().String()}, HealthInterval: -1})
	defer d.Stop()
	wk := d.snapshot()[0]
	payload := bytes.Repeat([]byte("x"), 64)
	attempt := func(ctx context.Context) {
		resp, _, err := d.forward(ctx, time.Time{}, wk, "echo", "application/octet-stream", "key-1", payload)
		if err != nil {
			t.Fatal(err)
		}
		if resp.status != 200 || !bytes.Equal(resp.body, payload) {
			t.Fatalf("status %d body %q", resp.status, resp.body)
		}
		resp.release()
	}
	attempt(context.Background()) // dial, grow the scratch

	if n := testing.AllocsPerRun(2000, func() { attempt(context.Background()) }); n > 1 {
		t.Errorf("forward: %.2f allocs/op, want <= 1", n)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if n := testing.AllocsPerRun(2000, func() { attempt(ctx) }); n > 4 {
		t.Errorf("forward under a cancelable context: %.2f allocs/op, want <= 4", n)
	}
	if got := len(wk.idle); got != 1 {
		t.Errorf("%d idle connections after serial attempts, want 1", got)
	}
}

func postEcho(t *testing.T, front string) (int, string) {
	t.Helper()
	resp := postInvoke(t, front, "echo", "hello")
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(b)
}

// TestRelayStaleKeepAlive: the worker closed a connection the pool still
// holds (a restart). The next request — keyed, as every request is — is
// answered 200 from one fresh dial, runs once, and the worker is not
// ejected; the redial shows in /statsz.
func TestRelayStaleKeepAlive(t *testing.T) {
	stub := startRawStub(t)
	addr := stub.ln.Addr().String()
	d, front := newTestDispatcher(t, Config{Workers: []string{addr}})
	if status, body := postEcho(t, front.URL); status != 200 || body != "hello" {
		t.Fatalf("warm-up: %d %q", status, body)
	}
	stub.closeConns()

	status, body := postEcho(t, front.URL)
	served := stub.served.Load() // before /statsz fans out to the worker too
	wk := d.find(addr)
	doc := d.aggregateStatsz()
	if status != 200 || body != "hello" {
		t.Fatalf("after the worker closed the pooled conn: %d %q, want 200", status, body)
	}
	if served != 2 {
		t.Fatalf("worker served %d requests, want 2 (one per client request)", served)
	}
	if wk.ejected.Load() || doc.ErrRetries != 0 || doc.UnsafeRetries != 0 {
		t.Fatalf("stale conn ejected the worker: ejected=%v retries=%d/%d", wk.ejected.Load(), doc.ErrRetries, doc.UnsafeRetries)
	}
	if doc.RelayRedials != 1 {
		t.Fatalf("relay_redials = %d, want 1", doc.RelayRedials)
	}
}

// TestRelayResponseFraming: whatever way a worker frames its response —
// Content-Length within the buffer budget, past it, chunked within and
// past it, Connection: close — the client receives the same bytes, and a
// connection with anything but a fully read Content-Length body on it is
// not pooled.
func TestRelayResponseFraming(t *testing.T) {
	const max = 1024
	big := strings.Repeat("0123456789abcdef", 640) // 10 KiB, past max
	addr := stubWorker(t, func(w http.ResponseWriter, r *http.Request) {
		body := "small"
		if strings.Contains(r.URL.Path, "big") {
			body = big
		}
		w.Header().Set("Retry-After", "3")
		switch {
		case strings.Contains(r.URL.Path, "chunked"):
			w.(http.Flusher).Flush() // headers out before the length is known
		case strings.Contains(r.URL.Path, "close"):
			w.Header().Set("Connection", "close")
			fallthrough
		default:
			w.Header().Set("Content-Length", strconv.Itoa(len(body)))
		}
		io.WriteString(w, body)
	})
	d, front := newTestDispatcher(t, Config{Workers: []string{addr}, MaxBodyBytes: max})
	wk := d.find(addr)
	for _, tc := range []struct {
		fn     string
		want   string
		pooled int // connections idle afterwards
	}{
		{"length", "small", 1},
		{"length-big", big, 0},
		{"chunked", "small", 0},
		{"chunked-big", big, 0},
		{"close", "small", 0},
		{"length", "small", 1},
	} {
		wk.closeIdle(false)
		resp := postInvoke(t, front.URL, tc.fn, "x")
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != 200 || string(body) != tc.want {
			t.Fatalf("%s: status %d err %v, %d body bytes, want %d", tc.fn, resp.StatusCode, err, len(body), len(tc.want))
		}
		if got := resp.Header.Get("Retry-After"); got != "3" {
			t.Fatalf("%s: Retry-After %q not relayed", tc.fn, got)
		}
		if got := len(wk.idle); got != tc.pooled {
			t.Fatalf("%s: %d connections pooled afterwards, want %d", tc.fn, got, tc.pooled)
		}
	}
	if n := d.dispatched.Load(); n != 6 {
		t.Fatalf("dispatched = %d, want 6", n)
	}
}

// countingDial tracks how many connections a dial function has open.
type countingDial struct {
	open, max atomic.Int64
}

type countedConn struct {
	net.Conn
	cd   *countingDial
	once sync.Once
}

func (c *countedConn) Close() error {
	c.once.Do(func() { c.cd.open.Add(-1) })
	return c.Conn.Close()
}

func (cd *countingDial) dial(ctx context.Context, addr string) (net.Conn, error) {
	var nd net.Dialer
	c, err := nd.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	n := cd.open.Add(1)
	for m := cd.max.Load(); n > m && !cd.max.CompareAndSwap(m, n); m = cd.max.Load() {
	}
	return &countedConn{Conn: c, cd: cd}, nil
}

// TestRelayConnBound: the pool has no size setting because it needs none —
// under 4k concurrent clients a worker never has more than k connections.
func TestRelayConnBound(t *testing.T) {
	const k = 4
	addr := stubWorker(t, func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(2 * time.Millisecond)
		io.Copy(w, r.Body)
	})
	var cd countingDial
	_, front := newTestDispatcher(t, Config{Workers: []string{addr}, Bound: k, Dial: cd.dial})

	var ok, busy atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < 4*k; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				resp, err := http.Post(front.URL+"/invoke/echo", "text/plain", strings.NewReader("x"))
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				switch resp.StatusCode {
				case http.StatusOK:
					ok.Add(1)
				case http.StatusTooManyRequests:
					busy.Add(1)
				default:
					t.Errorf("status %d", resp.StatusCode)
				}
			}
		}()
	}
	wg.Wait()
	if ok.Load() == 0 || busy.Load() == 0 {
		t.Fatalf("ok=%d busy=%d: the load never pressed on the bound", ok.Load(), busy.Load())
	}
	if m := cd.max.Load(); m > k {
		t.Fatalf("%d connections open to one worker at once, bound %d", m, k)
	}
}

// TestRelayClientAbort: the client hangs up mid-invoke. The blocked worker
// read must end (no per-request watcher goroutine does it: the handler's
// context kicks the connection's deadline), the connection is closed — so
// the worker sees the abort — rather than pooled, and nothing is left
// running afterwards.
func TestRelayClientAbort(t *testing.T) {
	before := runtime.NumGoroutine()
	entered := make(chan struct{})
	aborted := make(chan struct{})
	worker := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		close(entered)
		<-r.Context().Done()
		close(aborted)
	}))
	addr := strings.TrimPrefix(worker.URL, "http://")
	d := New(Config{Workers: []string{addr}, HealthInterval: -1})
	front := httptest.NewServer(d.Handler())
	client := &http.Client{Transport: &http.Transport{}}

	ctx, cancel := context.WithCancel(context.Background())
	clientDone := make(chan error, 1)
	go func() {
		req, _ := http.NewRequestWithContext(ctx, "POST", front.URL+"/invoke/echo", strings.NewReader("x"))
		_, err := client.Do(req)
		clientDone <- err
	}()
	<-entered
	cancel()
	if err := <-clientDone; err == nil {
		t.Fatal("canceled client request returned no error")
	}
	select {
	case <-aborted:
	case <-time.After(5 * time.Second):
		t.Fatal("worker never saw the abort")
	}

	client.CloseIdleConnections()
	front.Close() // waits for the handler, hence for forward
	wk := d.snapshot()[0]
	if n, out := len(wk.idle), wk.outstanding.Load(); n != 0 || out != 0 {
		t.Fatalf("after the abort: %d pooled connections, %d outstanding; want 0/0", n, out)
	}
	d.Stop()
	worker.Close()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines, %d before the test:\n%s", runtime.NumGoroutine(), before, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}
