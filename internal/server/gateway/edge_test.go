package gateway

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"jord/internal/server/admission"
	"jord/internal/server/breaker"
	"jord/internal/server/pool"
	"jord/internal/server/router"

	"context"
)

// newRig serves reg through both transports of one live gateway — the
// net/http mux on an httptest server and the edge on a loopback listener —
// after opts adjust the gateway; stop shuts everything down.
func newRig(t *testing.T, pc pool.Config, reg *router.Registry, opts ...func(*Gateway)) (muxURL, edgeAddr string, g *Gateway, stop func()) {
	t.Helper()
	p := pool.New(pc, reg)
	p.Start()
	g = &Gateway{
		Reg:            reg,
		Pool:           p,
		Adm:            admission.New(1024),
		Breakers:       breaker.NewSet(breaker.Config{}, reg.Names()),
		RequestTimeout: 5 * time.Second,
		MaxBodyBytes:   1 << 20,
	}
	for _, o := range opts {
		o(g)
	}
	srv := httptest.NewServer(g.Handler())
	e := NewEdge(g)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- e.Serve(ln) }()
	stop = func() {
		srv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := e.Shutdown(ctx); err != nil {
			t.Errorf("edge shutdown: %v", err)
		}
		if err := <-done; err != nil {
			t.Errorf("edge serve: %v", err)
		}
		if err := p.Drain(ctx); err != nil {
			t.Errorf("pool drain: %v", err)
		}
	}
	return srv.URL, ln.Addr().String(), g, stop
}

// newEdgeRig builds a small live daemon stack (echo, fail) and returns its
// edge address and a shutdown func.
func newEdgeRig(t *testing.T, pc pool.Config) (addr string, g *Gateway, stop func()) {
	t.Helper()
	reg := router.New()
	reg.MustRegister("echo", func(ctx router.Ctx) ([]byte, error) {
		return ctx.Payload(), nil
	})
	reg.MustRegister("fail", func(ctx router.Ctx) ([]byte, error) {
		return nil, fmt.Errorf("intentional")
	})
	_, addr, g, stop = newRig(t, pc, reg)
	return addr, g, stop
}

func smallPool() pool.Config {
	return pool.Config{Executors: 2, Orchestrators: 1, NumPDs: 64}
}

// TestEdgeHTTPInterop drives the edge with a stock net/http client: the
// hand-rolled HTTP must interoperate with a real implementation, including
// keep-alive reuse across requests and the management endpoints.
func TestEdgeHTTPInterop(t *testing.T) {
	addr, _, stop := newEdgeRig(t, smallPool())
	defer stop()
	client := &http.Client{Timeout: 5 * time.Second}
	base := "http://" + addr

	for i := 0; i < 3; i++ { // repeated: exercises keep-alive reuse
		resp, err := client.Post(base+"/invoke/echo", "application/octet-stream",
			strings.NewReader("hello edge"))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 || string(body) != "hello edge" {
			t.Fatalf("echo %d: status=%d body=%q", i, resp.StatusCode, body)
		}
	}

	// Unknown function: 404, connection stays usable.
	resp, err := client.Post(base+"/invoke/nosuch", "text/plain", strings.NewReader("x"))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown function: status=%d want 404", resp.StatusCode)
	}

	// Function error: 500 with the message.
	resp, err = client.Post(base+"/invoke/fail", "text/plain", strings.NewReader("x"))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError || !strings.Contains(string(body), "intentional") {
		t.Fatalf("fail: status=%d body=%q", resp.StatusCode, body)
	}

	// Cold-path management endpoints through the same port.
	for _, path := range []string{"/healthz", "/readyz", "/metrics"} {
		resp, err := client.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("GET %s: status=%d body=%q", path, resp.StatusCode, b)
		}
	}
	resp, err = client.Get(base + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || !strings.Contains(string(b), `"num_cpu"`) {
		t.Fatalf("GET /statsz: status=%d, want 200 with num_cpu: %q", resp.StatusCode, b)
	}
}

// TestEdgeOversizedBody asserts the 413 path refuses by Content-Length
// alone: the declared-oversized body is never read off the wire (satellite
// requirement — no buffering of oversized payloads). The client writes
// headers declaring 10 MiB, sends nothing, and still gets the 413.
func TestEdgeOversizedBody(t *testing.T) {
	addr, _, stop := newEdgeRig(t, smallPool())
	defer stop()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	fmt.Fprintf(c, "POST /invoke/echo HTTP/1.1\r\nHost: x\r\nContent-Length: %d\r\n\r\n", 10<<20)
	// No body bytes follow — a response can only arrive if the edge
	// answered without waiting for the payload.
	c.SetReadDeadline(time.Now().Add(3 * time.Second))
	br := bufio.NewReader(c)
	line, err := br.ReadString('\n')
	if err != nil {
		t.Fatalf("reading 413 status line: %v", err)
	}
	if !strings.Contains(line, "413") {
		t.Fatalf("status line %q, want 413", line)
	}
	// The connection must close (the unread body would desync keep-alive).
	io.Copy(io.Discard, br)
}

// TestEdgeChunkedRejected: the fast path requires Content-Length; chunked
// uploads get 411 rather than a misparsed body.
func TestEdgeChunkedRejected(t *testing.T) {
	addr, _, stop := newEdgeRig(t, smallPool())
	defer stop()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	io.WriteString(c, "POST /invoke/echo HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n0\r\n\r\n")
	c.SetReadDeadline(time.Now().Add(3 * time.Second))
	line, err := bufio.NewReader(c).ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(line, "411") {
		t.Fatalf("status line %q, want 411", line)
	}
}

// TestEdgeExpectContinue covers the 100-continue handshake curl sends for
// larger uploads.
func TestEdgeExpectContinue(t *testing.T) {
	addr, _, stop := newEdgeRig(t, smallPool())
	defer stop()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	io.WriteString(c, "POST /invoke/echo HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\nExpect: 100-continue\r\n\r\n")
	br := bufio.NewReader(c)
	c.SetReadDeadline(time.Now().Add(3 * time.Second))
	line, err := br.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(line, "100") {
		t.Fatalf("interim status %q, want 100 Continue", line)
	}
	// Skip the blank line ending the interim response, send the body.
	br.ReadString('\n')
	io.WriteString(c, "hello")
	line, err = br.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(line, "200") {
		t.Fatalf("final status %q, want 200", line)
	}
}

// TestEdgeColdPathBodyFraming: a cold-path request carrying a body must
// not desync the connection — the body bytes have to be consumed before
// the next keep-alive request is parsed, or they would be read as a
// request line (a request-smuggling vector behind a proxy). The POST to
// /statsz 404s through the mux (no POST route), but the pipelined GET
// after it must still parse and answer cleanly.
func TestEdgeColdPathBodyFraming(t *testing.T) {
	addr, _, stop := newEdgeRig(t, smallPool())
	defer stop()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	io.WriteString(c, "POST /statsz HTTP/1.1\r\nHost: x\r\nContent-Length: 17\r\n\r\nGET /x HTTP/1.1\r\n")
	io.WriteString(c, "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
	c.SetReadDeadline(time.Now().Add(3 * time.Second))
	br := bufio.NewReader(c)
	readResponse := func() string {
		status, err := br.ReadString('\n')
		if err != nil {
			t.Fatalf("reading status line: %v", err)
		}
		cl := -1
		for {
			line, err := br.ReadString('\n')
			if err != nil {
				t.Fatalf("reading headers: %v", err)
			}
			if line == "\r\n" {
				break
			}
			if n, err := fmt.Sscanf(line, "Content-Length: %d", &cl); n == 1 && err == nil {
				continue
			}
		}
		if cl < 0 {
			t.Fatalf("response %q missing Content-Length", status)
		}
		if _, err := io.CopyN(io.Discard, br, int64(cl)); err != nil {
			t.Fatalf("reading body: %v", err)
		}
		return status
	}
	first := readResponse()
	second := readResponse()
	if !strings.Contains(second, "200") {
		t.Fatalf("pipelined GET after cold POST: first=%q second=%q (body bytes leaked into framing)", first, second)
	}
}

// TestEdgeExpectContinueRejected: a 100-continue client that hits a
// rejection path (unknown function here) has not sent its body — the edge
// must answer the final status immediately instead of blocking in Discard
// waiting for bytes the client will never send, and then close (the
// declared-but-unsent body would otherwise desync keep-alive).
func TestEdgeExpectContinueRejected(t *testing.T) {
	addr, _, stop := newEdgeRig(t, smallPool())
	defer stop()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	io.WriteString(c, "POST /invoke/nosuch HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\nExpect: 100-continue\r\n\r\n")
	// No body sent. The 404 must arrive well before any expect-timeout; the
	// read deadline is the stall detector.
	c.SetReadDeadline(time.Now().Add(2 * time.Second))
	br := bufio.NewReader(c)
	line, err := br.ReadString('\n')
	if err != nil {
		t.Fatalf("edge stalled waiting for an unsent 100-continue body: %v", err)
	}
	if !strings.Contains(line, "404") {
		t.Fatalf("status line %q, want 404", line)
	}
	// The connection must close after the final status.
	if _, err := io.Copy(io.Discard, br); err != nil {
		t.Fatalf("draining to EOF: %v", err)
	}
}

// TestEdgeContentLengthOverflow: a Content-Length long enough to wrap
// int64 back to a small positive value must be rejected as malformed, not
// used for framing.
func TestEdgeContentLengthOverflow(t *testing.T) {
	addr, _, stop := newEdgeRig(t, smallPool())
	defer stop()
	for _, cl := range []string{
		"92233720368547758080",  // 10*MaxInt64: wraps positive
		"184467440737095516165", // 2^64+5: aliases to 5
	} {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(c, "POST /invoke/echo HTTP/1.1\r\nHost: x\r\nContent-Length: %s\r\n\r\n", cl)
		c.SetReadDeadline(time.Now().Add(3 * time.Second))
		all, err := io.ReadAll(c) // refusal closes the conn: read to EOF
		if err != nil {
			t.Fatalf("cl=%s: %v", cl, err)
		}
		if !strings.HasPrefix(string(all), "HTTP/1.1 400") {
			t.Fatalf("cl=%s: response %q, want 400", cl, all)
		}
		// Exactly one response: the old readHead returned nil after the
		// 400 write and stacked a second response on the same request.
		if n := strings.Count(string(all), "HTTP/1.1 "); n != 1 {
			t.Fatalf("cl=%s: %d responses on one request: %q", cl, n, all)
		}
		c.Close()
	}
}

// TestEdgeColdConnectionClose: Connection: close on a cold-path request
// must actually close the connection after the response.
func TestEdgeColdConnectionClose(t *testing.T) {
	addr, _, stop := newEdgeRig(t, smallPool())
	defer stop()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	io.WriteString(c, "GET /healthz HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n")
	c.SetReadDeadline(time.Now().Add(3 * time.Second))
	b, err := io.ReadAll(c) // must reach EOF, not hang until deadline
	if err != nil {
		t.Fatalf("connection not closed after Connection: close: %v", err)
	}
	if !strings.Contains(string(b), "200") {
		t.Fatalf("response %q, want 200", b)
	}
}

// edgeAllocsPerOp measures whole-process allocations per request
// (runtime.MemStats.Mallocs deltas) around a batch of raw-TCP keep-alive
// requests built by req and sent over conns connections in parallel —
// covering the edge parse, the invoke pipeline, admission, breaker, pool
// submit, executor dispatch, ArgBuf transfer and response write, not just
// a handler in isolation. Each connection numbers its requests from 1;
// req must be safe for concurrent use when conns > 1.
func edgeAllocsPerOp(t *testing.T, addr string, conns int, req func(i int) []byte) float64 {
	t.Helper()
	const warm, N = 1000, 2000
	// Collect before the warm-up, not after it: a collection empties
	// runtime caches (the central sudog cache a blocking select draws on,
	// sync.Pool primaries) that the warm-up then refills on every P, so
	// the measured batch starts in steady state.
	runtime.GC()
	start := make(chan struct{})
	ready, done := make(chan error, conns), make(chan error, conns)
	for k := 0; k < conns; k++ {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		// The client goroutines exist before the first MemStats read, so
		// starting them is not counted.
		go func() {
			rbuf := make([]byte, 4096)
			i := 0
			roundtrips := func(n int) error {
				for ; n > 0; n-- {
					i++
					if _, err := c.Write(req(i)); err != nil {
						return err
					}
					// The whole response fits one read on loopback; parse-free drain.
					if m, err := c.Read(rbuf); err != nil || !strings.HasPrefix(string(rbuf[:12]), "HTTP/1.1 200") {
						return fmt.Errorf("response %q: %v", rbuf[:m], err)
					}
				}
				return nil
			}
			// Warm up: connection state, pooled buffers, runner goroutines,
			// map internals all reach steady state. At -cpu 8, filling every
			// P's sudog cache takes about 1000 round trips a connection.
			ready <- roundtrips(warm)
			<-start
			done <- roundtrips(N / conns)
		}()
	}
	for k := 0; k < conns; k++ {
		if err := <-ready; err != nil {
			close(start)
			t.Fatal(err)
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	close(start)
	for k := 0; k < conns; k++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / N
}

// TestEdgeInvokeAllocs is the edge's headline invariant: the socket ->
// function -> response path allocates nothing per request in steady state,
// with 8 keep-alive connections served concurrently.
func TestEdgeInvokeAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement in -short")
	}
	if race {
		t.Skip("race instrumentation allocates")
	}
	addr, _, stop := newEdgeRig(t, smallPool())
	defer stop()
	req := []byte("POST /invoke/echo HTTP/1.1\r\nHost: x\r\nContent-Length: 11\r\n\r\nhello world")
	perOp := edgeAllocsPerOp(t, addr, 8, func(int) []byte { return req })

	// Tolerance absorbs runtime background noise (timer wheels, GC
	// bookkeeping, netpoll) — the invariant is "no per-request allocation",
	// i.e. the amortized count must be far below 1.
	const tolerance = 0.05
	t.Logf("edge invoke: %.4f allocs/op", perOp)
	if perOp > tolerance {
		t.Fatalf("edge invoke path allocates: %.4f allocs/op (want <= %.2f)", perOp, tolerance)
	}
}

// TestEdgeKeyedAllocs: a keyed request — a fresh idempotency key each
// time, as the dispatcher stamps them, through a cache small enough to
// evict every request — stays on the allocation-free fast path.
func TestEdgeKeyedAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement in -short")
	}
	if race {
		t.Skip("race instrumentation allocates")
	}
	_, addr, calls, g, stop := newDedupRig(t)
	defer stop()
	var buf []byte
	perOp := edgeAllocsPerOp(t, addr, 1, func(i int) []byte {
		buf = append(buf[:0], "POST /invoke/echo HTTP/1.1\r\nHost: x\r\n"+IdempotencyKeyHeader+": key-"...)
		buf = strconv.AppendInt(buf, int64(i), 10)
		buf = append(buf, "\r\nContent-Length: 2\r\n\r\nhi"...)
		return buf
	})
	t.Logf("edge keyed invoke: %.4f allocs/op", perOp)
	if n := calls.Load(); n != 3000 || g.Dedup.Hits() != 0 {
		t.Fatalf("executions=%d hits=%d, want 3000 fresh executions", n, g.Dedup.Hits())
	}
	// Keys of up to 32 bytes (the dispatcher's are 30 at most) are copied
	// into recycled cache entries: no allocation at all, same tolerance as
	// the keyless path. A longer key would cost one, its string.
	if perOp > 0.05 {
		t.Fatalf("keyed edge path allocates: %.4f allocs/op (want <= 0.05)", perOp)
	}
}

// TestEdgeShutdownDrains: Shutdown must finish in-flight work and then
// refuse the connection.
func TestEdgeShutdownDrains(t *testing.T) {
	pc := smallPool()
	addr, _, stop := newEdgeRig(t, pc)
	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Post("http://"+addr+"/invoke/echo", "text/plain", strings.NewReader("x"))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	stop()
	if _, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
		t.Fatal("listener still accepting after Shutdown")
	}
}

// TestEdgeServeAfterShutdown: a Serve that starts after Shutdown must close
// its listener and return at once, not block in Accept with nobody left to
// close it.
func TestEdgeServeAfterShutdown(t *testing.T) {
	e := NewEdge(&Gateway{})
	if err := e.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- e.Serve(ln) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Serve after Shutdown = %v, want nil", err)
		}
	case <-time.After(2 * time.Second):
		ln.Close() // unblock the stuck Accept so the goroutine ends
		t.Fatal("Serve after Shutdown blocked in Accept")
	}
	if _, err := net.DialTimeout("tcp", ln.Addr().String(), time.Second); err == nil {
		t.Fatal("listener still accepting after Serve returned")
	}
}
