package gateway

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"jord/internal/server/router"
)

// newDedupRig builds a live gateway with the idempotency cache enabled, a
// counting functions, and both serving paths.
func newDedupRig(t *testing.T, opts ...func(*Gateway)) (muxURL, edgeAddr string, calls *atomic.Int64, g *Gateway, stop func()) {
	t.Helper()
	calls = &atomic.Int64{}
	reg := router.New()
	reg.MustRegister("count", func(ctx router.Ctx) ([]byte, error) {
		n := calls.Add(1)
		return []byte(fmt.Sprintf("call-%d:%s", n, ctx.Payload())), nil
	})
	reg.MustRegister("fail", func(ctx router.Ctx) ([]byte, error) {
		calls.Add(1)
		return nil, fmt.Errorf("intentional")
	})
	reg.MustRegister("echo", func(ctx router.Ctx) ([]byte, error) { // counts without allocating
		calls.Add(1)
		return ctx.Payload(), nil
	})
	opts = append([]func(*Gateway){func(g *Gateway) { g.Dedup = NewDedupCache(64) }}, opts...)
	muxURL, edgeAddr, g, stop = newRig(t, smallPool(), reg, opts...)
	return muxURL, edgeAddr, calls, g, stop
}

// testClient bounds every test request: a request the server never
// answers fails the test instead of hanging it.
var testClient = &http.Client{Timeout: 10 * time.Second}

func keyedInvoke(t *testing.T, base, fn, key, payload string) (status int, dedup bool, body string) {
	t.Helper()
	status, hdr, body := keyedInvokeHeader(t, base, fn, key, payload)
	return status, hdr.Get(DedupHeader) == "1", body
}

func keyedInvokeHeader(t *testing.T, base, fn, key, payload string) (status int, hdr http.Header, body string) {
	t.Helper()
	req, err := http.NewRequest("POST", base+"/invoke/"+fn, strings.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	if key != "" {
		req.Header.Set(IdempotencyKeyHeader, key)
	}
	resp, err := testClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, string(b)
}

// TestDedupReplayBothPaths: the same idempotency key executes once and
// replays byte-identically — status, Content-Type and body, marked as a
// replay — whichever transport the first request and the retries take.
// Keyed requests run the edge's fast path, so the edge both records and
// replays.
func TestDedupReplayBothPaths(t *testing.T) {
	muxURL, edgeAddr, calls, _, stop := newDedupRig(t)
	defer stop()
	edgeURL := "http://" + edgeAddr

	for _, first := range []struct{ name, base, key string }{{"mux", muxURL, "k1"}, {"edge", edgeURL, "k2"}} {
		before := calls.Load()
		status, hdr, body := keyedInvokeHeader(t, first.base, "count", first.key, "hello")
		if status != 200 || hdr.Get(DedupHeader) != "" {
			t.Fatalf("%s first: status=%d dedup=%q", first.name, status, hdr.Get(DedupHeader))
		}
		for i, base := range []string{muxURL, edgeURL} {
			st, h, b := keyedInvokeHeader(t, base, "count", first.key, "hello")
			if st != 200 || h.Get(DedupHeader) != "1" || b != body || h.Get("Content-Type") != hdr.Get("Content-Type") {
				t.Fatalf("%s first, replay %d: status=%d dedup=%q ctype=%q body=%q; want 200, replayed, %q, %q",
					first.name, i, st, h.Get(DedupHeader), h.Get("Content-Type"), b, hdr.Get("Content-Type"), body)
			}
		}
		if n := calls.Load() - before; n != 1 {
			t.Fatalf("%s first: function executed %d times, want 1", first.name, n)
		}
	}

	// A function error recorded on the edge replays as the same 500.
	if st, _, b := keyedInvoke(t, edgeURL, "fail", "kf", "x"); st != 500 || !strings.Contains(b, "intentional") {
		t.Fatalf("edge fail: status=%d body=%q", st, b)
	}
	if st, dedup, _ := keyedInvoke(t, muxURL, "fail", "kf", "x"); st != 500 || !dedup {
		t.Fatalf("fail replay over mux: status=%d dedup=%v", st, dedup)
	}

	// Keyless requests still execute every time.
	n := calls.Load()
	for i := 0; i < 2; i++ {
		if status, dedup, _ := keyedInvoke(t, edgeURL, "count", "", "hello"); status != 200 || dedup {
			t.Fatalf("keyless: status=%d dedup=%v", status, dedup)
		}
	}
	if got := calls.Load() - n; got != 2 {
		t.Fatalf("keyless executed %d times, want 2", got)
	}
}

// TestDedupCachesFunctionError: a function-level failure is a completed
// execution — the 500 replays rather than re-running the function.
func TestDedupCachesFunctionError(t *testing.T) {
	muxURL, _, calls, _, stop := newDedupRig(t)
	defer stop()

	status, _, body := keyedInvoke(t, muxURL, "fail", "ek", "x")
	if status != 500 || !strings.Contains(body, "intentional") {
		t.Fatalf("first: status=%d body=%q", status, body)
	}
	status, dedup, _ := keyedInvoke(t, muxURL, "fail", "ek", "x")
	if status != 500 || !dedup {
		t.Fatalf("replay: status=%d dedup=%v", status, dedup)
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("fail executed %d times, want 1", n)
	}
}

// TestDedupSingleFlight: concurrent arrivals of one key execute the
// function once; every caller gets the same completed response.
func TestDedupSingleFlight(t *testing.T) {
	muxURL, _, calls, _, stop := newDedupRig(t)
	defer stop()

	const clients = 8
	bodies := make([]string, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			status, _, body := keyedInvoke(t, muxURL, "count", "sf", "p")
			if status != 200 {
				t.Errorf("client %d: status=%d", i, status)
			}
			bodies[i] = body
		}(i)
	}
	wg.Wait()
	if n := calls.Load(); n != 1 {
		t.Fatalf("function executed %d times, want 1", n)
	}
	for i := 1; i < clients; i++ {
		if bodies[i] != bodies[0] {
			t.Fatalf("client %d saw %q, client 0 saw %q", i, bodies[i], bodies[0])
		}
	}
}

// TestDedupAbortReRace: when the leader aborts (request not completed),
// a waiter wakes with ok=false and can claim leadership itself.
func TestDedupAbortReRace(t *testing.T) {
	c := NewDedupCache(8)
	e1, leader := c.Begin("k")
	if !leader {
		t.Fatal("first Begin should lead")
	}
	e2, leader := c.Begin("k")
	if leader {
		t.Fatal("second Begin should follow")
	}
	c.Abort(e1)
	<-e2.Done()
	if _, _, _, ok := e2.Result(); ok {
		t.Fatal("aborted entry should report ok=false")
	}
	c.Release(e2)
	if _, leader := c.Begin("k"); !leader {
		t.Fatal("post-abort Begin should lead again")
	}
	if c.Hits() != 1 {
		t.Fatalf("hits=%d want 1", c.Hits())
	}
}

// TestDedupLRUEviction: the entry-count budget evicts oldest-first, a hit
// refreshes recency, oversized bodies degrade to an abort rather than
// pinning memory, and evicted entries are recycled — but only once no
// follower holds them, so a held replay keeps its own key's body.
func TestDedupLRUEviction(t *testing.T) {
	c := NewDedupCache(4)
	commit := func(key string) *dedupEntry {
		t.Helper()
		e, leader := c.Begin(key)
		if !leader {
			t.Fatalf("%s: not leader", key)
		}
		c.Commit(e, 200, "text/plain", []byte("r-"+key))
		return e
	}
	for i := 0; i < 6; i++ {
		commit(fmt.Sprintf("k%d", i))
	}
	if c.Len() != 4 {
		t.Fatalf("len=%d want 4", c.Len())
	}
	if c.Evictions() != 2 {
		t.Fatalf("evictions=%d want 2", c.Evictions())
	}
	// k0, k1 evicted; k5 still present.
	if e, leader := c.Begin("k0"); !leader {
		t.Fatal("evicted key should lead again")
	} else {
		c.Abort(e)
	}
	e, leader := c.Begin("k5")
	if leader {
		t.Fatal("k5 should still be cached")
	}
	if status, _, body, ok := e.Result(); !ok || status != 200 || string(body) != "r-k5" {
		t.Fatalf("k5 result: ok=%v status=%d body=%q", ok, status, body)
	}
	c.Release(e)

	// k2 is the oldest; a hit makes it the newest, so k3 goes first.
	held, _ := c.Begin("k2")
	commit("k6")
	if e, leader := c.Begin("k3"); !leader {
		t.Fatal("k3 should have been evicted before the refreshed k2")
	} else {
		c.Abort(e)
	}
	// Push k2 out while it is held: its entry leaves the cache but is not
	// reused, and its body stays k2's through any number of new keys.
	for i := 7; i < 20; i++ {
		if e := commit(fmt.Sprintf("k%d", i)); e == held {
			t.Fatal("a held entry was recycled")
		}
	}
	if _, _, body, ok := held.Result(); !ok || string(body) != "r-k2" {
		t.Fatalf("held replay changed under its follower: ok=%v body=%q", ok, body)
	}
	c.Release(held)
	// Released, the entry is free: the next new key reuses it.
	if e := commit("k-reuse"); e != held {
		t.Fatal("a released, evicted entry was not recycled")
	}

	// Oversized commit: not cached, key free for re-execution.
	big, leader := c.Begin("big")
	if !leader {
		t.Fatal("big: not leader")
	}
	c.Commit(big, 200, "text/plain", make([]byte, maxDedupBody+1))
	if _, leader := c.Begin("big"); !leader {
		t.Fatal("oversized body must not be cached")
	}
}

// TestDedupByteBudget: the total-body-bytes budget evicts even when the
// entry count is within bounds, the accounting returns to exactly the
// cached bytes, and a recycled entry does not keep a body buffer beyond
// its share of the budget.
func TestDedupByteBudget(t *testing.T) {
	c := NewDedupCache(8)
	c.maxBytes = 100
	for i := 0; i < 4; i++ {
		e, _ := c.Begin(fmt.Sprintf("b%d", i))
		c.Commit(e, 200, "", make([]byte, 40))
	}
	if c.bytes > 100 {
		t.Fatalf("bytes=%d exceeds budget 100", c.bytes)
	}
	if c.Evictions() == 0 {
		t.Fatal("byte budget should have evicted")
	}
	if want := int64(40 * c.Len()); c.bytes != want {
		t.Fatalf("bytes=%d, want %d for %d cached entries", c.bytes, want, c.Len())
	}

	c = NewDedupCache(1)
	big, _ := c.Begin("big")
	c.Commit(big, 200, "", make([]byte, maxRecycledBody+1))
	e, _ := c.Begin("next") // recycles nothing yet: big is still cached
	c.Commit(e, 200, "", []byte("x"))
	if cap(big.body) > maxRecycledBody {
		t.Fatalf("evicted entry kept a %d-byte body buffer", cap(big.body))
	}
}

// TestDedupRecycleNeverCrossesKeys hammers a two-entry cache with many
// keys, each raced by a leader and several followers, so entries are
// evicted and recycled while followers still hold them: every follower
// must replay exactly its own key's response (run it under -race).
func TestDedupRecycleNeverCrossesKeys(t *testing.T) {
	c := NewDedupCache(2)
	const keys, followers = 300, 4
	var wrong atomic.Int64
	var wg sync.WaitGroup
	for k := 0; k < keys; k++ {
		key := fmt.Sprintf("key-%d", k)
		for f := 0; f <= followers; f++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					e, leader := c.Begin(key)
					if leader {
						c.Commit(e, 200, "text/plain", []byte(key))
						return
					}
					select {
					case <-e.Done():
					case <-time.After(10 * time.Second):
						t.Errorf("%s: follower never woke", key)
						return
					}
					_, _, body, ok := e.Result()
					if ok {
						// Hold across a yield: recycling under us would show here.
						runtime.Gosched()
						if string(body) != key {
							wrong.Add(1)
						}
					}
					c.Release(e)
					if ok {
						return
					}
				}
			}()
		}
	}
	wg.Wait()
	if n := wrong.Load(); n != 0 {
		t.Fatalf("%d followers read another key's response", n)
	}
}

// TestEdgeKeyedFollowerDeadline: a keyed request whose key is held by a
// stuck leader waits within its own RequestTimeout and answers 504 — the
// follower no longer waits forever.
func TestEdgeKeyedFollowerDeadline(t *testing.T) {
	const timeout = 200 * time.Millisecond
	_, edgeAddr, calls, g, stop := newDedupRig(t, func(g *Gateway) { g.RequestTimeout = timeout })
	defer stop()
	stuck, leader := g.Dedup.Begin("stuck")
	if !leader {
		t.Fatal("test should lead the key")
	}
	defer g.Dedup.Abort(stuck)

	start := time.Now()
	status, _, _ := keyedInvoke(t, "http://"+edgeAddr, "count", "stuck", "x")
	took := time.Since(start)
	if status != http.StatusGatewayTimeout {
		t.Fatalf("follower status %d, want 504", status)
	}
	if took < timeout || took > timeout+2*time.Second {
		t.Fatalf("follower answered after %v, want about %v", took, timeout)
	}
	if n := calls.Load(); n != 0 {
		t.Fatalf("follower executed the function %d times", n)
	}
}

// TestEdgeKeyedReplayExpectContinue: a replay to a client awaiting
// 100-continue is the final answer — the recorded response, marked, with
// no interim 100 — and the connection closes, since the declared body was
// never sent.
func TestEdgeKeyedReplayExpectContinue(t *testing.T) {
	_, edgeAddr, calls, _, stop := newDedupRig(t)
	defer stop()
	_, _, first := keyedInvoke(t, "http://"+edgeAddr, "count", "ec", "hello")

	c, err := net.Dial("tcp", edgeAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	fmt.Fprintf(c, "POST /invoke/count HTTP/1.1\r\nHost: x\r\n%s: ec\r\nContent-Length: 5\r\nExpect: 100-continue\r\n\r\n", IdempotencyKeyHeader)
	c.SetReadDeadline(time.Now().Add(3 * time.Second))
	all, err := io.ReadAll(c) // the connection must close after the answer
	if err != nil {
		t.Fatalf("reading to EOF: %v", err)
	}
	resp, err := http.ReadResponse(bufio.NewReader(strings.NewReader(string(all))), nil)
	if err != nil {
		t.Fatalf("response %q: %v", all, err)
	}
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != 200 || resp.Header.Get(DedupHeader) != "1" || string(body) != first {
		t.Fatalf("replay: status=%d dedup=%q body=%q, want 200 replay of %q (raw %q)",
			resp.StatusCode, resp.Header.Get(DedupHeader), body, first, all)
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("function executed %d times, want 1", n)
	}
}
