package cluster

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"jord/internal/server/gateway"
)

// stubWorker is a scriptable fake jordd: an httptest server whose
// /invoke handler the test controls, with a ready /readyz.
func stubWorker(t *testing.T, invoke http.HandlerFunc) (addr string) {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, `{"ready":true,"executors":2,"admit_max":32}`)
	})
	mux.HandleFunc("/invoke/", invoke)
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return strings.TrimPrefix(srv.URL, "http://")
}

// newTestDispatcher builds a dispatcher with active polling disabled so
// unit tests control health state deterministically.
func newTestDispatcher(t *testing.T, cfg Config) (*Dispatcher, *httptest.Server) {
	t.Helper()
	if cfg.HealthInterval == 0 {
		cfg.HealthInterval = -1
	}
	d := New(cfg)
	front := httptest.NewServer(d.Handler())
	t.Cleanup(front.Close)
	return d, front
}

func postInvoke(t *testing.T, front, fn, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(front+"/invoke/"+fn, "text/plain", strings.NewReader(body))
	if err != nil {
		t.Fatalf("invoke: %v", err)
	}
	return resp
}

// TestJBSQBoundEnforced: with k=1 and the single worker's slot occupied
// by a blocked request, the next request must get the dispatcher's own
// 429 with a Retry-After hint — not queue behind it.
func TestJBSQBoundEnforced(t *testing.T) {
	release := make(chan struct{})
	entered := make(chan struct{}, 8)
	addr := stubWorker(t, func(w http.ResponseWriter, _ *http.Request) {
		entered <- struct{}{}
		<-release
		io.WriteString(w, "done")
	})
	_, front := newTestDispatcher(t, Config{Workers: []string{addr}, Bound: 1})

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp := postInvoke(t, front.URL, "echo", "first")
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("blocked request finished %d, want 200", resp.StatusCode)
		}
	}()
	<-entered // the slot is now held

	resp := postInvoke(t, front.URL, "echo", "second")
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-bound request got %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("dispatcher 429 missing Retry-After")
	}
	close(release)
	wg.Wait()
}

// TestShedPassthrough: worker 429/503s that are NOT drain-marked are an
// overload verdict and must reach the client verbatim — status,
// Retry-After, and body.
func TestShedPassthrough(t *testing.T) {
	for _, status := range []int{http.StatusTooManyRequests, http.StatusServiceUnavailable} {
		addr := stubWorker(t, func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Retry-After", "7")
			w.WriteHeader(status)
			io.WriteString(w, "worker overloaded\n")
		})
		d, front := newTestDispatcher(t, Config{Workers: []string{addr}})

		resp := postInvoke(t, front.URL, "echo", "x")
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != status {
			t.Fatalf("passthrough status %d, want %d", resp.StatusCode, status)
		}
		if got := resp.Header.Get("Retry-After"); got != "7" {
			t.Fatalf("Retry-After %q, want the worker's \"7\"", got)
		}
		if string(body) != "worker overloaded\n" {
			t.Fatalf("body %q not relayed verbatim", body)
		}
		if n := d.passthrough.Load(); n != 1 {
			t.Fatalf("passthrough counter = %d, want 1", n)
		}
	}
}

// TestDrainMarked503Replaced: a 503 carrying X-Jord-Draining means THAT
// worker is going away; the request must be re-placed on the healthy
// worker and succeed, and the draining worker must be ejected.
func TestDrainMarked503Replaced(t *testing.T) {
	draining := stubWorker(t, func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set(gateway.DrainingHeader, "1")
		w.Header().Set("Retry-After", "5")
		w.WriteHeader(http.StatusServiceUnavailable)
	})
	healthy := stubWorker(t, func(w http.ResponseWriter, r *http.Request) {
		b, _ := io.ReadAll(r.Body)
		w.Write(b)
	})
	d, front := newTestDispatcher(t, Config{Workers: []string{draining, healthy}})

	// JBSQ may pick either worker first; run requests until the draining
	// one is hit.
	for i := 0; d.drainRetries.Load() == 0; i++ {
		if i == 64 {
			t.Fatal("no request was placed on the draining worker")
		}
		resp := postInvoke(t, front.URL, "echo", "payload")
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: %d, want 200 after re-placement", i, resp.StatusCode)
		}
		if string(body) != "payload" {
			t.Fatalf("request %d: body %q", i, body)
		}
	}
	if d.find(draining) == nil || !d.find(draining).ejected.Load() {
		t.Fatal("drain-marked worker not ejected")
	}
}

// TestDrainMarked503FallsThroughWhenAlone: with no other worker to take
// the request, the drain 503 (marker and all) must reach the client
// rather than spin.
func TestDrainMarked503FallsThroughWhenAlone(t *testing.T) {
	draining := stubWorker(t, func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set(gateway.DrainingHeader, "1")
		w.Header().Set("Retry-After", "5")
		w.WriteHeader(http.StatusServiceUnavailable)
	})
	_, front := newTestDispatcher(t, Config{Workers: []string{draining}})

	resp := postInvoke(t, front.URL, "echo", "x")
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("got %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get(gateway.DrainingHeader) == "" {
		t.Fatal("drain marker stripped from the fallthrough 503")
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("Retry-After stripped from the fallthrough 503")
	}
}

// TestTransportErrorReplaced: a dead worker (connection refused) must be
// ejected passively and the buffered body re-sent to a live one.
func TestTransportErrorReplaced(t *testing.T) {
	// A closed httptest server leaves a refused port behind.
	dead := httptest.NewServer(http.NotFoundHandler())
	deadAddr := strings.TrimPrefix(dead.URL, "http://")
	dead.Close()
	var served int
	var mu sync.Mutex
	healthy := stubWorker(t, func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		served++
		mu.Unlock()
		b, _ := io.ReadAll(r.Body)
		w.Write(b)
	})
	d, front := newTestDispatcher(t, Config{Workers: []string{deadAddr, healthy}})

	// JBSQ may pick either worker first; run requests until one has been
	// placed on the dead worker.
	n := 0
	for ; n < 8 || !d.find(deadAddr).ejected.Load(); n++ {
		if n == 64 {
			t.Fatal("no request was placed on the dead worker")
		}
		resp := postInvoke(t, front.URL, "echo", "re-sent body")
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || string(body) != "re-sent body" {
			t.Fatalf("request %d: %d %q", n, resp.StatusCode, body)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if served != n {
		t.Fatalf("healthy worker served %d, want all %d", served, n)
	}
}

// TestNoReadyWorkers: every worker ejected → the dispatcher's own 503
// with Retry-After.
func TestNoReadyWorkers(t *testing.T) {
	addr := stubWorker(t, func(w http.ResponseWriter, _ *http.Request) {
		io.WriteString(w, "never reached")
	})
	d, front := newTestDispatcher(t, Config{Workers: []string{addr}})
	d.find(addr).ejected.Store(true)

	resp := postInvoke(t, front.URL, "echo", "x")
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("got %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 missing Retry-After")
	}

	// /readyz must agree.
	rz, err := http.Get(front.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	defer rz.Body.Close()
	if rz.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/readyz %d, want 503 with no ready workers", rz.StatusCode)
	}
	var doc Readyz
	if err := json.NewDecoder(rz.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if doc.Ready || doc.ReadyWorkers != 0 || doc.Workers != 1 {
		t.Fatalf("readyz doc %+v", doc)
	}
}

// TestJBSQPlacesOnShortestQueue: with one worker's queue held deep and
// another idle, new work must land on the idle one.
func TestJBSQPlacesOnShortestQueue(t *testing.T) {
	release := make(chan struct{})
	entered := make(chan struct{}, 16)
	busy := stubWorker(t, func(w http.ResponseWriter, _ *http.Request) {
		entered <- struct{}{}
		<-release
		io.WriteString(w, "slow")
	})
	idle := stubWorker(t, func(w http.ResponseWriter, _ *http.Request) {
		io.WriteString(w, "fast")
	})
	// Only busy is in the set while the blocked request is placed, so it
	// lands there; idle joins once busy's queue holds it.
	d, front := newTestDispatcher(t, Config{Workers: []string{busy}, Bound: 8})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp := postInvoke(t, front.URL, "echo", "block")
		resp.Body.Close()
	}()
	<-entered
	if err := d.AddWorker(idle); err != nil {
		t.Fatal(err)
	}

	iw := d.find(idle)
	for i := 0; i < 6; i++ {
		before := iw.dispatched.Load()
		resp := postInvoke(t, front.URL, "echo", "quick")
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		// The busy queue is strictly deeper: JBSQ must have picked idle,
		// and the response proves it.
		if string(body) != "fast" {
			t.Fatalf("request %d answered %q; placed on the deeper queue", i, body)
		}
		if iw.dispatched.Load() != before+1 {
			t.Fatalf("request %d not dispatched to the idle worker", i)
		}
	}
	close(release)
	wg.Wait()
}

// TestJBSQSpreadsTies: with one request in flight at a time every queue
// is empty, so every placement is a tie; the ties must spread across the
// workers instead of piling onto one.
func TestJBSQSpreadsTies(t *testing.T) {
	a := stubWorker(t, func(w http.ResponseWriter, _ *http.Request) { io.WriteString(w, "a") })
	b := stubWorker(t, func(w http.ResponseWriter, _ *http.Request) { io.WriteString(w, "b") })
	d, front := newTestDispatcher(t, Config{Workers: []string{a, b}})

	const n = 200
	for i := 0; i < n; i++ {
		resp := postInvoke(t, front.URL, "echo", "x")
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: %d", i, resp.StatusCode)
		}
	}
	for _, addr := range []string{a, b} {
		if got := d.find(addr).dispatched.Load(); got < n/4 {
			t.Errorf("worker %s got %d of %d sequential requests, want >= %d", addr, got, n, n/4)
		}
	}
}

// TestBodyTooLarge: the buffering bound answers 413 before any worker is
// touched.
func TestBodyTooLarge(t *testing.T) {
	addr := stubWorker(t, func(w http.ResponseWriter, _ *http.Request) {
		t.Error("oversized body reached a worker")
	})
	_, front := newTestDispatcher(t, Config{Workers: []string{addr}, MaxBodyBytes: 16})

	resp := postInvoke(t, front.URL, "echo", strings.Repeat("x", 64))
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("got %d, want 413", resp.StatusCode)
	}
}

// TestChunkedBody: the dispatcher buffers a chunked /invoke body under the
// cap — past one pooled buffer, so the reader grows it — and relays it
// whole; one over the cap is 413 and one cut off mid-chunk 400, neither
// reaching a worker.
func TestChunkedBody(t *testing.T) {
	const limit = 64 << 10
	addr := stubWorker(t, func(w http.ResponseWriter, r *http.Request) {
		b, _ := io.ReadAll(r.Body)
		if len(b) > limit {
			t.Errorf("a %d-byte body reached a worker", len(b))
		}
		w.Write(b)
	})
	_, front := newTestDispatcher(t, Config{Workers: []string{addr}, MaxBodyBytes: limit})
	under := strings.Repeat("x", 40<<10)
	for _, tc := range []struct {
		name, chunks string
		eof          bool // the client half-closes after the chunks: the body ends early
		status       int
		want         string
	}{
		{"under the cap", chunk(under) + "0\r\n\r\n", false, http.StatusOK, under},
		{"over the cap", chunk(strings.Repeat("y", limit+1)) + "0\r\n\r\n", false, http.StatusRequestEntityTooLarge, ""},
		{"truncated chunk", "5\r\nhel", true, http.StatusBadRequest, ""},
	} {
		status, body := postChunked(t, strings.TrimPrefix(front.URL, "http://"), tc.chunks, tc.eof)
		if status != tc.status || tc.want != "" && body != tc.want {
			t.Errorf("%s: status %d, %d body bytes; want %d, %d", tc.name, status, len(body), tc.status, len(tc.want))
		}
	}
}

// chunk frames s as one chunk of a chunked body.
func chunk(s string) string { return fmt.Sprintf("%x\r\n%s\r\n", len(s), s) }

// postChunked sends POST /invoke/echo with a chunked body over a raw
// connection and returns the response's status and body.
func postChunked(t *testing.T, addr, chunks string, eof bool) (int, string) {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetDeadline(time.Now().Add(5 * time.Second))
	go func() {
		io.WriteString(c, "POST /invoke/echo HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\nConnection: close\r\n\r\n"+chunks)
		if eof {
			c.(*net.TCPConn).CloseWrite()
		}
	}()
	resp, err := http.ReadResponse(bufio.NewReader(c), nil)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(body)
}

// TestAdminWorkflow drives the add / drain / remove surface over HTTP:
// the worker-replacement workflow with its refusal edges.
func TestAdminWorkflow(t *testing.T) {
	a := stubWorker(t, func(w http.ResponseWriter, _ *http.Request) { io.WriteString(w, "a") })
	b := stubWorker(t, func(w http.ResponseWriter, _ *http.Request) { io.WriteString(w, "b") })
	d, front := newTestDispatcher(t, Config{Workers: []string{a}})

	post := func(path string) *http.Response {
		resp, err := http.Post(front.URL+path, "", nil)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	// Duplicate add refused.
	if resp := post("/workers/add?addr=" + a); resp.StatusCode != http.StatusConflict {
		t.Fatalf("dup add: %d, want 409", resp.StatusCode)
	} else {
		resp.Body.Close()
	}
	// Fresh add admitted into the scan.
	if resp := post("/workers/add?addr=" + b); resp.StatusCode != http.StatusOK {
		t.Fatalf("add: %d", resp.StatusCode)
	} else {
		resp.Body.Close()
	}
	if got := d.Workers(); len(got) != 2 {
		t.Fatalf("workers = %v", got)
	}

	// Drain a: no new placement there.
	if resp := post("/workers/drain?addr=" + a); resp.StatusCode != http.StatusOK {
		t.Fatalf("drain: %d", resp.StatusCode)
	} else {
		resp.Body.Close()
	}
	for i := 0; i < 5; i++ {
		resp := postInvoke(t, front.URL, "echo", "x")
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if string(body) != "b" {
			t.Fatalf("request %d served by drained worker", i)
		}
	}

	// Remove with a fabricated outstanding count refuses without force.
	d.find(a).outstanding.Add(1)
	if resp := post("/workers/remove?addr=" + a); resp.StatusCode != http.StatusConflict {
		t.Fatalf("remove busy: %d, want 409", resp.StatusCode)
	} else {
		resp.Body.Close()
	}
	d.find(a).outstanding.Add(-1)
	if resp := post("/workers/remove?addr=" + a); resp.StatusCode != http.StatusOK {
		t.Fatalf("remove idle: %d", resp.StatusCode)
	} else {
		resp.Body.Close()
	}
	if got := d.Workers(); len(got) != 1 || got[0] != b {
		t.Fatalf("workers after remove = %v", got)
	}

	// Unknown workers 404.
	if resp := post("/workers/drain?addr=nope:1"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("drain unknown: %d, want 404", resp.StatusCode)
	} else {
		resp.Body.Close()
	}
}

// TestDispatcherDraining: the dispatcher's own drain answers marked 503s
// so an upstream tier can re-place around IT too.
func TestDispatcherDraining(t *testing.T) {
	addr := stubWorker(t, func(w http.ResponseWriter, _ *http.Request) { io.WriteString(w, "x") })
	d, front := newTestDispatcher(t, Config{Workers: []string{addr}})
	d.SetDraining(true)

	resp := postInvoke(t, front.URL, "echo", "x")
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("got %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get(gateway.DrainingHeader) == "" {
		t.Fatal("dispatcher drain 503 missing the marker")
	}
}

// TestHealthPollAutoBoundAndReadmission: with active polling on, an
// unready worker is ejected and then re-admitted when its /readyz
// recovers, and an unset Bound auto-sizes from the worker's document.
func TestHealthPollAutoBoundAndReadmission(t *testing.T) {
	var mu sync.Mutex
	ready := true
	mux := http.NewServeMux()
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, _ *http.Request) {
		mu.Lock()
		r := ready
		mu.Unlock()
		w.Header().Set("Content-Type", "application/json")
		if !r {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintf(w, `{"ready":false,"draining":true,"executors":3,"admit_max":48}`)
			return
		}
		fmt.Fprintf(w, `{"ready":true,"executors":3,"admit_max":48}`)
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()
	addr := strings.TrimPrefix(srv.URL, "http://")

	d := New(Config{Workers: []string{addr}, HealthInterval: 20 * time.Millisecond})
	d.Start()
	defer d.Stop()

	w := d.find(addr)
	wait := func(cond func() bool, what string) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	// First poll admits the worker and takes its admit_max as k.
	wait(func() bool { return !w.ejected.Load() && w.boundNow() == 48 }, "auto-sized bound")

	// The worker stops being ready: the health loop must eject it.
	mu.Lock()
	ready = false
	mu.Unlock()
	wait(func() bool { return w.ejected.Load() }, "ejection")

	// And re-admit it on recovery.
	mu.Lock()
	ready = true
	mu.Unlock()
	wait(func() bool { return !w.ejected.Load() }, "re-admission")
}
