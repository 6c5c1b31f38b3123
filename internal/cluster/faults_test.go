package cluster

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"jord/internal/cluster/chaos"
	"jord/internal/server"
	"jord/internal/server/gateway"
	"jord/internal/server/router"
)

// startFaultRig boots nWorkers real jordd daemons behind a dispatcher
// whose worker connections inject the given fault schedule. The returned counter
// counts REAL executions of the "count" function across all workers —
// the ground truth for every at-most-once assertion.
func startFaultRig(t *testing.T, nWorkers int, mut func(*Config),
	rules ...*chaos.Rule) (front *httptest.Server, d *Dispatcher, addrs []string, calls *atomic.Int64) {

	t.Helper()
	calls = &atomic.Int64{}
	for i := 0; i < nWorkers; i++ {
		daemon, addr, serveErr := startRealWorker(t, func(dm *server.Daemon) {
			registerEcho(dm)
			dm.MustRegister("count", func(ctx router.Ctx) ([]byte, error) {
				calls.Add(1)
				return ctx.Payload(), nil
			})
		})
		t.Cleanup(func() { shutdownWorker(t, daemon, serveErr) })
		addrs = append(addrs, addr)
	}
	cfg := Config{Workers: addrs, HealthInterval: -1, RequestTimeout: 10 * time.Second}
	if mut != nil {
		mut(&cfg)
	}
	if len(rules) > 0 {
		cfg.Dial = chaos.New(nil, 42, rules...).Dial
	}
	d = New(cfg)
	front = httptest.NewServer(d.Handler())
	t.Cleanup(front.Close)
	return front, d, addrs, calls
}

func invokeCount(t *testing.T, front string) (status int, dedup bool, body string) {
	t.Helper()
	resp, err := http.Post(front+"/invoke/count", "text/plain", strings.NewReader("payload-1"))
	if err != nil {
		t.Fatalf("invoke: %v", err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp.StatusCode, resp.Header.Get(gateway.DedupHeader) == "1", string(b)
}

// TestFaultRefusedReplaced: a dial-time refusal never reached the worker,
// so the retry is unconditionally safe — re-placed on the other worker,
// executed exactly once.
func TestFaultRefusedReplaced(t *testing.T) {
	front, d, _, calls := startFaultRig(t, 2, nil, &chaos.Rule{Fault: chaos.FaultRefused, Count: 1})
	status, dedup, body := invokeCount(t, front.URL)
	if status != 200 || dedup || body != "payload-1" {
		t.Fatalf("status=%d dedup=%v body=%q", status, dedup, body)
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("executed %d times, want 1", n)
	}
	if d.errRetries.Load() != 1 || d.unsafeRetries.Load() != 0 {
		t.Fatalf("errRetries=%d unsafeRetries=%d want 1/0", d.errRetries.Load(), d.unsafeRetries.Load())
	}
}

// TestFaultResetBeforeWriteReplaced: a reset while writing the request is
// still the safe class — the worker gateway's ReadFull turns the short
// body into a 400 without invoking, so re-placement cannot double-run.
func TestFaultResetBeforeWriteReplaced(t *testing.T) {
	front, d, _, calls := startFaultRig(t, 2, nil, &chaos.Rule{Fault: chaos.FaultResetBeforeWrite, Count: 1})
	status, dedup, body := invokeCount(t, front.URL)
	if status != 200 || dedup || body != "payload-1" {
		t.Fatalf("status=%d dedup=%v body=%q", status, dedup, body)
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("executed %d times, want 1", n)
	}
	if d.errRetries.Load() != 1 {
		t.Fatalf("errRetries=%d want 1", d.errRetries.Load())
	}
}

// TestFaultResetAfterWriteReplaysWithKey is the heart of the idempotent
// retry path: the worker EXECUTED, the connection died on the read side,
// and the same-worker replay serves the cached response — exactly one
// execution, byte-identical answer, marked as a replay.
func TestFaultResetAfterWriteReplaysWithKey(t *testing.T) {
	front, d, _, calls := startFaultRig(t, 1, nil, &chaos.Rule{Fault: chaos.FaultResetAfterWrite, Count: 1})
	status, dedup, body := invokeCount(t, front.URL)
	if status != 200 || body != "payload-1" {
		t.Fatalf("status=%d body=%q", status, body)
	}
	if !dedup {
		t.Fatal("retry should be served from the worker's idempotency cache")
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("executed %d times, want exactly 1", n)
	}
	if d.unsafeRetries.Load() != 1 || d.dedupHits.Load() != 1 || d.unsafe502.Load() != 0 {
		t.Fatalf("unsafeRetries=%d dedupHits=%d unsafe502=%d want 1/1/0",
			d.unsafeRetries.Load(), d.dedupHits.Load(), d.unsafe502.Load())
	}

	// The counters surface in /statsz for operators.
	resp, err := http.Get(front.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc Statsz
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if doc.UnsafeRetries != 1 || doc.DedupHits != 1 {
		t.Fatalf("statsz unsafe_retries=%d dedup_hits=%d want 1/1", doc.UnsafeRetries, doc.DedupHits)
	}
}

// TestFaultResetAfterWriteKeyless502: without idempotency keys the same
// failure is NOT retried — the worker may have executed, so the client
// gets 502 and the function must have run at most once.
func TestFaultResetAfterWriteKeyless502(t *testing.T) {
	front, d, _, calls := startFaultRig(t, 2,
		func(c *Config) { c.DisableIdempotency = true },
		&chaos.Rule{Fault: chaos.FaultResetAfterWrite, Count: 1})
	status, _, body := invokeCount(t, front.URL)
	if status != http.StatusBadGateway {
		t.Fatalf("status=%d body=%q, want 502", status, body)
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("executed %d times, want 1 (never re-run without a key)", n)
	}
	if d.unsafe502.Load() != 1 || d.unsafeRetries.Load() != 0 || d.errRetries.Load() != 0 {
		t.Fatalf("unsafe502=%d unsafeRetries=%d errRetries=%d want 1/0/0",
			d.unsafe502.Load(), d.unsafeRetries.Load(), d.errRetries.Load())
	}
}

// TestFaultResetMidBodyReplays: the response head arrived but the body
// broke off. Nothing has reached the client, so the keyed replay against
// the same worker recovers the full response without re-executing.
func TestFaultResetMidBodyReplays(t *testing.T) {
	front, d, _, calls := startFaultRig(t, 1, nil,
		&chaos.Rule{Fault: chaos.FaultResetMidBody, MidBody: 3, Count: 1})
	status, dedup, body := invokeCount(t, front.URL)
	if status != 200 || body != "payload-1" {
		t.Fatalf("status=%d body=%q", status, body)
	}
	if !dedup {
		t.Fatal("mid-body retry should replay from the idempotency cache")
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("executed %d times, want exactly 1", n)
	}
	if d.unsafeRetries.Load() != 1 {
		t.Fatalf("unsafeRetries=%d want 1", d.unsafeRetries.Load())
	}
}

// TestFaultStallHedgeRescue: the first placement black-holes; the hedge
// fires after the (cold) hedge delay, lands on the healthy worker, and
// the client is rescued long before the request timeout.
func TestFaultStallHedgeRescue(t *testing.T) {
	stall := &chaos.Rule{Fault: chaos.FaultStall, Count: 1}
	front, d, addrs, calls := startFaultRig(t, 2,
		func(c *Config) {
			c.Hedge = true
			c.HedgeDelay = 30 * time.Millisecond
		}, stall)
	// The rule can name its target only once the rig has addresses: the
	// first worker's (JBSQ ties break to it).
	stall.Worker = addrs[0]

	start := time.Now()
	status, _, body := invokeCount(t, front.URL)
	elapsed := time.Since(start)
	if status != 200 || body != "payload-1" {
		t.Fatalf("status=%d body=%q", status, body)
	}
	if elapsed >= 5*time.Second {
		t.Fatalf("hedge did not rescue: took %v", elapsed)
	}
	if d.hedgesIssued.Load() != 1 || d.hedgesWon.Load() != 1 {
		t.Fatalf("hedgesIssued=%d hedgesWon=%d want 1/1", d.hedgesIssued.Load(), d.hedgesWon.Load())
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("executed %d times, want 1 (stalled request never arrived)", n)
	}
	// The loser is canceled, not left to the 10 s request timeout: its
	// stalled write ends and the slot it held frees.
	stalled := d.find(addrs[0])
	for deadline := time.Now().Add(2 * time.Second); stalled.outstanding.Load() != 0; {
		if time.Now().After(deadline) {
			t.Fatal("hedge loser still holds its slot 2 s after losing")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestDrainMarked503Exhaustion: when EVERY worker answers a drain-marked
// 503, the re-placement loop runs out of peers and the final 503 falls
// through to the client, drain marker intact.
func TestDrainMarked503Exhaustion(t *testing.T) {
	drainHandler := func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set(gateway.DrainingHeader, "1")
		w.Header().Set("Retry-After", "1")
		http.Error(w, "worker draining", http.StatusServiceUnavailable)
	}
	addrA := stubWorker(t, drainHandler)
	addrB := stubWorker(t, drainHandler)
	d, front := newTestDispatcher(t, Config{Workers: []string{addrA, addrB}, Bound: 4})

	resp := postInvoke(t, front.URL, "echo", "x")
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status=%d want 503", resp.StatusCode)
	}
	if resp.Header.Get(gateway.DrainingHeader) == "" {
		t.Fatal("final 503 should keep the drain marker")
	}
	if d.drainRetries.Load() != 1 {
		t.Fatalf("drainRetries=%d want 1 (A re-placed once, B exhausted the set)", d.drainRetries.Load())
	}
	if d.passthrough.Load() != 1 {
		t.Fatalf("passthrough=%d want 1", d.passthrough.Load())
	}
}

// TestRemoveWorkerForceWithOutstanding: force-removal with requests still
// outstanding takes the worker out of placement immediately, while the
// in-flight request it was serving still completes.
func TestRemoveWorkerForceWithOutstanding(t *testing.T) {
	release := make(chan struct{})
	entered := make(chan struct{}, 1)
	addr := stubWorker(t, func(w http.ResponseWriter, _ *http.Request) {
		entered <- struct{}{}
		<-release
		io.WriteString(w, "late but fine")
	})
	d, front := newTestDispatcher(t, Config{Workers: []string{addr}, Bound: 4})

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp := postInvoke(t, front.URL, "echo", "x")
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != 200 || string(body) != "late but fine" {
			t.Errorf("in-flight request: status=%d body=%q", resp.StatusCode, body)
		}
	}()
	<-entered

	if err := d.RemoveWorker(addr, false); err == nil {
		t.Fatal("unforced removal should refuse while outstanding > 0")
	}
	if err := d.RemoveWorker(addr, true); err != nil {
		t.Fatalf("forced removal: %v", err)
	}
	if len(d.Workers()) != 0 {
		t.Fatalf("worker list %v, want empty", d.Workers())
	}

	// No workers left: new requests get the dispatcher's own 503.
	resp := postInvoke(t, front.URL, "echo", "y")
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-removal status=%d want 503", resp.StatusCode)
	}

	close(release)
	wg.Wait()
}
