package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"jord/internal/metrics/promtest"
	"jord/internal/server"
	"jord/internal/server/pool"
	"jord/internal/server/router"
)

// startRealWorker boots a real jordd daemon on loopback. Unlike the
// stubs in cluster_test.go this exercises the genuine /readyz, /statsz,
// drain-marked 503s, and graceful drain of the worker gateway.
func startRealWorker(t *testing.T, register func(*server.Daemon)) (*server.Daemon, string, chan error) {
	t.Helper()
	cfg := server.DefaultConfig()
	cfg.Pool = pool.Config{Executors: 2, JBSQBound: 4}
	// Static admission: these tests assert placement behavior, not the
	// workers' AIMD policy (which has its own suite in internal/server).
	cfg.AdmitTarget = -1
	d := server.New(cfg)
	register(d)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- d.Serve(ln) }()
	return d, ln.Addr().String(), serveErr
}

func registerEcho(d *server.Daemon) {
	d.MustRegister("echo", func(ctx router.Ctx) ([]byte, error) {
		return ctx.Payload(), nil
	})
	d.MustRegister("sleep50", func(ctx router.Ctx) ([]byte, error) {
		time.Sleep(50 * time.Millisecond)
		return ctx.Payload(), nil
	})
	d.MustRegister("sleep5", func(ctx router.Ctx) ([]byte, error) {
		time.Sleep(5 * time.Millisecond)
		return ctx.Payload(), nil
	})
}

func shutdownWorker(t *testing.T, d *server.Daemon, serveErr chan error) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := d.Shutdown(ctx); err != nil {
		t.Errorf("worker shutdown: %v", err)
	}
	if err := <-serveErr; err != nil {
		t.Errorf("worker serve: %v", err)
	}
}

// startFront serves the dispatcher and waits until every worker is
// admitted.
func startFront(t *testing.T, d *Dispatcher, wantReady int) *httptest.Server {
	t.Helper()
	d.Start()
	t.Cleanup(d.Stop)
	front := httptest.NewServer(d.Handler())
	t.Cleanup(front.Close)
	waitReadyWorkers(t, front.URL, wantReady)
	return front
}

func waitReadyWorkers(t *testing.T, frontURL string, want int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(frontURL + "/readyz")
		if err == nil {
			var doc Readyz
			derr := json.NewDecoder(resp.Body).Decode(&doc)
			resp.Body.Close()
			if derr == nil && doc.ReadyWorkers == want {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("dispatcher never reached %d ready workers", want)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestE2EKillWorkerMidLoad is the issue's headline scenario: N real
// workers behind the dispatcher, one torn down gracefully mid-load, and
// ZERO lost in-flight requests — every request must come back 200 with
// the right body (drain-marked 503s re-placed, broken connections
// re-sent), never a client-visible transport error or refusal.
func TestE2EKillWorkerMidLoad(t *testing.T) {
	const workers = 3
	var (
		daemons []*server.Daemon
		addrs   []string
		serves  []chan error
	)
	for i := 0; i < workers; i++ {
		d, addr, ch := startRealWorker(t, registerEcho)
		daemons = append(daemons, d)
		addrs = append(addrs, addr)
		serves = append(serves, ch)
	}
	// Workers 1 and 2 shut down at the end; worker 0 dies mid-test.
	t.Cleanup(func() {
		for i := 1; i < workers; i++ {
			shutdownWorker(t, daemons[i], serves[i])
		}
	})

	// Health polling OFF (-1): ejection must happen purely passively, from
	// a request that crossed the drain-marked 503 or the closed socket.
	// With an active poll the dispatcher can eject the dying worker before
	// any placement touches it — a benign ordering, but it makes the
	// re-placement-trace assertion below racy. The active poll path gets
	// its own coverage in TestE2EEjectionAndReadmission.
	disp := New(Config{
		Workers:        addrs,
		HealthInterval: -1,
		RequestTimeout: 20 * time.Second,
	})
	front := startFront(t, disp, workers)

	const (
		clients = 8
		perC    = 60
	)
	client := &http.Client{
		Timeout:   25 * time.Second,
		Transport: &http.Transport{MaxIdleConns: 64, MaxIdleConnsPerHost: 64},
	}
	var (
		wg        sync.WaitGroup
		failed    atomic.Int64
		completed atomic.Int64
	)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perC; i++ {
				payload := fmt.Sprintf("c%d-r%d", c, i)
				// sleep5, not echo: 5ms bodies keep requests in flight on
				// every worker when the kill lands, so the drain window
				// is guaranteed to cross live traffic at any test speed.
				resp, err := client.Post(front.URL+"/invoke/sleep5", "text/plain", bytes.NewReader([]byte(payload)))
				if err != nil {
					t.Errorf("client %d req %d: transport error %v", c, i, err)
					failed.Add(1)
					continue
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK || string(body) != payload {
					t.Errorf("client %d req %d: lost (%d %q)", c, i, resp.StatusCode, body)
					failed.Add(1)
				}
				completed.Add(1)
			}
		}(c)
	}

	// Once the load is established — a quarter of it done, three quarters
	// still to come — take worker 0 away GRACEFULLY: its gateway flips to
	// drain-marked 503s, in-flight invocations finish, the listener
	// closes. The dispatcher must ride through on the marker (re-place)
	// and then on connection errors (eject + re-send).
	for completed.Load() < clients*perC/4 {
		time.Sleep(time.Millisecond)
	}
	shutdownWorker(t, daemons[0], serves[0])
	wg.Wait()

	if n := failed.Load(); n != 0 {
		t.Fatalf("%d of %d requests lost in-flight", n, clients*perC)
	}

	// The dead worker must end up ejected, leaving the fleet at N-1.
	waitReadyWorkers(t, front.URL, workers-1)

	// And the re-placement machinery must actually have fired. With the
	// active health poll disabled this is deterministic: the ejection
	// asserted just above can ONLY have come from a passive path, and
	// both passive paths (drain-marked 503, transport error) bump a
	// retry counter atomically with the eject.
	if disp.drainRetries.Load()+disp.errRetries.Load() == 0 {
		t.Error("worker death left no re-placement trace; kill missed the load window")
	}
}

// TestE2EEjectionAndReadmission: a real worker that starts draining is
// ejected by the health loop (visible in the dispatcher's /readyz),
// traffic flows around it, and clearing the drain re-admits it.
func TestE2EEjectionAndReadmission(t *testing.T) {
	d1, addr1, ch1 := startRealWorker(t, registerEcho)
	d2, addr2, ch2 := startRealWorker(t, registerEcho)
	t.Cleanup(func() {
		shutdownWorker(t, d1, ch1)
		shutdownWorker(t, d2, ch2)
	})

	disp := New(Config{
		Workers:        []string{addr1, addr2},
		HealthInterval: 25 * time.Millisecond,
	})
	front := startFront(t, disp, 2)

	// Worker 1 starts draining (as jordd does at the start of Shutdown):
	// its /readyz flips to 503 {draining:true} and the health loop must
	// hold it out.
	d1.Gateway().SetDraining(true)
	waitReadyWorkers(t, front.URL, 1)

	// Traffic keeps flowing — entirely via worker 2.
	before := disp.find(addr2).dispatched.Load()
	for i := 0; i < 10; i++ {
		resp, err := http.Post(front.URL+"/invoke/echo", "text/plain", bytes.NewReader([]byte("x")))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: %d with one worker ejected", i, resp.StatusCode)
		}
	}
	if got := disp.find(addr2).dispatched.Load() - before; got != 10 {
		t.Fatalf("healthy worker served %d of 10", got)
	}

	// Recovery: the worker stops draining and the health loop re-admits
	// it without operator action.
	d1.Gateway().SetDraining(false)
	waitReadyWorkers(t, front.URL, 2)
}

// TestE2ESaturationPassthrough: when every REAL worker sheds (tiny
// admission cap, slow function, deep burst), the worker 429s must reach
// the client verbatim, Retry-After included — the dispatcher adds no
// interpretation of its own.
func TestE2ESaturationPassthrough(t *testing.T) {
	cfg := server.DefaultConfig()
	cfg.Pool = pool.Config{Executors: 1, JBSQBound: 1}
	cfg.MaxInflight = 1
	cfg.AdmitTarget = -1
	d := server.New(cfg)
	registerEcho(d)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- d.Serve(ln) }()
	t.Cleanup(func() { shutdownWorker(t, d, serveErr) })

	// Dispatcher bound far above the worker's cap, so saturation hits the
	// WORKER's admission first and the verdict flows back through.
	disp := New(Config{
		Workers:        []string{ln.Addr().String()},
		Bound:          64,
		HealthInterval: 25 * time.Millisecond,
	})
	front := startFront(t, disp, 1)

	var (
		wg       sync.WaitGroup
		got429   atomic.Int64
		badHint  atomic.Int64
		badOther atomic.Int64
	)
	for c := 0; c < 16; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				resp, err := http.Post(front.URL+"/invoke/sleep50", "text/plain", bytes.NewReader([]byte("x")))
				if err != nil {
					badOther.Add(1)
					continue
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				switch resp.StatusCode {
				case http.StatusOK:
				case http.StatusTooManyRequests, http.StatusServiceUnavailable:
					got429.Add(1)
					if resp.Header.Get("Retry-After") == "" {
						badHint.Add(1)
					}
				default:
					badOther.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if got429.Load() == 0 {
		t.Fatal("burst never saturated the worker; passthrough untested")
	}
	if n := badHint.Load(); n != 0 {
		t.Fatalf("%d shed responses missing Retry-After", n)
	}
	if n := badOther.Load(); n != 0 {
		t.Fatalf("%d unexpected outcomes under saturation", n)
	}
	if disp.passthrough.Load() == 0 {
		t.Fatal("dispatcher recorded no passthrough sheds")
	}
}

// TestE2EDrainReplaceWorkflow drives the operator workflow end to end:
// drain a worker while slow requests are in flight on it, watch its
// outstanding hit zero WITHOUT any request being dropped, remove it, and
// add a replacement that then takes traffic.
func TestE2EDrainReplaceWorkflow(t *testing.T) {
	d1, addr1, ch1 := startRealWorker(t, registerEcho)
	d2, addr2, ch2 := startRealWorker(t, registerEcho)
	d3, addr3, ch3 := startRealWorker(t, registerEcho)
	t.Cleanup(func() {
		shutdownWorker(t, d1, ch1)
		shutdownWorker(t, d2, ch2)
		shutdownWorker(t, d3, ch3)
	})

	// Only workers 1 and 2 start in the set; 3 is the replacement.
	disp := New(Config{
		Workers:        []string{addr1, addr2},
		HealthInterval: 25 * time.Millisecond,
	})
	front := startFront(t, disp, 2)

	// Slow requests in flight across both workers.
	var wg sync.WaitGroup
	var lost atomic.Int64
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(front.URL+"/invoke/sleep50", "text/plain", bytes.NewReader([]byte("inflight")))
			if err != nil {
				lost.Add(1)
				return
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK || string(body) != "inflight" {
				lost.Add(1)
			}
		}()
	}

	// Drain worker 1 while those are running: placement stops, but
	// nothing is cancelled.
	if _, err := disp.DrainWorker(addr1); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if n := lost.Load(); n != 0 {
		t.Fatalf("%d in-flight requests lost across drain", n)
	}

	// Outstanding drains to zero; then removal succeeds without force.
	w1 := disp.find(addr1)
	deadline := time.Now().Add(5 * time.Second)
	for w1.outstanding.Load() > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("worker 1 still has %d outstanding after drain", w1.outstanding.Load())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := disp.RemoveWorker(addr1, false); err != nil {
		t.Fatalf("remove after drain: %v", err)
	}

	// Replacement joins and serves. Sequential probes would never reach
	// it — JBSQ ties (0 outstanding everywhere) break toward the earlier
	// worker — so drive CONCURRENT slow requests: with worker 2's queue
	// occupied, the shortest-queue scan must spill onto worker 3.
	if err := disp.AddWorker(addr3); err != nil {
		t.Fatal(err)
	}
	waitReadyWorkers(t, front.URL, 2)
	w3 := disp.find(addr3)
	deadline = time.Now().Add(10 * time.Second)
	for w3.dispatched.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("replacement worker never received traffic")
		}
		var batch sync.WaitGroup
		for c := 0; c < 8; c++ {
			batch.Add(1)
			go func() {
				defer batch.Done()
				resp, err := http.Post(front.URL+"/invoke/sleep50", "text/plain", bytes.NewReader([]byte("x")))
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}()
		}
		batch.Wait()
	}
}

// TestE2EAggregatedStats: the dispatcher's /statsz must sum real worker
// pool counters and function totals across the fleet.
func TestE2EAggregatedStats(t *testing.T) {
	d1, addr1, ch1 := startRealWorker(t, registerEcho)
	d2, addr2, ch2 := startRealWorker(t, registerEcho)
	t.Cleanup(func() {
		shutdownWorker(t, d1, ch1)
		shutdownWorker(t, d2, ch2)
	})
	disp := New(Config{
		Workers:        []string{addr1, addr2},
		HealthInterval: 25 * time.Millisecond,
	})
	front := startFront(t, disp, 2)

	const n = 40
	for i := 0; i < n; i++ {
		resp, err := http.Post(front.URL+"/invoke/echo", "text/plain", bytes.NewReader([]byte("x")))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: %d", i, resp.StatusCode)
		}
	}

	resp, err := http.Get(front.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc Statsz
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if doc.Dispatched != n {
		t.Fatalf("dispatched = %d, want %d", doc.Dispatched, n)
	}
	if doc.StatszWorkers != 2 {
		t.Fatalf("statsz_workers = %d, want 2", doc.StatszWorkers)
	}
	if doc.PoolCompleted < n || doc.Executors != 4 || doc.Orchestrators < 2 {
		t.Fatalf("fleet sums: pool_completed=%d executors=%d orchestrators=%d, want >= %d, 4, >= 2",
			doc.PoolCompleted, doc.Executors, doc.Orchestrators, n)
	}
	var echo *FuncTotals
	for i := range doc.Funcs {
		if doc.Funcs[i].Name == "echo" {
			echo = &doc.Funcs[i]
		}
	}
	if echo == nil || echo.Count < n {
		t.Fatalf("aggregated echo totals missing or short: %+v", doc.Funcs)
	}

	// /metrics renders the same document: well-formed, every family
	// pinned, the values the ones /statsz reported.
	mresp, err := http.Get(front.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	e := promtest.Parse(t, mresp.Body)
	if got, want := strings.Join(e.Families, "\n"), strings.Join(dispatcherFamilies, "\n"); got != want {
		t.Fatalf("dispatcher /metrics families changed:\n%s\nwant:\n%s", got, want)
	}
	for name, want := range map[string]float64{
		"jord_dispatcher_draining":         0,
		"jord_dispatcher_workers":          2,
		"jord_dispatcher_ready_workers":    2,
		"jord_dispatcher_dispatched_total": n,
		"jord_dispatcher_statsz_workers":   2,
		"jord_dispatcher_executors":        4,
	} {
		if v, ok := e.Value(name, map[string]string{}); !ok || v != want {
			t.Errorf("%s = %v (present %v), want %v", name, v, ok, want)
		}
	}
	if v, _ := e.Value("jord_dispatcher_funcs_count_total", map[string]string{"name": "echo"}); v < n {
		t.Errorf("fleet echo count = %v, want >= %d", v, n)
	}
	var placed float64
	for _, addr := range []string{addr1, addr2} {
		v, ok := e.Value("jord_dispatcher_worker_state_dispatched_total", map[string]string{"addr": addr})
		if !ok {
			t.Errorf("no dispatched series for worker %s", addr)
		}
		placed += v
	}
	if placed != n {
		t.Errorf("per-worker dispatched sums to %v, want %d", placed, n)
	}
}

// dispatcherFamilies is every family the dispatcher's /metrics carries, in
// order.
var dispatcherFamilies = []string{
	"jord_dispatcher_ready", "jord_dispatcher_draining", "jord_dispatcher_workers", "jord_dispatcher_ready_workers",
	"jord_dispatcher_worker_state_admittable", "jord_dispatcher_worker_state_ejected", "jord_dispatcher_worker_state_draining", "jord_dispatcher_worker_state_outstanding", "jord_dispatcher_worker_state_bound",
	"jord_dispatcher_worker_state_dispatched_total", "jord_dispatcher_worker_state_last_poll_age_ms", "jord_dispatcher_worker_state_worker_ready", "jord_dispatcher_worker_state_worker_degraded", "jord_dispatcher_worker_state_executors",
	"jord_dispatcher_uptime_seconds", "jord_dispatcher_num_cpu", "jord_dispatcher_gomaxprocs", "jord_dispatcher_jbsq_worker_bound",
	"jord_dispatcher_dispatched_total", "jord_dispatcher_rejected_saturated_total", "jord_dispatcher_rejected_no_workers_total", "jord_dispatcher_transport_retries_total", "jord_dispatcher_drain_retries_total", "jord_dispatcher_exhausted_total", "jord_dispatcher_passthrough_sheds_total", "jord_dispatcher_outstanding",
	"jord_dispatcher_unsafe_retries_total", "jord_dispatcher_unsafe_bad_gateway_total", "jord_dispatcher_hedges_issued_total", "jord_dispatcher_hedges_won_total", "jord_dispatcher_hedges_wasted_total", "jord_dispatcher_dedup_hits_total", "jord_dispatcher_relay_errors_worker_total", "jord_dispatcher_relay_errors_client_total", "jord_dispatcher_relay_redials_total",
	"jord_dispatcher_statsz_workers",
	"jord_dispatcher_executors", "jord_dispatcher_orchestrators", "jord_dispatcher_num_pds", "jord_dispatcher_pd_reserve", "jord_dispatcher_pd_free", "jord_dispatcher_live_pds", "jord_dispatcher_cgets_total", "jord_dispatcher_cputs_total", "jord_dispatcher_isolation_faults_total",
	"jord_dispatcher_inflight", "jord_dispatcher_admitted_total", "jord_dispatcher_rejected_total",
	"jord_dispatcher_pool_dispatched_total", "jord_dispatcher_pool_completed_total", "jord_dispatcher_pool_expired_total", "jord_dispatcher_pool_canceled_total", "jord_dispatcher_pool_rejected_total", "jord_dispatcher_pool_shed_total", "jord_dispatcher_pool_orphaned_total", "jord_dispatcher_pool_watchdog_total", "jord_dispatcher_pool_swept_total",
	"jord_dispatcher_external_queue_depth", "jord_dispatcher_internal_queue_depth", "jord_dispatcher_executor_queue_depth",
	"jord_dispatcher_funcs_count_total", "jord_dispatcher_funcs_errors_total", "jord_dispatcher_funcs_watchdog_total", "jord_dispatcher_funcs_breaker_trips_total", "jord_dispatcher_funcs_short_circuits_total",
}

// TestMetricsLabelEscaping: a function name may hold any byte, and both
// tiers' /metrics must carry it back out with the format's own three
// escapes (\\, \", \n) — not Go's %q, and not escaped twice. A tab has
// no escape in the format; it goes through raw.
func TestMetricsLabelEscaping(t *testing.T) {
	names := []string{`a"b`, `a\b`, "a\nb", "a\tb"}
	d, addr, ch := startRealWorker(t, func(d *server.Daemon) {
		for _, name := range names {
			d.MustRegister(name, func(ctx router.Ctx) ([]byte, error) { return nil, nil })
		}
	})
	t.Cleanup(func() { shutdownWorker(t, d, ch) })
	front := startFront(t, New(Config{Workers: []string{addr}, HealthInterval: 25 * time.Millisecond}), 1)

	for _, tier := range []struct{ url, family string }{
		{"http://" + addr + "/metrics", "jord_funcs_count_total"},
		{front.URL + "/metrics", "jord_dispatcher_funcs_count_total"},
	} {
		resp, err := http.Get(tier.url)
		if err != nil {
			t.Fatal(err)
		}
		got := promtest.Parse(t, resp.Body).LabelValues(tier.family, "name")
		resp.Body.Close()
		sort.Strings(got)
		want := append([]string(nil), names...)
		sort.Strings(want)
		if strings.Join(got, "|") != strings.Join(want, "|") {
			t.Errorf("%s: %s names read back %q, want %q", tier.url, tier.family, got, want)
		}
	}
}
