package gateway

import (
	"encoding/json"
	"io"
	"math"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"

	"jord/internal/metrics/promtest"
)

// drive posts n echo invocations through the edge.
func drive(t *testing.T, client *http.Client, base string, fn string, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		resp, err := client.Post(base+"/invoke/"+fn, "application/octet-stream",
			strings.NewReader("observability"))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
}

// TestTracezEndpoint checks the tentpole's primary export surface: after
// real traffic through the edge, /tracez serves recent spans with per-stage
// breakdowns, honors ?fn= and ?n=, and reports aggregate stage histograms.
func TestTracezEndpoint(t *testing.T) {
	addr, _, stop := newEdgeRig(t, smallPool())
	defer stop()
	client := &http.Client{Timeout: 5 * time.Second}
	base := "http://" + addr

	drive(t, client, base, "echo", 6)
	// One error too: it must land in the errors ring.
	resp, err := client.Post(base+"/invoke/fail", "text/plain", strings.NewReader("x"))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	var doc struct {
		Funcs  []string `json:"funcs"`
		Recent []struct {
			Func     string           `json:"func"`
			External bool             `json:"external"`
			Outcome  string           `json:"outcome"`
			DurNS    int64            `json:"dur_ns"`
			Stages   map[string]int64 `json:"stages"`
		} `json:"recent"`
		Errors []struct {
			Func    string `json:"func"`
			Outcome string `json:"outcome"`
		} `json:"errors"`
		Stages []struct {
			Stage string `json:"stage"`
			Count uint64 `json:"count"`
		} `json:"stages"`
		Slow []struct {
			Func string `json:"func"`
		} `json:"slow"`
	}
	getJSONDoc(t, client, base+"/tracez", &doc)

	if len(doc.Recent) != 7 {
		t.Fatalf("recent = %d spans, want 7", len(doc.Recent))
	}
	for _, v := range doc.Recent {
		if !v.External {
			t.Fatalf("edge span not marked external: %+v", v)
		}
		if v.Func != "echo" {
			continue
		}
		if v.Outcome != "ok" {
			t.Fatalf("echo outcome = %q", v.Outcome)
		}
		// The edge stamps the full Figure 4 flow on the hot path.
		for _, stage := range []string{"parse", "admit", "queue", "exec", "resp"} {
			if v.Stages[stage] <= 0 {
				t.Fatalf("echo span missing stage %q: %v", stage, v.Stages)
			}
		}
	}
	if len(doc.Errors) == 0 || doc.Errors[0].Func != "fail" {
		t.Fatalf("errors ring missed the failed invocation: %+v", doc.Errors)
	}
	execSeen := false
	for _, sh := range doc.Stages {
		if sh.Stage == "exec" && sh.Count >= 7 {
			execSeen = true
		}
	}
	if !execSeen {
		t.Fatalf("aggregate exec histogram missing or undercounted: %+v", doc.Stages)
	}
	if len(doc.Slow) == 0 {
		t.Fatal("no slowest-N retention after traffic")
	}

	// ?fn= filters, ?n= caps.
	var filtered struct {
		Recent []struct {
			Func string `json:"func"`
		} `json:"recent"`
	}
	getJSONDoc(t, client, base+"/tracez?fn=echo&n=3", &filtered)
	if len(filtered.Recent) != 3 {
		t.Fatalf("?n=3 returned %d spans", len(filtered.Recent))
	}
	for _, v := range filtered.Recent {
		if v.Func != "echo" {
			t.Fatalf("?fn=echo leaked %q", v.Func)
		}
	}
}

// TestFlightzEndpoint checks the incident plane over HTTP: idle it serves
// an empty incident list; the e2e breaker-trip capture lives in the server
// package test.
func TestFlightzEndpoint(t *testing.T) {
	addr, g, stop := newEdgeRig(t, smallPool())
	defer stop()
	client := &http.Client{Timeout: 5 * time.Second}
	base := "http://" + addr

	var incidents []struct {
		Reason string `json:"reason"`
	}
	getJSONDoc(t, client, base+"/flightz", &incidents)
	if len(incidents) != 0 {
		t.Fatalf("idle daemon has incidents: %+v", incidents)
	}

	// Trip directly through the recorder and confirm it surfaces.
	g.Pool.Trace().Trip("test", "manual")
	getJSONDoc(t, client, base+"/flightz", &incidents)
	if len(incidents) != 1 || incidents[0].Reason != "manual" {
		t.Fatalf("tripped incident not exported: %+v", incidents)
	}
}

// TestMetricsEndpoint validates /metrics with the shared text-format
// checker (TYPE before samples, label escapes, parseable values,
// cumulative histograms) and pins the worker's family names, so that a
// rename shows up here as a deliberate diff.
func TestMetricsEndpoint(t *testing.T) {
	addr, _, stop := newEdgeRig(t, smallPool())
	defer stop()
	client := &http.Client{Timeout: 5 * time.Second}
	base := "http://" + addr

	drive(t, client, base, "echo", 8)

	resp, err := client.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("/metrics status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("content type %q is not Prometheus text 0.0.4", ct)
	}
	e := promtest.Parse(t, resp.Body)

	if got, want := strings.Join(e.Families, "\n"), strings.Join(workerFamilies, "\n"); got != want {
		t.Fatalf("worker /metrics families changed:\n%s\nwant:\n%s", got, want)
	}
	if e.Types["jord_stage_duration_seconds"] != "histogram" || e.Types["jord_funcs_latency_seconds"] != "summary" {
		t.Fatalf("distribution TYPEs: stage %q latency %q",
			e.Types["jord_stage_duration_seconds"], e.Types["jord_funcs_latency_seconds"])
	}
	if v, _ := e.Value("jord_funcs_count_total", map[string]string{"name": "echo"}); v < 8 {
		t.Fatalf("echo invocations = %v, want >= 8", v)
	}
	if v, _ := e.Value("jord_funcs_latency_seconds_count", map[string]string{"name": "echo"}); v < 8 {
		t.Fatalf("echo latency count = %v, want >= 8", v)
	}
	if len(e.LabelValues("jord_stage_duration_seconds_bucket", "stage")) == 0 {
		t.Fatal("no stage histogram buckets emitted")
	}
}

// workerFamilies is every family a stateless worker's /metrics carries
// after traffic, in order.
var workerFamilies = []string{
	"jord_uptime_seconds", "jord_num_cpu", "jord_gomaxprocs", "jord_draining", "jord_degraded",
	"jord_executors", "jord_orchestrators", "jord_num_pds", "jord_pd_reserve", "jord_pd_free", "jord_live_pds",
	"jord_cgets_total", "jord_cputs_total", "jord_isolation_faults_total",
	"jord_inflight", "jord_admitted_total", "jord_rejected_total",
	"jord_pool_dispatched_total", "jord_pool_completed_total", "jord_pool_expired_total", "jord_pool_canceled_total", "jord_pool_rejected_total", "jord_pool_shed_total", "jord_pool_orphaned_total", "jord_pool_watchdog_total", "jord_pool_swept_total",
	"jord_external_queue_depth", "jord_internal_queue_depth", "jord_executor_queue_depth",
	"jord_jbsq_bound", "jord_external_queue_cap", "jord_pd_shed_margin", "jord_shed_threshold", "jord_pd_shards", "jord_exec_timeout_ms", "jord_sweep_interval_ms",
	"jord_admit_limit", "jord_admit_max", "jord_admit_adaptive", "jord_admit_increases_total", "jord_admit_decreases_total", "jord_admit_target_ms", "jord_admit_interval_ms",
	"jord_breakers_enabled", "jord_breaker_window_ms", "jord_breaker_cooldown_ms", "jord_breaker_ratio",
	"jord_state_enabled",
	"jord_funcs_count_total", "jord_funcs_errors_total", "jord_funcs_watchdog_total", "jord_funcs_breaker_trips_total", "jord_funcs_short_circuits_total", "jord_funcs_breaker",
	"jord_funcs_latency_seconds", "jord_stage_duration_seconds",
}

// TestIntervalRPS checks the windowed throughput satellite: the second
// snapshot reports the rate over the scrape interval, not the lifetime
// average.
func TestIntervalRPS(t *testing.T) {
	addr, g, stop := newEdgeRig(t, smallPool())
	defer stop()
	client := &http.Client{Timeout: 5 * time.Second}
	base := "http://" + addr

	drive(t, client, base, "echo", 4)
	s1 := g.Snapshot()
	fn1 := findFunc(t, s1.Funcs, "echo")
	// First scrape has no prior window: falls back to the lifetime average.
	if fn1.IntervalRPS != fn1.ThroughputRPS {
		t.Fatalf("first scrape interval=%v lifetime=%v, want equal", fn1.IntervalRPS, fn1.ThroughputRPS)
	}

	// A /metrics scrape between two snapshots must not move the window:
	// the second interval covers both drives.
	waitWindowOpen(t, g)
	t1 := lastSnapAt(g)
	drive(t, client, base, "echo", 5)
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	drive(t, client, base, "echo", 5)
	s2 := g.Snapshot()
	fn2 := findFunc(t, s2.Funcs, "echo")
	if fn2.Count != 14 {
		t.Fatalf("lifetime count = %d, want 14", fn2.Count)
	}
	if n := fn2.IntervalRPS * lastSnapAt(g).Sub(t1).Seconds(); math.Abs(n-10) > 1e-6 {
		t.Fatalf("second interval counted %v completions, want 10: /metrics moved the window", n)
	}

	// A quiet window must decay the interval rate to zero while the
	// lifetime average stays positive.
	waitWindowOpen(t, g)
	s3 := g.Snapshot()
	fn3 := findFunc(t, s3.Funcs, "echo")
	if fn3.IntervalRPS != 0 {
		t.Fatalf("quiet window interval rps = %v, want 0", fn3.IntervalRPS)
	}
	if fn3.ThroughputRPS <= 0 {
		t.Fatalf("lifetime rps = %v, want > 0", fn3.ThroughputRPS)
	}
}

// waitWindowOpen polls until the clock has moved past the previous
// snapshot, so the next one measures a non-empty window (a zero-length one
// falls back to the lifetime rate).
func waitWindowOpen(t *testing.T, g *Gateway) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; runtime.Gosched() {
		g.snapMu.Lock()
		open := time.Since(g.lastSnapAt) > 0
		g.snapMu.Unlock()
		if open {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("clock did not advance past the last snapshot")
		}
	}
}

func lastSnapAt(g *Gateway) time.Time {
	g.snapMu.Lock()
	defer g.snapMu.Unlock()
	return g.lastSnapAt
}

func findFunc(t *testing.T, fns []FuncStatsz, name string) FuncStatsz {
	t.Helper()
	for _, f := range fns {
		if f.Name == name {
			return f
		}
	}
	t.Fatalf("function %q missing from snapshot", name)
	return FuncStatsz{}
}

func getJSONDoc(t *testing.T, client *http.Client, url string, v any) {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("GET %s: status=%d body=%q", url, resp.StatusCode, b)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("GET %s: decode: %v", url, err)
	}
}
