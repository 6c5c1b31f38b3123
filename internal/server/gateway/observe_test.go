package gateway

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"
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

var (
	promMetricLine = regexp.MustCompile(
		`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*"(,[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*")*\})? (-?[0-9.e+-]+|\+Inf|NaN)$`)
	promNameRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*`)
)

// TestMetricsEndpoint validates /metrics as Prometheus text exposition
// format 0.0.4 with a line-level parser: HELP/TYPE pairs precede samples,
// every sample line is well-formed, histograms are cumulative and end in a
// +Inf bucket matching _count, and the load-bearing series are present.
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

	typed := map[string]string{}    // base metric name -> TYPE
	samples := map[string]float64{} // full series (name+labels) -> value
	var order []string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Fatalf("malformed TYPE line: %q", line)
			}
			typed[parts[2]] = parts[3]
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Fatalf("unknown comment line: %q", line)
		}
		if !promMetricLine.MatchString(line) {
			t.Fatalf("malformed sample line: %q", line)
		}
		name := promNameRe.FindString(line)
		bare := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(name, "_bucket"), "_sum"), "_count")
		if _, ok := typed[name]; !ok {
			if _, ok := typed[bare]; !ok {
				t.Fatalf("sample %q has no preceding TYPE", line)
			}
		}
		sp := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			t.Fatalf("unparseable value in %q: %v", line, err)
		}
		series := line[:sp]
		samples[series] = v
		order = append(order, series)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}

	for _, want := range []string{
		"jord_uptime_seconds", "jord_inflight", "jord_admitted_total",
		"jord_queue_depth", "jord_pd_free", "jord_pool_completed_total",
		"jord_function_invocations_total", "jord_function_latency_seconds",
		"jord_breaker_state", "jord_stage_duration_seconds",
	} {
		if _, ok := typed[want]; !ok {
			t.Fatalf("missing # TYPE for %s", want)
		}
	}
	if typed["jord_stage_duration_seconds"] != "histogram" {
		t.Fatalf("stage duration TYPE = %q", typed["jord_stage_duration_seconds"])
	}
	if typed["jord_function_latency_seconds"] != "summary" {
		t.Fatalf("latency TYPE = %q", typed["jord_function_latency_seconds"])
	}

	// Function counters saw the traffic.
	if v := samples[`jord_function_invocations_total{fn="echo"}`]; v < 8 {
		t.Fatalf("echo invocations = %v, want >= 8", v)
	}

	// Histogram discipline per stage label: buckets cumulative and
	// monotone in le, +Inf bucket present and equal to _count.
	stageBuckets := map[string][]string{} // stage -> bucket series in emit order
	for _, series := range order {
		if strings.HasPrefix(series, "jord_stage_duration_seconds_bucket{") {
			stage := labelValue(series, "stage")
			stageBuckets[stage] = append(stageBuckets[stage], series)
		}
	}
	if len(stageBuckets) == 0 {
		t.Fatal("no stage histogram buckets emitted")
	}
	for stage, buckets := range stageBuckets {
		var prev float64
		var les []float64
		last := buckets[len(buckets)-1]
		if labelValue(last, "le") != "+Inf" {
			t.Fatalf("stage %q: last bucket is %q, not +Inf", stage, last)
		}
		for _, b := range buckets {
			v := samples[b]
			if v < prev {
				t.Fatalf("stage %q: non-cumulative bucket %q (%v < %v)", stage, b, v, prev)
			}
			prev = v
			if le := labelValue(b, "le"); le != "+Inf" {
				f, err := strconv.ParseFloat(le, 64)
				if err != nil {
					t.Fatalf("stage %q: bad le %q", stage, le)
				}
				les = append(les, f)
			}
		}
		if !sort.Float64sAreSorted(les) {
			t.Fatalf("stage %q: le bounds not ascending: %v", stage, les)
		}
		count := samples[fmt.Sprintf(`jord_stage_duration_seconds_count{stage=%q}`, stage)]
		if samples[last] != count {
			t.Fatalf("stage %q: +Inf bucket %v != _count %v", stage, samples[last], count)
		}
	}
}

// labelValue extracts one label's value from a series string like
// name{a="x",b="y"}.
func labelValue(series, label string) string {
	i := strings.Index(series, label+`="`)
	if i < 0 {
		return ""
	}
	rest := series[i+len(label)+2:]
	j := strings.IndexByte(rest, '"')
	if j < 0 {
		return ""
	}
	return rest[:j]
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

	waitWindowOpen(t, g)
	drive(t, client, base, "echo", 10)
	s2 := g.Snapshot()
	fn2 := findFunc(t, s2.Funcs, "echo")
	if fn2.IntervalRPS <= 0 {
		t.Fatalf("second scrape interval rps = %v", fn2.IntervalRPS)
	}
	if fn2.Count != 14 {
		t.Fatalf("lifetime count = %d, want 14", fn2.Count)
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
