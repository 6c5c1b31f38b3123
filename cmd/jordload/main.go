// Command jordload drives a running jordd with open-loop Poisson traffic —
// the same arrival model the simulator's load generator uses — and reports
// client-observed latency percentiles and status counts.
//
// Open loop means arrivals are scheduled by the Poisson process alone:
// slow responses do not slow the offered load, so saturation shows up as
// latency growth and 429s rather than a silently reduced request rate.
//
// Usage:
//
//	jordload [-addr 127.0.0.1:8034] [-fn echo] [-rps 100] [-duration 10s]
//	         [-payload hello] [-mix none] [-users 64] [-abandon 0]
//	         [-retries 0] [-retry-base 20ms] [-max-p99 0] [-min-ok 0]
//	         [-trace]
//
// Each request has a 5s client timeout, and the arrival process is seeded
// with 1, so a run is reproducible.
//
// With -trace, jordload pulls the server's /tracez after the run and
// prints per-stage latency attribution (parse/admit/queue/exec/...) plus
// the slowest retained traces — pinpointing WHERE a slow p99 was spent.
//
// After the run jordload queries the server's /statsz for its core and
// executor counts and prints a per-core throughput summary: achieved ok
// rps divided by the executors the server actually has cores for.
//
// -mix social replaces the single -fn/-payload stream with the stateful
// social-network mix jordd deploys over the shared-state tier: 60%
// social.timeline reads, 25% social.post, 10% social.follow, 5%
// social.profile, over a Zipf-skewed population of -users users (hot users
// concentrate reads, so the store's global-RO promotion path lights up).
//
// -abandon cancels that fraction of requests mid-flight (after a random
// delay up to half the client timeout) — impatient clients hanging up.
// The server answers those with 499 if the gateway notices in time;
// either way its /statsz Canceled counter should account for them.
//
// Shed responses (429/503) may be retried with -retries > 0: jittered
// exponential backoff from -retry-base, never sooner than the server's
// Retry-After hint, and globally capped at 20% of requests sent, so a
// storm of sheds cannot amplify itself into more offered load (the
// retry-budget rule from SRE practice).
//
// -max-p99 and -min-ok turn the run into a pass/fail smoke check: exit 1
// if the ok-latency p99 exceeds the bound or fewer requests succeeded.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"jord/internal/cliutil"
	"jord/internal/metrics"
	"jord/internal/server/gateway"
	"jord/internal/server/trace"
)

// Fixed run parameters.
const (
	timeout     = 5 * time.Second // per-request client timeout
	seed        = 1               // arrival-process seed
	retryBudget = 0.2             // global retry cap as a fraction of requests sent
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("jordload: ")

	var (
		addr      = flag.String("addr", "127.0.0.1:8034", "jordd host:port")
		fn        = flag.String("fn", "echo", "function to invoke")
		rps       = flag.Float64("rps", 100, "offered load in requests/second (open loop)")
		duration  = flag.Duration("duration", 10*time.Second, "load duration")
		payload   = flag.String("payload", "hello", "request payload")
		mix       = cliutil.NewChoice("none", "none", "social")
		users     = cliutil.NewNonNegInt(64)
		abandon   = flag.Float64("abandon", 0, "fraction of requests canceled mid-flight [0,1]")
		retries   = flag.Int("retries", 0, "max retries per request on 429/503")
		retryBase = flag.Duration("retry-base", 20*time.Millisecond, "backoff base; attempt n waits ~base*2^n, jittered")
		tracez    = flag.Bool("trace", false, "after the run, pull the server's /tracez and print stage attribution")
		maxP99    = flag.Duration("max-p99", 0, "fail the run if ok-latency p99 exceeds this (0 = off)")
		minOK     = flag.Uint64("min-ok", 0, "fail the run if fewer requests succeed (0 = off)")
	)
	flag.Var(mix, "mix", "workload mix: none (single -fn) or social (stateful social-network mix)")
	flag.Var(users, "users", "user-population size for -mix social")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "jordload: unexpected arguments: %v\n", flag.Args())
		flag.Usage()
		os.Exit(2)
	}
	if *rps <= 0 || *duration <= 0 {
		fmt.Fprintln(os.Stderr, "jordload: -rps and -duration must be positive")
		flag.Usage()
		os.Exit(2)
	}
	if *abandon < 0 || *abandon > 1 {
		fmt.Fprintln(os.Stderr, "jordload: -abandon must be in [0,1]")
		flag.Usage()
		os.Exit(2)
	}
	if *retries < 0 {
		fmt.Fprintln(os.Stderr, "jordload: -retries must be non-negative")
		flag.Usage()
		os.Exit(2)
	}

	if mix.Value() == "social" && users.Value() < 2 {
		fmt.Fprintln(os.Stderr, "jordload: -mix social wants -users >= 2")
		flag.Usage()
		os.Exit(2)
	}

	invokeURL := func(fn string) string {
		return fmt.Sprintf("http://%s/invoke/%s", *addr, fn)
	}
	client := &http.Client{
		Timeout: timeout,
		Transport: &http.Transport{
			MaxIdleConns:        4096,
			MaxIdleConnsPerHost: 4096,
		},
	}

	var (
		hist     metrics.Histogram // client-observed latency, ns (2xx only, includes retry waits)
		mu       sync.Mutex
		statuses = make(map[int]uint64)
		netErrs  uint64
		inflight sync.WaitGroup

		// Status classes and retry accounting (atomics: fire goroutines).
		ok2xx, shed429, closed499, shed503, other atomic.Uint64
		abandoned                                 atomic.Uint64
		sent                                      atomic.Uint64
		retriesIssued                             atomic.Uint64
		retriedOK                                 atomic.Uint64 // succeeded after >= 1 retry
	)
	countClass := func(status int) {
		switch {
		case status >= 200 && status < 300:
			ok2xx.Add(1)
		case status == http.StatusTooManyRequests:
			shed429.Add(1)
		case status == 499:
			closed499.Add(1)
		case status == http.StatusServiceUnavailable:
			shed503.Add(1)
		default:
			other.Add(1)
		}
	}
	// retryAllowed enforces the global budget: total retries stay under
	// retryBudget x requests sent so far. Checked per retry, so the cap
	// tracks the live run, not a final tally.
	retryAllowed := func() bool {
		return float64(retriesIssued.Load()+1) <= retryBudget*float64(sent.Load())
	}

	// fire sends one request (with retries); abandonAfter > 0 cancels it
	// after that delay (the client walks away; the runtime finds out via
	// the closed connection / expired gateway context).
	fire := func(url, payload string, abandonAfter time.Duration) {
		defer inflight.Done()
		ctx := context.Background()
		if abandonAfter > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithCancel(ctx)
			defer cancel()
			stop := time.AfterFunc(abandonAfter, cancel)
			defer stop.Stop()
		}
		t0 := time.Now()
		for attempt := 0; ; attempt++ {
			req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, strings.NewReader(payload))
			if err != nil {
				log.Fatal(err)
			}
			req.Header.Set("Content-Type", "application/octet-stream")
			resp, err := client.Do(req)
			if err != nil {
				if errors.Is(err, context.Canceled) {
					abandoned.Add(1)
				} else {
					mu.Lock()
					netErrs++
					mu.Unlock()
				}
				return
			}
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			status := resp.StatusCode
			countClass(status)
			mu.Lock()
			statuses[status]++
			mu.Unlock()
			if status == http.StatusOK {
				hist.Record(time.Since(t0).Nanoseconds())
				if attempt > 0 {
					retriedOK.Add(1)
				}
				return
			}
			// Only shed responses are retryable — they are explicit "try
			// again later", unlike 4xx/5xx semantics.
			if status != http.StatusTooManyRequests && status != http.StatusServiceUnavailable {
				return
			}
			if attempt >= *retries || abandonAfter > 0 || !retryAllowed() {
				return
			}
			retriesIssued.Add(1)
			// Jittered exponential backoff, never sooner than the server's
			// Retry-After hint (delta-seconds or HTTP-date form), and never
			// longer than the client timeout — a bogus hint must not stall
			// this goroutine. rand's global source is goroutine-safe.
			delay := retryDelay(*retryBase, attempt, 0.5+rand.Float64(),
				resp.Header.Get("Retry-After"), time.Now(), timeout)
			select {
			case <-time.After(delay):
			case <-ctx.Done():
				abandoned.Add(1)
				return
			}
		}
	}

	rng := rand.New(rand.NewSource(seed))

	// draw picks the next request. The single-function mode always returns
	// (-fn, -payload); the social mix draws a weighted operation over a
	// Zipf-skewed user population (hot users get most of the traffic, so
	// their timelines/profiles cross the store's promotion threshold).
	draw := func() (string, string) { return *fn, *payload }
	if mix.Value() == "social" {
		draw = newSocialMix(rng, users.Value()).draw
		log.Printf("offering %.0f rps of the social mix (%d users) to %s for %v",
			*rps, users.Value(), *addr, *duration)
	} else {
		log.Printf("offering %.0f rps of %q to %s for %v", *rps, *fn, invokeURL(*fn), *duration)
	}

	start := time.Now()
	next := start
	for {
		// Exponential inter-arrival gap: Poisson arrivals at -rps.
		next = next.Add(time.Duration(rng.ExpFloat64() / *rps * float64(time.Second)))
		if next.Sub(start) > *duration {
			break
		}
		time.Sleep(time.Until(next))
		sent.Add(1)
		// The abandonment decision (and its delay) is drawn here, on the
		// arrival goroutine, so the run is reproducible.
		var abandonAfter time.Duration
		if *abandon > 0 && rng.Float64() < *abandon {
			abandonAfter = time.Duration(rng.Float64() * float64(timeout) / 2)
			if abandonAfter <= 0 {
				abandonAfter = time.Millisecond
			}
		}
		reqFn, reqPayload := draw()
		inflight.Add(1)
		go fire(invokeURL(reqFn), reqPayload, abandonAfter)
	}
	inflight.Wait()
	elapsed := time.Since(start)

	snap := hist.Snapshot()
	nSent := sent.Load()
	fmt.Printf("\nsent            %d (offered %.1f rps over %v)\n", nSent, float64(nSent)/elapsed.Seconds(), elapsed.Round(time.Millisecond))
	fmt.Printf("ok              %d (achieved %.1f rps)\n", snap.Count, float64(snap.Count)/elapsed.Seconds())
	fmt.Printf("classes         2xx %d   429 %d   499 %d   503 %d   other %d\n",
		ok2xx.Load(), shed429.Load(), closed499.Load(), shed503.Load(), other.Load())
	fmt.Printf("shed            %d (429+503 responses)\n", shed429.Load()+shed503.Load())
	if *retries > 0 {
		fmt.Printf("retries         %d issued, %d requests recovered by retry\n",
			retriesIssued.Load(), retriedOK.Load())
	}
	codes := make([]int, 0, len(statuses))
	for c := range statuses {
		codes = append(codes, c)
	}
	sort.Ints(codes)
	for _, c := range codes {
		fmt.Printf("status %d      %d\n", c, statuses[c])
	}
	if n := abandoned.Load(); n > 0 {
		fmt.Printf("abandoned       %d (canceled client-side)\n", n)
	}
	if netErrs > 0 {
		fmt.Printf("network errors  %d\n", netErrs)
	}
	if snap.Count > 0 {
		fmt.Printf("latency (ms)    p50 %.3f   p99 %.3f   p99.9 %.3f   mean %.3f   max %.3f\n",
			float64(snap.P50)/1e6, float64(snap.P99)/1e6, float64(snap.P999)/1e6,
			snap.Mean/1e6, float64(snap.Max)/1e6)
	}
	printCoreSummary(client, *addr, float64(snap.Count)/elapsed.Seconds())
	if *tracez {
		filter := *fn
		if mix.Value() != "none" {
			filter = "" // the mix spreads over many functions: show them all
		}
		printTraceSummary(client, *addr, filter)
	}

	// Smoke-check assertions for CI.
	failed := false
	if *maxP99 > 0 && snap.Count > 0 && time.Duration(snap.P99) > *maxP99 {
		log.Printf("FAIL: p99 %.3fms exceeds -max-p99 %v", float64(snap.P99)/1e6, *maxP99)
		failed = true
	}
	if *maxP99 > 0 && snap.Count == 0 {
		log.Printf("FAIL: -max-p99 set but no request succeeded")
		failed = true
	}
	if *minOK > 0 && snap.Count < *minOK {
		log.Printf("FAIL: %d ok responses, -min-ok wants >= %d", snap.Count, *minOK)
		failed = true
	}
	if failed {
		os.Exit(1)
	}
}

// printTraceSummary pulls the server's /tracez and prints where the time
// went: per-stage p50/p99/avg across every traced invocation, then the
// slowest retained traces with their stage breakdowns — the server-side
// answer to "the client saw a slow p99; which stage caused it?".
func printTraceSummary(client *http.Client, addr, fn string) {
	url := fmt.Sprintf("http://%s/tracez", addr)
	if fn != "" {
		url += "?fn=" + fn
	}
	resp, err := client.Get(url)
	if err != nil {
		log.Printf("trace summary unavailable (/tracez: %v)", err)
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		log.Printf("trace summary unavailable (/tracez: %s)", resp.Status)
		return
	}
	var doc trace.Doc
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		log.Printf("trace summary unavailable (/tracez decode: %v)", err)
		return
	}
	if len(doc.Stages) == 0 {
		fmt.Printf("\ntrace           no spans recorded\n")
		return
	}
	ms := func(ns int64) float64 { return float64(ns) / 1e6 }
	fmt.Printf("\nserver stages   %-9s %10s %12s %12s %12s\n", "stage", "count", "avg ms", "p50 ms", "p99 ms")
	for _, st := range doc.Stages {
		fmt.Printf("                %-9s %10d %12.4f %12.4f %12.4f\n",
			st.Stage, st.Count, ms(st.AvgNS), ms(st.P50NS), ms(st.P99NS))
	}
	for _, fs := range doc.Slow {
		for _, sp := range fs.Spans {
			if sp.DurNS <= 0 {
				continue
			}
			var parts []string
			for st := range trace.NumStages {
				stage := trace.Stage(st).Name()
				if d := sp.Stages[stage]; d > 0 {
					parts = append(parts, fmt.Sprintf("%s %.0f%%", stage, 100*float64(d)/float64(sp.DurNS)))
				}
			}
			if sp.OtherNS > 0 {
				parts = append(parts, fmt.Sprintf("other %.0f%%", 100*float64(sp.OtherNS)/float64(sp.DurNS)))
			}
			fmt.Printf("slowest %-8s %8.3fms %-8s %s\n", fs.Func, ms(sp.DurNS), sp.Outcome, strings.Join(parts, "  "))
		}
	}
}

// printCoreSummary asks the server (via /statsz) how many cores and
// executors it runs, then reports the achieved throughput per core. The
// denominator is min(executors, num_cpu): executors beyond the machine's
// cores add no parallelism and must not flatter the number. A
// dispatcher's /statsz carries its workers' executors summed under the
// same key, so the summary works against either tier.
func printCoreSummary(client *http.Client, addr string, okRPS float64) {
	resp, err := client.Get(fmt.Sprintf("http://%s/statsz", addr))
	if err != nil {
		log.Printf("core summary unavailable (/statsz: %v)", err)
		return
	}
	defer resp.Body.Close()
	var st gateway.Statsz
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil || st.Executors == 0 {
		log.Printf("core summary unavailable (/statsz decode: %v)", err)
		return
	}
	effCores := st.Executors
	if st.NumCPU > 0 && effCores > st.NumCPU {
		effCores = st.NumCPU
	}
	fmt.Printf("server          %d executors / %d orchestrators, %d CPUs (GOMAXPROCS %d)\n",
		st.Executors, st.Orchestrators, st.NumCPU, st.GOMAXPROCS)
	fmt.Printf("per-core        %.1f ok rps per core (%.1f ok rps over %d effective cores)\n",
		okRPS/float64(effCores), okRPS, effCores)
}
