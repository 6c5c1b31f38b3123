package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"jord/internal/server/gateway"
	"jord/internal/server/router"
)

// startDaemon boots a daemon on an ephemeral loopback port and tears it
// down (graceful drain, Serve must return cleanly) when the test ends.
func startDaemon(t *testing.T, cfg Config, register func(*Daemon)) (*Daemon, string) {
	t.Helper()
	d := New(cfg)
	register(d)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- d.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		defer cancel()
		if err := d.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		if err := <-serveErr; err != nil {
			t.Errorf("serve: %v", err)
		}
	})
	return d, "http://" + ln.Addr().String()
}

func newClient() *http.Client {
	return &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{MaxIdleConns: 512, MaxIdleConnsPerHost: 512},
	}
}

// TestEndToEndNestedChain is the live-path acceptance test: a real daemon
// on loopback, a two-function nested chain, 1000 concurrent HTTP requests
// with zero errors, and /statsz histograms that saw all of it.
func TestEndToEndNestedChain(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Pool.Executors = 4
	cfg.Pool.Orchestrators = 1
	cfg.Pool.ExternalQueueCap = 2048
	cfg.MaxInflight = 2048
	// Pin the static admission cap: on a loaded CI machine the adaptive
	// controller would legitimately 429 part of the burst, and this test is
	// about nested-call correctness, not overload policy (that contract has
	// its own suite in overload_e2e_test.go).
	cfg.AdmitTarget = -1
	d, base := startDaemon(t, cfg, func(d *Daemon) {
		d.MustRegister("leaf", func(ctx router.Ctx) ([]byte, error) {
			return bytes.ToUpper(ctx.Payload()), nil
		})
		d.MustRegister("root", func(ctx router.Ctx) ([]byte, error) {
			up, err := ctx.Call("leaf", ctx.Payload())
			if err != nil {
				return nil, err
			}
			return append(up, '!'), nil
		})
	})
	client := newClient()

	resp, err := client.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}

	const n = 1000
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			payload := fmt.Sprintf("req-%d", i)
			resp, err := client.Post(base+"/invoke/root", "application/octet-stream",
				strings.NewReader(payload))
			if err != nil {
				errs <- err
				return
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				errs <- err
				return
			}
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("request %d: status %d: %s", i, resp.StatusCode, body)
				return
			}
			want := strings.ToUpper(payload) + "!"
			if string(body) != want {
				errs <- fmt.Errorf("request %d: got %q, want %q", i, body, want)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	resp, err = client.Get(base + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	var st gateway.Statsz
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if st.PoolCompleted < 2*n { // every root carries one nested leaf
		t.Fatalf("pool_completed = %d, want >= %d", st.PoolCompleted, 2*n)
	}
	// The state store's resident PD is the only legitimate live PD once
	// the request tide has gone out; anything beyond it is a leak.
	wantPDs := 0
	if d.State() != nil {
		wantPDs = 1
	}
	if st.LivePDs != wantPDs {
		t.Fatalf("live_pds = %d after quiescence, want %d (PD leak)", st.LivePDs, wantPDs)
	}
	if st.Faults != 0 {
		t.Fatalf("isolation_faults = %d", st.Faults)
	}
	byName := map[string]gateway.FuncStatsz{}
	for _, f := range st.Funcs {
		byName[f.Name] = f
	}
	for _, name := range []string{"root", "leaf"} {
		f, ok := byName[name]
		if !ok {
			t.Fatalf("/statsz missing function %q", name)
		}
		if f.Count != n || f.Errors != 0 {
			t.Fatalf("%s: count=%d errors=%d, want count=%d errors=0", name, f.Count, f.Errors, n)
		}
		if f.P50Us <= 0 || f.P99Us < f.P50Us {
			t.Fatalf("%s: degenerate latency histogram p50=%f p99=%f", name, f.P50Us, f.P99Us)
		}
	}

	// Configuration, PD supply and credit-cache churn, on the same document.
	if st.Executors <= 0 || st.NumPDs <= 0 || st.PDReserve <= 0 || st.PDShards <= 0 {
		t.Fatalf("/statsz config not populated: %+v", st)
	}
	if st.PDFree != st.NumPDs-wantPDs {
		t.Fatalf("/statsz PD supply at quiescence: free=%d live=%d num=%d (want %d live)",
			st.PDFree, st.LivePDs, st.NumPDs, wantPDs)
	}
	// The store's own cget holds until Shutdown, hence the wantPDs skew.
	if st.Cgets < 2*n || st.Cgets != st.Cputs+uint64(wantPDs) {
		t.Fatalf("/statsz churn: cgets=%d cputs=%d, want matched and >= %d", st.Cgets, st.Cputs, 2*n)
	}
	if !st.StateEnabled || st.State == nil {
		t.Fatalf("/statsz missing state section: %+v", st)
	}
}

// TestEndToEndUnknownAndDrain covers the gateway's error surface: 404 for
// unregistered functions, and 503 from /healthz and /invoke once draining.
func TestEndToEndUnknownAndDrain(t *testing.T) {
	d, base := startDaemon(t, DefaultConfig(), func(d *Daemon) {
		d.MustRegister("echo", func(ctx router.Ctx) ([]byte, error) {
			return ctx.Payload(), nil
		})
	})
	client := newClient()

	resp, err := client.Post(base+"/invoke/ghost", "application/octet-stream", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown function: status %d", resp.StatusCode)
	}

	d.Gateway().SetDraining(true)
	defer d.Gateway().SetDraining(false) // let cleanup's Shutdown run its own flip
	for _, path := range []string{"/healthz", "/invoke/echo"} {
		req, _ := http.NewRequest(http.MethodGet, base+path, nil)
		if path == "/invoke/echo" {
			req, _ = http.NewRequest(http.MethodPost, base+path, strings.NewReader("x"))
		}
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("%s while draining: status %d", path, resp.StatusCode)
		}
	}
}
