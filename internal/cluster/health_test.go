package cluster

import (
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestStaleHealthVerdictDiscarded is the regression test for the
// poll-vs-passive-ejection race: a /readyz poll that began before the
// worker dropped a connection must not re-admit it on its stale "ready"
// answer.
func TestStaleHealthVerdictDiscarded(t *testing.T) {
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	mux := http.NewServeMux()
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, _ *http.Request) {
		select {
		case entered <- struct{}{}:
		default:
		}
		<-release
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, `{"ready":true,"executors":2,"jbsq_bound":4}`)
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	addr := strings.TrimPrefix(srv.URL, "http://")

	// Polling stays disabled (newTestDispatcher defaults HealthInterval to
	// -1); the test drives poll by hand for determinism.
	d, _ := newTestDispatcher(t, Config{Workers: []string{addr}, Bound: 4})
	wk := d.snapshot()[0]

	pollDone := make(chan struct{})
	go func() {
		d.poll(wk)
		close(pollDone)
	}()
	<-entered
	// The worker drops a connection while the poll is parked in its
	// handler: passive ejection, epoch bump.
	wk.eject(errors.New("connection reset by peer"))
	close(release)
	<-pollDone

	if !wk.ejected.Load() {
		t.Fatal("stale ready verdict re-admitted a just-ejected worker")
	}
	wk.mu.Lock()
	lastErr := wk.lastErr
	wk.mu.Unlock()
	if !strings.Contains(lastErr, "stale") {
		t.Fatalf("lastErr = %q, want the stale-verdict marker", lastErr)
	}

	// The next poll starts AFTER the ejection, so its epoch matches and
	// its ready verdict re-admits.
	d.poll(wk)
	if wk.ejected.Load() {
		t.Fatal("fresh ready verdict should re-admit the worker")
	}
}

// TestEjectVerdictAppliesDespiteEpoch: only READY verdicts are subject to
// the staleness check — an eject verdict is always safe to apply.
func TestEjectVerdictAppliesDespiteEpoch(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		io.WriteString(w, `{"ready":false,"draining":true}`)
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	addr := strings.TrimPrefix(srv.URL, "http://")

	d, _ := newTestDispatcher(t, Config{Workers: []string{addr}, Bound: 4})
	wk := d.snapshot()[0]
	// Stale epoch on purpose: bump after capturing nothing.
	wk.ejectEpoch.Add(3)
	d.poll(wk)
	if !wk.ejected.Load() {
		t.Fatal("not-ready verdict must eject regardless of epoch")
	}
}

// TestReadyzBodyBounded: a worker answering /readyz or /statsz with an
// unbounded body must be treated as broken — ejected, left out of the
// stats fan-out — not buffered wholesale.
func TestReadyzBodyBounded(t *testing.T) {
	oversized := func(head string) http.HandlerFunc {
		return func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			io.WriteString(w, head)
			pad := strings.Repeat(" ", 64<<10)
			for i := 0; i < 8; i++ { // ~512 KiB of padding, over maxWorkerDoc
				io.WriteString(w, pad)
			}
			io.WriteString(w, `}`)
		}
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/readyz", oversized(`{"ready":true`))
	mux.HandleFunc("/statsz", oversized(`{"pool_completed":5,"executors":2`))
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	addr := strings.TrimPrefix(srv.URL, "http://")

	d, _ := newTestDispatcher(t, Config{Workers: []string{addr}, Bound: 4})
	wk := d.snapshot()[0]
	d.poll(wk)
	if !wk.ejected.Load() {
		t.Fatal("oversized /readyz should eject, not re-admit")
	}
	wk.mu.Lock()
	lastErr := wk.lastErr
	wk.mu.Unlock()
	if !strings.Contains(lastErr, "decoding /readyz") {
		t.Fatalf("lastErr = %q, want a decode error", lastErr)
	}
	if doc := d.aggregateStatsz(); doc.StatszWorkers != 0 || doc.PoolCompleted != 0 {
		t.Fatalf("oversized /statsz counted: statsz_workers=%d pool_completed=%d, want 0/0",
			doc.StatszWorkers, doc.PoolCompleted)
	}
}
