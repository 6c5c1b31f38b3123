// Regression tests for the request-lifecycle holes this runtime closes:
// fire-and-forget Asyncs (orphan reaping), Wait after the deadline passed
// (cancellation cascade), Drain racing Invoke (WaitGroup ordering), queue
// sweeping of dead requests, cooperative cancellation via Ctx.Err/Done,
// and the ExecTimeout watchdog.
package pool

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"jord/internal/server/router"
)

// waitFor polls cond for up to 5s — lifecycle teardown (orphan finishes,
// watcher exits) is asynchronous with the external response.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// A body that Asyncs a child and returns without Wait must not leak the
// child: the runtime detaches it (Orphaned counter), lets it finish, and
// reclaims every PD.
func TestFireAndForgetAsyncReturn(t *testing.T) {
	release := make(chan struct{})
	p := startPool(t, Config{Executors: 2, Orchestrators: 1}, func(reg *router.Registry) {
		reg.MustRegister("child", func(ctx router.Ctx) ([]byte, error) {
			select {
			case <-release:
			case <-ctx.Done(): // orphaning cancels the child; unwind either way
			}
			return []byte("late"), nil
		})
		reg.MustRegister("parent", func(ctx router.Ctx) ([]byte, error) {
			if _, err := ctx.Async("child", nil); err != nil {
				return nil, err
			}
			return []byte("gone"), nil
		})
	})
	got, err := p.Invoke(context.Background(), "parent", nil)
	if err != nil || string(got) != "gone" {
		t.Fatalf("parent: %q %v", got, err)
	}
	// Orphan accounting happens before the parent's completion is
	// published, so the counter is already visible here.
	if n := p.Stats().Orphaned.Load(); n != 1 {
		t.Fatalf("orphaned = %d, want 1", n)
	}
	close(release)
	waitFor(t, "orphan PD reclaim", func() bool { return p.Table().LivePDs() == 0 })
}

// Same hole, uglier exit: the parent panics with the child in flight. The
// panic surfaces as the invocation error AND the child is still reaped.
func TestFireAndForgetAsyncPanic(t *testing.T) {
	p := startPool(t, Config{Executors: 2, Orchestrators: 1}, func(reg *router.Registry) {
		reg.MustRegister("child", func(ctx router.Ctx) ([]byte, error) {
			for ctx.Err() == nil {
				time.Sleep(time.Millisecond)
			}
			return nil, ctx.Err()
		})
		reg.MustRegister("parent", func(ctx router.Ctx) ([]byte, error) {
			if _, err := ctx.Async("child", nil); err != nil {
				return nil, err
			}
			panic("parent bailed")
		})
	})
	_, err := p.Invoke(context.Background(), "parent", nil)
	if err == nil || !strings.Contains(err.Error(), "parent bailed") {
		t.Fatalf("parent panic should surface: %v", err)
	}
	if n := p.Stats().Orphaned.Load(); n != 1 {
		t.Fatalf("orphaned = %d, want 1", n)
	}
	waitFor(t, "orphan PD reclaim after panic", func() bool { return p.Table().LivePDs() == 0 })
}

// Wait called after the inherited deadline passed must fail immediately
// with DeadlineExceeded and cascade cancellation to the outstanding child
// (which then unwinds cooperatively) — no PD may stay held.
func TestWaitAfterDeadline(t *testing.T) {
	p := startPool(t, Config{Executors: 2, Orchestrators: 1}, func(reg *router.Registry) {
		reg.MustRegister("leaf", func(ctx router.Ctx) ([]byte, error) {
			for ctx.Err() == nil {
				time.Sleep(time.Millisecond)
			}
			return nil, ctx.Err()
		})
		reg.MustRegister("parent", func(ctx router.Ctx) ([]byte, error) {
			ck, err := ctx.Async("leaf", nil)
			if err != nil {
				return nil, err
			}
			dl, ok := ctx.Deadline()
			if !ok {
				return nil, errors.New("no inherited deadline")
			}
			time.Sleep(time.Until(dl) + 10*time.Millisecond)
			return ctx.Wait(ck)
		})
	})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	_, err := p.Invoke(ctx, "parent", nil)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	waitFor(t, "cascade teardown", func() bool { return p.Table().LivePDs() == 0 })
	// The counters land in finish, which may trail the PD release: poll.
	st := p.Stats()
	waitFor(t, "parent expiry counted", func() bool { return st.Expired.Load() > 0 })
	waitFor(t, "leaf cancellation counted", func() bool { return st.Canceled.Load() > 0 })
}

// Drain racing a stampede of Invokes: every request either completes
// normally or is rejected with ErrDraining — never stranded in a queue
// nobody services (the Add-before-check WaitGroup ordering).
func TestConcurrentDrainInvoke(t *testing.T) {
	reg := router.New()
	reg.MustRegister("echo", func(ctx router.Ctx) ([]byte, error) { return ctx.Payload(), nil })
	p := New(Config{Executors: 4, Orchestrators: 2, ExternalQueueCap: 1024}, reg)
	p.Start()

	const n = 300
	var wg sync.WaitGroup
	errs := make(chan error, n)
	start := make(chan struct{})
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if _, err := p.Invoke(context.Background(), "echo", []byte("x")); err != nil && !errors.Is(err, ErrDraining) {
				errs <- err
			}
		}()
	}
	close(start)
	time.Sleep(500 * time.Microsecond) // let some Invokes land mid-flight
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := p.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// Requests whose deadline expires while still queued behind a wedged
// executor are reaped by the background sweeper — their inflight slots
// release without waiting for a dequeue that may never come.
func TestQueueSweepExpiry(t *testing.T) {
	release, running := make(chan struct{}), make(chan struct{})
	p := startPool(t, Config{Executors: 1, Orchestrators: 1, JBSQBound: 1, ExternalQueueCap: 64,
		SweepInterval: time.Millisecond},
		func(reg *router.Registry) {
			reg.MustRegister("block", func(ctx router.Ctx) ([]byte, error) { close(running); <-release; return nil, nil })
			reg.MustRegister("fast", func(ctx router.Ctx) ([]byte, error) { return nil, nil })
		})
	go p.Invoke(context.Background(), "block", nil) //nolint:errcheck
	<-running                                       // the blocker owns the only executor

	const n = 4
	errCh := make(chan error, n)
	for i := 0; i < n; i++ {
		go func() {
			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
			defer cancel()
			_, err := p.Invoke(ctx, "fast", nil)
			errCh <- err
		}()
	}
	for i := 0; i < n; i++ {
		if err := <-errCh; !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("queued request: %v, want DeadlineExceeded", err)
		}
	}
	// The proof the SWEEPER did it (not a dequeue): the executor never
	// freed up, yet the requests were finished out of the queues.
	// Swept counts before the reaped request's finish counts it expired.
	waitFor(t, "sweeper reap", func() bool { return p.Stats().Swept.Load() > 0 })
	waitFor(t, "expired requests counted", func() bool { return p.Stats().Expired.Load() > 0 })
	close(release)
}

// A body blocked on Ctx.Done unwinds promptly when the external caller
// abandons the request, and the pool counts the cancellation.
func TestDoneObservesAbandon(t *testing.T) {
	entered := make(chan struct{}, 1)
	p := startPool(t, Config{Executors: 2, Orchestrators: 1}, func(reg *router.Registry) {
		reg.MustRegister("waiter", func(ctx router.Ctx) ([]byte, error) {
			entered <- struct{}{}
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-time.After(5 * time.Second):
				return nil, errors.New("cancellation never observed")
			}
		})
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() { <-entered; cancel() }()
	if _, err := p.Invoke(ctx, "waiter", nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want Canceled", err)
	}
	waitFor(t, "canceled body teardown", func() bool {
		return p.Stats().Canceled.Load() >= 1 && p.Table().LivePDs() == 0
	})
}

// Ctx.Err surfaces the inherited deadline inside a still-running body.
func TestErrObservesDeadline(t *testing.T) {
	p := startPool(t, Config{Executors: 1, Orchestrators: 1}, func(reg *router.Registry) {
		reg.MustRegister("poller", func(ctx router.Ctx) ([]byte, error) {
			for i := 0; i < 5000; i++ {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
				time.Sleep(time.Millisecond)
			}
			return nil, errors.New("deadline never observed")
		})
	})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := p.Invoke(ctx, "poller", nil); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	waitFor(t, "expired body teardown", func() bool { return p.Table().LivePDs() == 0 })
}

// An invocation alive past ExecTimeout is flagged exactly once, on both
// the pool-wide and the per-function watchdog counters.
func TestWatchdogFlagsStuck(t *testing.T) {
	p := startPool(t, Config{Executors: 1, Orchestrators: 1,
		SweepInterval: time.Millisecond, ExecTimeout: 5 * time.Millisecond},
		func(reg *router.Registry) {
			reg.MustRegister("stuck", func(ctx router.Ctx) ([]byte, error) {
				time.Sleep(40 * time.Millisecond) // ignores cancellation
				return []byte("done"), nil
			})
		})
	got, err := p.Invoke(context.Background(), "stuck", nil)
	if err != nil || string(got) != "done" {
		t.Fatalf("stuck: %q %v", got, err)
	}
	if n := p.Stats().Watchdog.Load(); n != 1 {
		t.Fatalf("Stats.Watchdog = %d, want 1 (flag must fire once, not per tick)", n)
	}
	if n := p.Stats().FuncStats("stuck").Watchdog.Load(); n != 1 {
		t.Fatalf("per-function watchdog = %d, want 1", n)
	}
}
