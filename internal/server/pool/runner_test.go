package pool

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"strconv"
	"testing"
	"time"

	"jord/internal/mem/vmatable"
	"jord/internal/server/router"
)

// submitNow submits an external request synchronously: when it returns,
// the inline dispatch step has already placed the request (or left it in
// its orchestrator's external queue), so a test can inspect the queues
// without waiting.
func submitNow(t *testing.T, p *Pool, fn string) *request {
	t.Helper()
	r, err := p.submit(p.reg.Lookup(fn), nil, time.Time{}, nil)
	if err != nil {
		t.Fatalf("submit %s: %v", fn, err)
	}
	return r
}

// await is Invoke's completion half for a request from submitNow.
func await(p *Pool, r *request) ([]byte, error) {
	<-r.done
	defer p.releaseRequest(r)
	if r.err != nil {
		return nil, r.err
	}
	return r.buf.Read(vmatable.ExecutorPD)
}

// More continuations suspend at once than the runner park holds. Each
// parent that finishes re-parks its runner, so the park overflows and
// putRunner must stop the surplus coroutines: after Drain the goroutine
// count is back at its pre-New baseline.
func TestRunnerOverflowStopsCoroutines(t *testing.T) {
	const parents = 64
	baseline := runtime.NumGoroutine()
	running, release := make(chan struct{}), make(chan struct{})
	reg := router.New()
	reg.MustRegister("hold", func(ctx router.Ctx) ([]byte, error) { close(running); <-release; return nil, nil })
	reg.MustRegister("leaf", func(ctx router.Ctx) ([]byte, error) { return ctx.Payload(), nil })
	reg.MustRegister("parent", func(ctx router.Ctx) ([]byte, error) {
		return ctx.Call("leaf", []byte("x"))
	})
	// One executor and a JBSQ bound above the parent count: every parent
	// is queued before the first one starts, so each parent's child queues
	// behind all of them and all parents suspend together.
	p := New(Config{Executors: 1, Orchestrators: 1, JBSQBound: 2 * parents, SweepInterval: -1}, reg)
	p.Start()
	if c := cap(p.runners); c >= parents {
		t.Fatalf("runner park holds %d: the test needs more suspended parents than that", c)
	}

	hold := submitNow(t, p, "hold")
	<-running
	rs := make([]*request, parents)
	for i := range rs {
		rs[i] = submitNow(t, p, "parent")
	}
	if _, _, q := p.QueueDepths(); q != parents {
		t.Fatalf("executor queue %d, want every parent (%d) queued", q, parents)
	}
	close(release)
	if _, err := await(p, hold); err != nil {
		t.Fatal(err)
	}
	for i, r := range rs {
		if b, err := await(p, r); err != nil || string(b) != "x" {
			t.Fatalf("parent %d: %q %v", i, b, err)
		}
	}
	if n := p.Stats().FuncStats("parent").Count.Load(); n != parents {
		t.Fatalf("parents completed %d, want %d", n, parents)
	}
	if n, c := len(p.runners), cap(p.runners); n != c {
		t.Fatalf("runner park holds %d of %d after the burst: it never overflowed", n, c)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := p.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	// Slack of 3 over baseline, as in the chaos suite: runtime-internal
	// goroutines come and go independent of the pool.
	waitFor(t, "goroutines back at the pre-New baseline", func() bool { return runtime.NumGoroutine() <= baseline+3 })
}

// A body that panics — before or after suspending — fails with
// ErrPanicked, and its runner coroutine goes back to the park and serves
// the next invocations.
func TestRunnerSurvivesPanic(t *testing.T) {
	p := startPool(t, Config{Executors: 1, Orchestrators: 1}, func(reg *router.Registry) {
		reg.MustRegister("leaf", func(ctx router.Ctx) ([]byte, error) { return ctx.Payload(), nil })
		reg.MustRegister("boom", func(ctx router.Ctx) ([]byte, error) { panic("boom") })
		reg.MustRegister("waitboom", func(ctx router.Ctx) ([]byte, error) {
			if _, err := ctx.Call("leaf", nil); err != nil {
				return nil, err
			}
			panic("waitboom")
		})
		reg.MustRegister("chain", func(ctx router.Ctx) ([]byte, error) {
			return ctx.Call("leaf", ctx.Payload())
		})
	})
	for _, fn := range []string{"boom", "waitboom"} {
		if _, err := p.Invoke(context.Background(), fn, nil); !errors.Is(err, ErrPanicked) {
			t.Fatalf("%s: %v, want ErrPanicked", fn, err)
		}
	}
	// waitboom's parent and child needed two runners at once.
	if n := len(p.runners); n != 2 {
		t.Fatalf("%d runners parked after the panics, want 2", n)
	}
	for i := 0; i < 8; i++ {
		want := []byte(strconv.Itoa(i))
		for _, fn := range []string{"leaf", "chain"} {
			if got, err := p.Invoke(context.Background(), fn, want); err != nil || !bytes.Equal(got, want) {
				t.Fatalf("%s %d after panics: %q %v", fn, i, got, err)
			}
		}
	}
	// No new runner was made: the ones that ran the panicking bodies were
	// reused.
	if n := len(p.runners); n != 2 {
		t.Fatalf("%d runners parked, want the same 2", n)
	}
	if n := p.Table().LivePDs(); n != 0 {
		t.Fatalf("leaked %d PDs", n)
	}
}

// poolGoroutines counts live goroutines started by this package's go
// statements: executors, the sweeper and Ctx.Done watchers. Runner
// coroutines are started by iter.Pull and counted apart.
func poolGoroutines() int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	return bytes.Count(buf, []byte("created by jord/internal/server/pool."))
}

// Dispatch runs inline on the submitting goroutine, so a started pool owns
// one goroutine per executor and, when SweepInterval enables it, the
// sweeper — no dispatcher goroutine, before or after traffic. New starts
// nothing and Start makes no runner.
func TestNoDispatcherGoroutine(t *testing.T) {
	for _, tc := range []struct {
		name  string
		sweep time.Duration
		extra int
	}{{"sweeper off", -1, 0}, {"sweeper on", 0, 1}} {
		t.Run(tc.name, func(t *testing.T) {
			waitFor(t, "goroutines of earlier pools to exit", func() bool { return poolGoroutines() == 0 })
			const execs = 3
			reg := router.New()
			reg.MustRegister("leaf", func(ctx router.Ctx) ([]byte, error) { return ctx.Payload(), nil })
			reg.MustRegister("chain", func(ctx router.Ctx) ([]byte, error) {
				return ctx.Call("leaf", ctx.Payload())
			})
			p := New(Config{Executors: execs, Orchestrators: 2, SweepInterval: tc.sweep}, reg)
			if n := poolGoroutines(); n != 0 {
				t.Fatalf("New started %d goroutines", n)
			}
			p.Start()
			t.Cleanup(func() { _ = p.Drain(context.Background()) })
			want := execs + tc.extra
			if n := poolGoroutines(); n != want {
				t.Fatalf("after Start: %d pool goroutines, want %d", n, want)
			}
			if n := len(p.runners); n != 0 {
				t.Fatalf("Start made %d runners", n)
			}
			for i := 0; i < 16; i++ {
				if _, err := p.Invoke(context.Background(), "chain", []byte("x")); err != nil {
					t.Fatal(err)
				}
			}
			if n := poolGoroutines(); n != want {
				t.Fatalf("after traffic: %d pool goroutines, want %d", n, want)
			}
		})
	}
}

// Inline dispatch keeps JBSQ's bound for externals and §3.3's priority for
// internals: with the only executor's queue at the bound, a new external
// waits in its orchestrator's queue, an internal submitted after it is
// placed at once past the bound, and the waiting external is placed by the
// dequeue's capacityFreed and completes.
func TestInlineDispatchKeepsJBSQ(t *testing.T) {
	running, release := make(chan struct{}), make(chan struct{})
	asyncDone, goAsync := make(chan struct{}), make(chan struct{})
	p := startPool(t, Config{Executors: 1, Orchestrators: 1, JBSQBound: 1, SweepInterval: -1},
		func(reg *router.Registry) {
			reg.MustRegister("leaf", func(ctx router.Ctx) ([]byte, error) { return []byte("leaf"), nil })
			reg.MustRegister("hold", func(ctx router.Ctx) ([]byte, error) {
				close(running)
				<-goAsync
				ck, err := ctx.Async("leaf", nil)
				asyncDone <- struct{}{}
				if err != nil {
					return nil, err
				}
				<-release
				return ctx.Wait(ck)
			})
		})
	o, e := p.orchs[0], p.execs[0]
	hold := submitNow(t, p, "hold")
	<-running // the executor is busy; its queue is empty

	first := submitNow(t, p, "leaf")
	if ext, in := o.depths(); ext != 0 || in != 0 || e.qlen.Load() != 1 {
		t.Fatalf("first external: ext %d int %d qlen %d, want it placed (0 0 1)", ext, in, e.qlen.Load())
	}
	waiting := submitNow(t, p, "leaf")
	if ext, _ := o.depths(); ext != 1 || e.qlen.Load() != 1 {
		t.Fatalf("second external: ext %d qlen %d, want it held at the bound (1 1)", ext, e.qlen.Load())
	}

	goAsync <- struct{}{}
	<-asyncDone
	if ext, in := o.depths(); ext != 1 || in != 0 || e.qlen.Load() != 2 {
		t.Fatalf("internal: ext %d int %d qlen %d, want it placed past the bound (1 0 2)", ext, in, e.qlen.Load())
	}
	if n := p.Stats().Dispatched.Load(); n != 3 {
		t.Fatalf("dispatched %d, want 3 (hold, first external, internal)", n)
	}

	close(release)
	for _, r := range []*request{hold, first, waiting} {
		if b, err := await(p, r); err != nil || string(b) != "leaf" {
			t.Fatalf("%q %v", b, err)
		}
	}
	if n := p.Stats().Dispatched.Load(); n != 4 {
		t.Fatalf("dispatched %d, want 4", n)
	}
	if ext, in, q := p.QueueDepths(); ext+in+q != 0 {
		t.Fatalf("queues not empty: %d %d %d", ext, in, q)
	}
}
