package pool

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"jord/internal/server/router"
)

func startPool(t *testing.T, cfg Config, register func(*router.Registry)) *Pool {
	t.Helper()
	reg := router.New()
	register(reg)
	p := New(cfg, reg)
	p.Start()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := p.Drain(ctx); err != nil {
			t.Errorf("drain: %v", err)
		}
	})
	return p
}

func TestInvokeEcho(t *testing.T) {
	p := startPool(t, Config{Executors: 2, Orchestrators: 1}, func(reg *router.Registry) {
		reg.MustRegister("echo", func(ctx router.Ctx) ([]byte, error) {
			return ctx.Payload(), nil
		})
	})
	got, err := p.Invoke(context.Background(), "echo", []byte("hello"))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "hello" {
		t.Fatalf("echo = %q", got)
	}
	if _, err := p.Invoke(context.Background(), "nope", nil); !errors.Is(err, ErrUnknownFunction) {
		t.Fatalf("unknown function: %v", err)
	}
}

func TestNestedCallChain(t *testing.T) {
	p := startPool(t, Config{Executors: 2, Orchestrators: 1}, func(reg *router.Registry) {
		reg.MustRegister("leaf", func(ctx router.Ctx) ([]byte, error) {
			return bytes.ToUpper(ctx.Payload()), nil
		})
		reg.MustRegister("root", func(ctx router.Ctx) ([]byte, error) {
			a, err := ctx.Call("leaf", ctx.Payload())
			if err != nil {
				return nil, err
			}
			b, err := ctx.Call("leaf", []byte("again"))
			if err != nil {
				return nil, err
			}
			return append(append([]byte{}, a...), b...), nil
		})
	})
	got, err := p.Invoke(context.Background(), "root", []byte("abc"))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "ABCAGAIN" {
		t.Fatalf("root = %q", got)
	}
}

// TestNestedOnSingleExecutor proves the continuation-suspension design: a
// parent and its children share ONE executor, which would deadlock if the
// executor goroutine blocked inside the parent during the nested call.
func TestNestedOnSingleExecutor(t *testing.T) {
	p := startPool(t, Config{Executors: 1, Orchestrators: 1, JBSQBound: 1}, func(reg *router.Registry) {
		reg.MustRegister("leaf", func(ctx router.Ctx) ([]byte, error) {
			return []byte("x"), nil
		})
		reg.MustRegister("root", func(ctx router.Ctx) ([]byte, error) {
			var out []byte
			for i := 0; i < 3; i++ {
				b, err := ctx.Call("leaf", nil)
				if err != nil {
					return nil, err
				}
				out = append(out, b...)
			}
			return out, nil
		})
	})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	got, err := p.Invoke(ctx, "root", nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "xxx" {
		t.Fatalf("root = %q", got)
	}
}

func TestAsyncFanout(t *testing.T) {
	p := startPool(t, Config{Executors: 4, Orchestrators: 1}, func(reg *router.Registry) {
		reg.MustRegister("leaf", func(ctx router.Ctx) ([]byte, error) {
			return ctx.Payload(), nil
		})
		reg.MustRegister("fan", func(ctx router.Ctx) ([]byte, error) {
			var cookies []router.Cookie
			for i := 0; i < 4; i++ {
				ck, err := ctx.Async("leaf", []byte{byte('a' + i)})
				if err != nil {
					return nil, err
				}
				cookies = append(cookies, ck)
			}
			var out []byte
			for _, ck := range cookies {
				b, err := ctx.Wait(ck)
				if err != nil {
					return nil, err
				}
				out = append(out, b...)
			}
			return out, nil
		})
	})
	got, err := p.Invoke(context.Background(), "fan", nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "abcd" {
		t.Fatalf("fan = %q", got)
	}
}

func TestFunctionErrorAndPanic(t *testing.T) {
	p := startPool(t, Config{Executors: 2, Orchestrators: 1}, func(reg *router.Registry) {
		reg.MustRegister("fail", func(ctx router.Ctx) ([]byte, error) {
			return nil, errors.New("application error")
		})
		reg.MustRegister("boom", func(ctx router.Ctx) ([]byte, error) {
			panic("kaboom")
		})
		reg.MustRegister("ok", func(ctx router.Ctx) ([]byte, error) {
			return []byte("fine"), nil
		})
	})
	if _, err := p.Invoke(context.Background(), "fail", nil); err == nil || err.Error() != "application error" {
		t.Fatalf("fail: %v", err)
	}
	if _, err := p.Invoke(context.Background(), "boom", nil); err == nil || !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("boom: %v", err)
	}
	// A crashed function must not poison the worker: PDs are reclaimed and
	// the pool keeps serving.
	got, err := p.Invoke(context.Background(), "ok", nil)
	if err != nil || string(got) != "fine" {
		t.Fatalf("ok after boom: %q %v", got, err)
	}
	if n := p.Table().LivePDs(); n != 0 {
		t.Fatalf("leaked %d PDs", n)
	}
}

func TestDeadlineExpiresQueuedRequest(t *testing.T) {
	block, started := make(chan struct{}), make(chan struct{})
	p := startPool(t, Config{Executors: 1, Orchestrators: 1, JBSQBound: 1, ExternalQueueCap: 16},
		func(reg *router.Registry) {
			reg.MustRegister("block", func(ctx router.Ctx) ([]byte, error) {
				close(started)
				<-block
				return nil, nil
			})
			reg.MustRegister("fast", func(ctx router.Ctx) ([]byte, error) { return nil, nil })
		})
	defer close(block)

	// Occupy the only executor, and submit only once it is taken.
	go p.Invoke(context.Background(), "block", nil) //nolint:errcheck
	<-started

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	_, err := p.Invoke(ctx, "fast", nil)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("queued request past deadline: %v", err)
	}
}

func TestPDExhaustionRecovers(t *testing.T) {
	// 2 PDs, parents that each hold one across a nested call: run several
	// concurrently; the PD-capacity stall must resolve, not deadlock.
	p := startPool(t, Config{Executors: 2, Orchestrators: 1, NumPDs: 2}, func(reg *router.Registry) {
		reg.MustRegister("leaf", func(ctx router.Ctx) ([]byte, error) { return []byte("y"), nil })
		reg.MustRegister("root", func(ctx router.Ctx) ([]byte, error) {
			return ctx.Call("leaf", nil)
		})
	})
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
			defer cancel()
			if _, err := p.Invoke(ctx, "root", nil); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("invoke under PD pressure: %v", err)
	}
}

func TestDrainRejectsNewWork(t *testing.T) {
	reg := router.New()
	reg.MustRegister("echo", func(ctx router.Ctx) ([]byte, error) { return ctx.Payload(), nil })
	p := New(Config{Executors: 2}, reg)
	p.Start()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := p.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Invoke(context.Background(), "echo", nil); !errors.Is(err, ErrDraining) {
		t.Fatalf("post-drain invoke: %v", err)
	}
}

func TestStatsRecorded(t *testing.T) {
	p := startPool(t, Config{Executors: 2, Orchestrators: 1}, func(reg *router.Registry) {
		reg.MustRegister("leaf", func(ctx router.Ctx) ([]byte, error) { return nil, nil })
		reg.MustRegister("root", func(ctx router.Ctx) ([]byte, error) {
			return ctx.Call("leaf", nil)
		})
	})
	for i := 0; i < 10; i++ {
		if _, err := p.Invoke(context.Background(), "root", nil); err != nil {
			t.Fatal(err)
		}
	}
	st := p.Stats()
	rootStats := st.FuncStats("root")
	leafStats := st.FuncStats("leaf")
	if rootStats.Count.Load() != 10 || leafStats.Count.Load() != 10 {
		t.Fatalf("counts: root=%d leaf=%d", rootStats.Count.Load(), leafStats.Count.Load())
	}
	if rootStats.Latency.Count() != 10 {
		t.Fatalf("latency samples: %d", rootStats.Latency.Count())
	}
	if rootStats.Latency.Percentile(50) <= 0 {
		t.Fatal("p50 should be positive")
	}
	if got := st.Completed.Load(); got != 20 {
		t.Fatalf("completed = %d, want 20", got)
	}
}

func TestConcurrentInvokes(t *testing.T) {
	p := startPool(t, Config{Executors: 4, Orchestrators: 2, ExternalQueueCap: 4096},
		func(reg *router.Registry) {
			reg.MustRegister("sum", func(ctx router.Ctx) ([]byte, error) {
				var s byte
				for _, b := range ctx.Payload() {
					s += b
				}
				return []byte{s}, nil
			})
		})
	const n = 500
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got, err := p.Invoke(context.Background(), "sum", []byte{byte(i), 1})
			if err != nil {
				errs <- err
				return
			}
			if len(got) != 1 || got[0] != byte(i)+1 {
				errs <- fmt.Errorf("sum(%d) = %v", i, got)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
