package pool

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"jord/internal/server/router"
	"jord/internal/server/trace"
)

// TestTraceSpansPublished proves the tentpole end to end on the pool path:
// every invocation lands in the recorder with its lifecycle stages stamped
// and its outcome classified, with tracing ON BY DEFAULT (no opt-in knob
// on the serving path).
func TestTraceSpansPublished(t *testing.T) {
	p := startPool(t, Config{Executors: 2, Orchestrators: 1}, func(reg *router.Registry) {
		reg.MustRegister("echo", func(ctx router.Ctx) ([]byte, error) {
			return ctx.Payload(), nil
		})
		reg.MustRegister("boom", func(ctx router.Ctx) ([]byte, error) {
			return nil, errors.New("deliberate")
		})
	})
	rec := p.Trace()
	if rec == nil {
		t.Fatal("tracing must be on by default")
	}

	for i := 0; i < 8; i++ {
		if _, err := p.Invoke(context.Background(), "echo", []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := p.Invoke(context.Background(), "boom", nil); err == nil {
		t.Fatal("boom should fail")
	}

	doc := rec.Tracez("", 0)
	if len(doc.Recent) != 9 {
		t.Fatalf("recent = %d spans, want 9", len(doc.Recent))
	}
	var okSeen, errSeen bool
	for _, v := range doc.Recent {
		switch v.Func {
		case "echo":
			okSeen = true
			if v.Outcome != "ok" {
				t.Fatalf("echo outcome = %q", v.Outcome)
			}
			for _, stage := range []string{"queue", "exec", "teardown"} {
				if v.Stages[stage] <= 0 {
					t.Fatalf("echo span missing stage %q: %v", stage, v.Stages)
				}
			}
			if v.DurNS <= 0 {
				t.Fatalf("echo span dur = %d", v.DurNS)
			}
		case "boom":
			errSeen = true
			if v.Outcome != "error" {
				t.Fatalf("boom outcome = %q", v.Outcome)
			}
		}
	}
	if !okSeen || !errSeen {
		t.Fatalf("missing spans: ok=%v err=%v", okSeen, errSeen)
	}

	// The errored invocation also landed in the error ring.
	if len(doc.Errors) != 1 || doc.Errors[0].Func != "boom" {
		t.Fatalf("errors = %+v, want the one boom span", doc.Errors)
	}

	// Stage histograms saw every span.
	hists := rec.StageHists()
	if got := hists[trace.StageExec].Count; got != 9 {
		t.Fatalf("exec hist count = %d, want 9", got)
	}
}

// TestTraceNestedLinkage checks parent/child span identity across Async:
// the parent takes an explicit ID at its first child, every child records
// it as ParentID, and the parent counts its children.
func TestTraceNestedLinkage(t *testing.T) {
	p := startPool(t, Config{Executors: 2, Orchestrators: 1}, func(reg *router.Registry) {
		reg.MustRegister("leaf", func(ctx router.Ctx) ([]byte, error) {
			return ctx.Payload(), nil
		})
		reg.MustRegister("root", func(ctx router.Ctx) ([]byte, error) {
			ck1, err := ctx.Async("leaf", []byte("a"))
			if err != nil {
				return nil, err
			}
			ck2, err := ctx.Async("leaf", []byte("b"))
			if err != nil {
				return nil, err
			}
			if _, err := ctx.Wait(ck1); err != nil {
				return nil, err
			}
			return ctx.Wait(ck2)
		})
	})
	if _, err := p.Invoke(context.Background(), "root", []byte("x")); err != nil {
		t.Fatal(err)
	}

	doc := p.Trace().Tracez("", 0)
	var rootID uint64
	var rootChildren int32
	for _, v := range doc.Recent {
		if v.Func == "root" {
			rootID, rootChildren = v.ID, v.Children
		}
	}
	if rootID == 0 {
		t.Fatal("root span not retained")
	}
	if rootChildren != 2 {
		t.Fatalf("root children = %d, want 2", rootChildren)
	}
	leaves := 0
	for _, v := range doc.Recent {
		if v.Func == "leaf" {
			leaves++
			if v.ParentID != rootID {
				t.Fatalf("leaf parent = %d, want root %d", v.ParentID, rootID)
			}
			if v.External {
				t.Fatal("nested leaf marked external")
			}
			if v.Stages["wait"] != 0 {
				t.Fatalf("leaf has wait time: %v", v.Stages)
			}
		}
	}
	if leaves != 2 {
		t.Fatalf("leaf spans = %d, want 2", leaves)
	}
	// The parent suspended on its children: wait time must be attributed.
	for _, v := range doc.Recent {
		if v.Func == "root" && v.Stages["wait"] <= 0 {
			t.Fatalf("root has no wait stage: %v", v.Stages)
		}
	}
}

// TestTraceExpiredOutcome checks deadline classification: a function that
// outlives its deadline publishes OutcomeExpired (via the canceled-abandon
// rule — the runtime owns publication when the caller gave up).
func TestTraceExpiredOutcome(t *testing.T) {
	block := make(chan struct{})
	p := startPool(t, Config{Executors: 1, Orchestrators: 1}, func(reg *router.Registry) {
		reg.MustRegister("slow", func(ctx router.Ctx) ([]byte, error) {
			select {
			case <-block:
			case <-ctx.Done():
			}
			return nil, ctx.Err()
		})
	})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := p.Invoke(ctx, "slow", nil); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want deadline exceeded, got %v", err)
	}
	close(block)

	// The abandoned request finishes asynchronously; poll briefly.
	deadline := time.Now().Add(2 * time.Second)
	for {
		doc := p.Trace().Tracez("slow", 0)
		found := false
		for _, v := range doc.Errors {
			if v.Outcome == "expired" || v.Outcome == "canceled" {
				found = true
			}
		}
		if found {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("expired span never published")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestTraceShedBurstFreezesIncident checks that tiered-shedding refusals
// feed the flight recorder's burst detector: hold a PD so the free count
// sits at the shed threshold, fire a burst of externals, and expect a
// frozen shed_burst incident.
func TestTraceShedBurstFreezesIncident(t *testing.T) {
	held := make(chan struct{})
	release := make(chan struct{})
	p := startPool(t, Config{Executors: 2, Orchestrators: 1, NumPDs: 4, PDShedMargin: 64},
		func(reg *router.Registry) {
			reg.MustRegister("echo", func(ctx router.Ctx) ([]byte, error) {
				return ctx.Payload(), nil
			})
			reg.MustRegister("hold", func(ctx router.Ctx) ([]byte, error) {
				close(held)
				<-release
				return nil, nil
			})
		})
	if thr := p.ShedThreshold(); thr <= 0 {
		t.Fatalf("shed threshold = %d; tiered shedding not armed", thr)
	}
	holdDone := make(chan error, 1)
	go func() {
		_, err := p.Invoke(context.Background(), "hold", nil)
		holdDone <- err
	}()
	<-held // the hold function occupies a PD: free is now at/below the threshold

	var sheds int
	for i := 0; i < 3*shedBurstTestSize && sheds < shedBurstTestSize; i++ {
		if _, err := p.Invoke(context.Background(), "echo", nil); errors.Is(err, ErrDegraded) {
			sheds++
		}
	}
	close(release)
	if err := <-holdDone; err != nil {
		t.Fatalf("hold invocation failed: %v", err)
	}
	if sheds < shedBurstTestSize {
		t.Fatalf("only %d sheds; cannot drive the burst detector", sheds)
	}
	incs := p.Trace().Incidents()
	found := false
	for _, inc := range incs {
		if inc.Reason == "shed_burst" {
			found = true
		}
	}
	if !found {
		t.Fatalf("no shed_burst incident frozen: %+v", incs)
	}
}

// shedBurstTestSize mirrors trace's shedBurst threshold (32) with headroom.
const shedBurstTestSize = 40

// TestNoTraceDisables checks the overhead-comparison knob.
func TestNoTraceDisables(t *testing.T) {
	p := startPool(t, Config{Executors: 1, Orchestrators: 1, NoTrace: true},
		func(reg *router.Registry) {
			reg.MustRegister("echo", func(ctx router.Ctx) ([]byte, error) {
				return ctx.Payload(), nil
			})
		})
	if p.Trace() != nil {
		t.Fatal("NoTrace pool still has a recorder")
	}
	if _, err := p.Invoke(context.Background(), "echo", []byte("x")); err != nil {
		t.Fatal(err)
	}
}

// TestInvokeZeroAllocWithTracing is the tentpole's hard gate at the unit
// level: the full invoke round trip — with tracing ON — allocates nothing
// once the recycle pools are warm.
func TestInvokeZeroAllocWithTracing(t *testing.T) {
	if race {
		t.Skip("race instrumentation allocates")
	}
	p := startPool(t, Config{Executors: 2, Orchestrators: 1}, func(reg *router.Registry) {
		reg.MustRegister("echo", func(ctx router.Ctx) ([]byte, error) {
			return ctx.Payload(), nil
		})
	})
	if p.Trace() == nil {
		t.Fatal("tracing must be on for this gate")
	}
	ctx := context.Background()
	payload := []byte("alloc-gate-payload")
	for i := 0; i < 2000; i++ { // warm every pool and ring
		if _, err := p.Invoke(ctx, "echo", payload); err != nil {
			t.Fatal(err)
		}
	}

	const n = 5000
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		if _, err := p.Invoke(ctx, "echo", payload); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perOp := float64(after.Mallocs-before.Mallocs) / n
	t.Logf("allocs/op with tracing: %.4f", perOp)
	if perOp > 0.01 {
		t.Fatalf("invoke with tracing allocates %.4f/op (want <= 0.01)", perOp)
	}
}

// TestNestedZeroAllocWithTracing extends the gate to the suspend/resume
// path: a chain (one Call) and a fan-out (two Asyncs, two Waits) — child
// dispatch, cexit, center and child collection, with tracing ON — allocate
// nothing once the recycle pools and runner coroutines are warm.
func TestNestedZeroAllocWithTracing(t *testing.T) {
	if race {
		t.Skip("race instrumentation allocates")
	}
	p := startPool(t, Config{Executors: 2, Orchestrators: 1}, func(reg *router.Registry) {
		reg.MustRegister("leaf", func(ctx router.Ctx) ([]byte, error) {
			return ctx.Payload(), nil
		})
		reg.MustRegister("chain", func(ctx router.Ctx) ([]byte, error) {
			return ctx.Call("leaf", ctx.Payload())
		})
		reg.MustRegister("fanout", func(ctx router.Ctx) ([]byte, error) {
			ck1, err := ctx.Async("leaf", ctx.Payload())
			if err != nil {
				return nil, err
			}
			ck2, err := ctx.Async("leaf", ctx.Payload())
			if err != nil {
				return nil, err
			}
			if _, err := ctx.Wait(ck1); err != nil {
				return nil, err
			}
			return ctx.Wait(ck2)
		})
	})
	if p.Trace() == nil {
		t.Fatal("tracing must be on for this gate")
	}
	ctx := context.Background()
	payload := []byte("alloc-gate-payload")
	for _, fn := range []string{"chain", "fanout"} {
		for i := 0; i < 2000; i++ { // warm every pool, ring and runner
			if _, err := p.Invoke(ctx, fn, payload); err != nil {
				t.Fatal(err)
			}
		}
		const n = 5000
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < n; i++ {
			if _, err := p.Invoke(ctx, fn, payload); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		perOp := float64(after.Mallocs-before.Mallocs) / n
		t.Logf("%s allocs/op with tracing: %.4f", fn, perOp)
		if perOp > 0.02 {
			t.Errorf("%s with tracing allocates %.4f/op (want <= 0.02)", fn, perOp)
		}
	}
}

// TestTraceIntervalStageAccumulation checks += semantics: a span that
// requeues (PD stall) accrues queue time rather than overwriting it. The
// cheap proxy: hammer a tiny-PD pool and require every completed span's
// stage sum to stay within its total duration.
func TestTraceStageSumWithinDuration(t *testing.T) {
	p := startPool(t, Config{Executors: 2, Orchestrators: 1, NumPDs: 8}, func(reg *router.Registry) {
		reg.MustRegister("echo", func(ctx router.Ctx) ([]byte, error) {
			return ctx.Payload(), nil
		})
	})
	for i := 0; i < 200; i++ {
		if _, err := p.Invoke(context.Background(), "echo", []byte(fmt.Sprint(i))); err != nil {
			t.Fatal(err)
		}
	}
	doc := p.Trace().Tracez("", 64)
	for _, v := range doc.Recent {
		var sum int64
		for name, d := range v.Stages {
			if name == "state" {
				continue
			}
			sum += d
		}
		if sum > v.DurNS {
			t.Fatalf("stages sum %d exceeds span duration %d: %v", sum, v.DurNS, v.Stages)
		}
	}
}
