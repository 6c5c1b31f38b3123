package pool

import (
	"context"
	"testing"

	"jord/internal/mem/vmatable"
	"jord/internal/server/router"
)

// startBenchPool builds and starts a pool sized for benchmarking, torn down
// when the benchmark ends.
func startBenchPool(b *testing.B, cfg Config, register func(*router.Registry)) *Pool {
	b.Helper()
	reg := router.New()
	register(reg)
	p := New(cfg, reg)
	p.Start()
	b.Cleanup(func() {
		if err := p.Drain(context.Background()); err != nil {
			b.Errorf("drain: %v", err)
		}
	})
	return p
}

// BenchmarkInvoke measures the full external hot path — submit, dispatch,
// PD cget, code pcopy, ArgBuf pmove, continuation run, teardown, complete —
// for a trivial function. allocs/op here is the per-invocation fixed cost
// the paper's hardware reduces to ~120 ns; every release should push it
// down, never up.
func BenchmarkInvoke(b *testing.B) {
	p := startBenchPool(b, Config{Executors: 4, Orchestrators: 1, ExternalQueueCap: 4096},
		func(reg *router.Registry) {
			reg.MustRegister("echo", func(ctx router.Ctx) ([]byte, error) {
				return ctx.Payload(), nil
			})
		})
	payload := []byte("benchmark-payload")
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Invoke(ctx, "echo", payload); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInvokeParallel is BenchmarkInvoke under contention: many
// submitter goroutines against the shared PD table, stats, and queues.
func BenchmarkInvokeParallel(b *testing.B) {
	p := startBenchPool(b, Config{Executors: 4, Orchestrators: 2, ExternalQueueCap: 65536},
		func(reg *router.Registry) {
			reg.MustRegister("echo", func(ctx router.Ctx) ([]byte, error) {
				return ctx.Payload(), nil
			})
		})
	payload := []byte("benchmark-payload")
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		ctx := context.Background()
		for pb.Next() {
			if _, err := p.Invoke(ctx, "echo", payload); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkNestedCall measures a two-deep call chain: the parent suspends
// (cexit), the child rides the internal queue, and the parent resumes
// (center) — the §3.3/§3.4 path nested workloads live on.
func BenchmarkNestedCall(b *testing.B) {
	p := startBenchPool(b, Config{Executors: 4, Orchestrators: 1, ExternalQueueCap: 4096},
		func(reg *router.Registry) {
			reg.MustRegister("leaf", func(ctx router.Ctx) ([]byte, error) {
				return ctx.Payload(), nil
			})
			reg.MustRegister("root", func(ctx router.Ctx) ([]byte, error) {
				return ctx.Call("leaf", ctx.Payload())
			})
		})
	payload := []byte("benchmark-payload")
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Invoke(ctx, "root", payload); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPDTable measures one cget/cput pair — the live analogue of the
// paper's Table 1 PD lifecycle cost.
func BenchmarkPDTable(b *testing.B) {
	tab := NewTable(4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pd, err := tab.Cget()
		if err != nil {
			b.Fatal(err)
		}
		if err := tab.Cput(pd); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPDTableParallel is the contended variant: every goroutine
// hammers cget/cput at once, the case the sharded free lists exist for.
func BenchmarkPDTableParallel(b *testing.B) {
	tab := NewTable(4096)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			pd, err := tab.Cget()
			if err != nil {
				b.Fatal(err)
			}
			if err := tab.Cput(pd); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkVMAPermCheck measures the grant + check + revoke cycle every
// invocation pays on its ArgBuf — the software stand-in for the VTE
// sub-array walk of Fig. 8.
func BenchmarkVMAPermCheck(b *testing.B) {
	tab := NewTable(64)
	pd, err := tab.Cget()
	if err != nil {
		b.Fatal(err)
	}
	v := tab.NewVMA(vmatable.ExecutorPD, []byte("x"), vmatable.PermRW)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := v.Pmove(vmatable.ExecutorPD, pd, vmatable.PermRW); err != nil {
			b.Fatal(err)
		}
		if err := v.Check(pd, vmatable.PermR); err != nil {
			b.Fatal(err)
		}
		if err := v.Pmove(pd, vmatable.ExecutorPD, vmatable.PermRW); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVMALifecycle measures allocating a fresh ArgBuf, transferring it
// through an invocation PD, and freeing it — the per-request VMA churn,
// recycled as the product's ArgBuf path recycles it.
func BenchmarkVMALifecycle(b *testing.B) {
	tab := NewTable(4096)
	payload := []byte("benchmark-payload")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pd, err := tab.Cget()
		if err != nil {
			b.Fatal(err)
		}
		v := tab.NewVMA(vmatable.ExecutorPD, payload, vmatable.PermRW)
		if err := v.Pmove(vmatable.ExecutorPD, pd, vmatable.PermRW); err != nil {
			b.Fatal(err)
		}
		if err := v.Pmove(pd, vmatable.ExecutorPD, vmatable.PermRW); err != nil {
			b.Fatal(err)
		}
		if err := v.Free(vmatable.ExecutorPD); err != nil {
			b.Fatal(err)
		}
		if err := tab.Cput(pd); err != nil {
			b.Fatal(err)
		}
	}
}
