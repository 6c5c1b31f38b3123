package pool

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"jord/internal/mem/vmatable"
	"jord/internal/server/router"
)

// TestShardedReserveInvariant hammers the sharded table with concurrent
// cached gets/puts and checks the §3.3 reserve invariant holds globally:
// external-style gets (CgetAbove(reserve)) can never hold more than
// numPDs-reserve domains at once, no matter how IDs migrate between
// shards and per-executor caches. Run with -race.
func TestShardedReserveInvariant(t *testing.T) {
	const (
		numPDs  = 64
		reserve = 16
		workers = 8
		iters   = 2000
	)
	tab := NewTable(numPDs)

	var (
		held    atomic.Int64 // PDs currently held via reserve-gated gets
		maxHeld atomic.Int64
		dup     [numPDs + 1]atomic.Bool // detects double allocation
		wg      sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cache := tab.newCache()
			local := make([]PDID, 0, 8)
			for i := 0; i < iters; i++ {
				pd, err := tab.cgetCached(reserve, cache)
				if err == nil {
					if !dup[pd].CompareAndSwap(false, true) {
						t.Errorf("pd %d allocated twice", pd)
					}
					// held is incremented inside the hold window, so it
					// lower-bounds the true number of outstanding
					// reservations — which reserveOne caps at
					// numPDs-reserve.
					h := held.Add(1)
					for {
						m := maxHeld.Load()
						if h <= m || maxHeld.CompareAndSwap(m, h) {
							break
						}
					}
					local = append(local, pd)
				}
				// Release in bursts so caches fill past pdCacheMax and
				// exercise the flush-back-to-shard path.
				if len(local) == cap(local) || (err != nil && len(local) > 0) {
					for _, pd := range local {
						held.Add(-1)
						dup[pd].Store(false)
						if err := tab.cputCached(pd, cache); err != nil {
							t.Errorf("cput %d: %v", pd, err)
						}
					}
					local = local[:0]
				}
			}
			for _, pd := range local {
				held.Add(-1)
				dup[pd].Store(false)
				if err := tab.cputCached(pd, cache); err != nil {
					t.Errorf("cput %d: %v", pd, err)
				}
			}
		}()
	}
	wg.Wait()

	if m := maxHeld.Load(); m > numPDs-reserve {
		t.Fatalf("reserve breached: %d PDs held concurrently, cap %d", m, numPDs-reserve)
	}
	if free := tab.FreeCount(); free != numPDs {
		t.Fatalf("leaked PDs: FreeCount = %d, want %d", free, numPDs)
	}
	if live := tab.LivePDs(); live != 0 {
		t.Fatalf("LivePDs = %d after all puts", live)
	}
	if f := tab.Faults(); f != 0 {
		t.Fatalf("faults = %d", f)
	}
}

// TestInternalGetsDrainReserve checks the other half of the invariant:
// reserve-0 (internal) gets may consume the reserve down to zero — the
// reserve throttles external admission, it does not strand capacity.
func TestInternalGetsDrainReserve(t *testing.T) {
	const numPDs = 12
	tab := NewTable(numPDs)
	cache := tab.newCache()

	// External-style gets stop at the reserve...
	var got []PDID
	for {
		pd, err := tab.cgetCached(4, cache)
		if err != nil {
			break
		}
		got = append(got, pd)
	}
	if len(got) != numPDs-4 {
		t.Fatalf("external gets = %d, want %d", len(got), numPDs-4)
	}
	// ...internal gets take the table to empty.
	for i := 0; i < 4; i++ {
		pd, err := tab.cgetCached(0, cache)
		if err != nil {
			t.Fatalf("internal get %d: %v", i, err)
		}
		got = append(got, pd)
	}
	if _, err := tab.cgetCached(0, cache); err == nil {
		t.Fatal("get beyond capacity should fail")
	}
	for _, pd := range got {
		if err := tab.cputCached(pd, cache); err != nil {
			t.Fatal(err)
		}
	}
	if free := tab.FreeCount(); free != numPDs {
		t.Fatalf("FreeCount = %d, want %d", free, numPDs)
	}
}

// TestVMAOverflowSharers drives a VMA's sharer count past the inline VTE
// sub-array so permissions spill into (and retract from) the overflow list.
func TestVMAOverflowSharers(t *testing.T) {
	const sharers = vmatable.SubEntries + 12
	tab := NewTable(sharers + 4)
	v := tab.NewVMA(vmatable.ExecutorPD, []byte("shared"), vmatable.PermRW)

	pds := make([]PDID, sharers)
	for i := range pds {
		pd, err := tab.Cget()
		if err != nil {
			t.Fatal(err)
		}
		pds[i] = pd
		if err := v.Pcopy(vmatable.ExecutorPD, pd, vmatable.PermR); err != nil {
			t.Fatalf("pcopy to sharer %d: %v", i, err)
		}
	}
	if got := len(v.perms.Overflow); got == 0 {
		t.Fatalf("expected overflow entries past %d inline slots", vmatable.SubEntries)
	}

	// Every sharer — inline or overflow — can read; none can write.
	for i, pd := range pds {
		if _, err := v.Read(pd); err != nil {
			t.Fatalf("sharer %d read: %v", i, err)
		}
		if err := v.Write(pd, []byte("nope")); err == nil {
			t.Fatalf("sharer %d write should fault", i)
		}
	}

	// Revoke every other sharer (hitting both inline zeroing and overflow
	// removal), then verify revoked PDs fault and survivors still read.
	for i := 0; i < sharers; i += 2 {
		if err := v.Pmove(pds[i], vmatable.ExecutorPD, vmatable.PermR); err != nil {
			t.Fatalf("revoke sharer %d: %v", i, err)
		}
	}
	for i, pd := range pds {
		_, err := v.Read(pd)
		if i%2 == 0 && err == nil {
			t.Fatalf("revoked sharer %d still reads", i)
		}
		if i%2 == 1 && err != nil {
			t.Fatalf("surviving sharer %d: %v", i, err)
		}
	}

	// The owner's write permission was untouched throughout.
	if err := v.Write(vmatable.ExecutorPD, []byte("updated")); err != nil {
		t.Fatal(err)
	}
}

// TestRecyclingLeaksNoPDs runs many waves of nested invocations through a
// small pool and verifies the recycling paths — request/continuation/VMA
// pools, runner park/unpark, per-executor PD caches — return every PD:
// after the traffic, zero PDs are live and no faults were recorded.
func TestRecyclingLeaksNoPDs(t *testing.T) {
	p := startPool(t, Config{Executors: 4, Orchestrators: 1, NumPDs: 64}, func(reg *router.Registry) {
		reg.MustRegister("leaf", func(ctx router.Ctx) ([]byte, error) {
			return bytes.ToUpper(ctx.Payload()), nil
		})
		reg.MustRegister("mid", func(ctx router.Ctx) ([]byte, error) {
			return ctx.Call("leaf", ctx.Payload())
		})
		reg.MustRegister("root", func(ctx router.Ctx) ([]byte, error) {
			// Payload() aliases the ArgBuf (zero-copy) — copy before
			// appending, or the two children would share a backing array.
			p1 := append(append([]byte(nil), ctx.Payload()...), '1')
			p2 := append(append([]byte(nil), ctx.Payload()...), '2')
			ck1, err := ctx.Async("mid", p1)
			if err != nil {
				return nil, err
			}
			ck2, err := ctx.Async("mid", p2)
			if err != nil {
				return nil, err
			}
			a, err := ctx.Wait(ck1)
			if err != nil {
				return nil, err
			}
			b, err := ctx.Wait(ck2)
			if err != nil {
				return nil, err
			}
			return append(a, b...), nil
		})
	})

	const (
		rounds  = 50
		clients = 8
	)
	for round := 0; round < rounds; round++ {
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				payload := []byte(fmt.Sprintf("r%dc%d", round, c))
				got, err := p.Invoke(context.Background(), "root", payload)
				if err != nil {
					t.Errorf("invoke: %v", err)
					return
				}
				want := bytes.ToUpper([]byte(string(payload) + "1" + string(payload) + "2"))
				if !bytes.Equal(got, want) {
					t.Errorf("round %d client %d: got %q, want %q", round, c, got, want)
				}
			}(c)
		}
		wg.Wait()

		// Between waves the pool is quiescent: every PD must be back in
		// some free list (shard or executor cache).
		if live := p.tab.LivePDs(); live != 0 {
			t.Fatalf("round %d: %d PDs leaked", round, live)
		}
	}
	if f := p.tab.Faults(); f != 0 {
		t.Fatalf("faults = %d", f)
	}
	st := p.Stats()
	if want := uint64(rounds * clients); st.Completed.Load() < want {
		t.Fatalf("completed = %d, want >= %d", st.Completed.Load(), want)
	}
}
