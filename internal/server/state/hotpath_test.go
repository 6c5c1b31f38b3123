package state

import (
	"testing"

	"jord/internal/server/pool"
	"jord/internal/server/router"
)

// TestGetFastPathZeroAlloc pins the promoted-key snapshot path at 0
// allocs/op: one atomic pointer load, a recycled handle, no permission
// traffic, no copy. This is the CI gate for the G-bit fast path.
func TestGetFastPathZeroAlloc(t *testing.T) {
	tab := pool.NewTable(16)
	st, err := New(Config{PromoteAfter: 1}, tab)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := st.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	}()
	pd, err := tab.Cget()
	if err != nil {
		t.Fatal(err)
	}
	defer tab.Cput(pd)

	if _, err := st.Put(pd, "", router.StateGlobal, "hot", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	// One granted read crosses the PromoteAfter=1 threshold.
	sn, err := st.Get(pd, "", router.StateGlobal, "hot")
	if err != nil {
		t.Fatal(err)
	}
	sn.ReleaseHold()
	if st.StatsSnapshot().Promotions != 1 {
		t.Fatal("key did not promote")
	}

	allocs := testing.AllocsPerRun(1000, func() {
		sn, err := st.Get(pd, "", router.StateGlobal, "hot")
		if err != nil {
			t.Fatal(err)
		}
		if len(sn.Bytes()) != 7 {
			t.Fatal("bad snapshot")
		}
		sn.ReleaseHold()
	})
	if allocs != 0 {
		t.Fatalf("promoted Get = %.1f allocs/op, want 0", allocs)
	}
	if err := st.Delete(pd, "", router.StateGlobal, "hot"); err != nil {
		t.Fatal(err)
	}
}

// TestGetGrantedPathZeroAlloc pins the steady-state pcopy path too: the
// per-PD permission slot recycles and the grant is counted in one of the
// entry's inline slots, so repeated snapshot/release cycles do not
// allocate either.
func TestGetGrantedPathZeroAlloc(t *testing.T) {
	tab := pool.NewTable(16)
	st, err := New(Config{PromoteAfter: -1}, tab) // promotion off: always the granted path
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := st.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	}()
	pd, err := tab.Cget()
	if err != nil {
		t.Fatal(err)
	}
	defer tab.Cput(pd)

	if _, err := st.Put(pd, "", router.StateGlobal, "k", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	// Warm the handle pool once.
	sn, err := st.Get(pd, "", router.StateGlobal, "k")
	if err != nil {
		t.Fatal(err)
	}
	sn.ReleaseHold()

	allocs := testing.AllocsPerRun(1000, func() {
		sn, err := st.Get(pd, "", router.StateGlobal, "k")
		if err != nil {
			t.Fatal(err)
		}
		if len(sn.Bytes()) != 7 {
			t.Fatal("bad snapshot")
		}
		sn.ReleaseHold()
	})
	if allocs != 0 {
		t.Fatalf("granted Get = %.1f allocs/op, want 0", allocs)
	}
	if err := st.Delete(pd, "", router.StateGlobal, "k"); err != nil {
		t.Fatal(err)
	}
	if err := st.VerifyIdle(); err != nil {
		t.Fatal(err)
	}
}
