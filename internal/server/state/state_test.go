package state

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"jord/internal/server/pool"
	"jord/internal/server/router"
)

// rig is one store over a fresh PD table plus a handful of reader/writer
// PDs standing in for invocations.
type rig struct {
	tab *pool.Table
	st  *Store
	pds []pool.PDID
}

func newRig(t *testing.T, cfg Config, npds int) *rig {
	t.Helper()
	tab := pool.NewTable(npds + 8)
	st, err := New(cfg, tab)
	if err != nil {
		t.Fatal(err)
	}
	r := &rig{tab: tab, st: st}
	for i := 0; i < npds; i++ {
		pd, err := tab.Cget()
		if err != nil {
			t.Fatal(err)
		}
		r.pds = append(r.pds, pd)
	}
	t.Cleanup(func() {
		if err := st.VerifyIdle(); err != nil {
			t.Errorf("post-test: %v", err)
		}
		if err := st.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
		for _, pd := range r.pds {
			if err := tab.Cput(pd); err != nil {
				t.Errorf("cput %d: %v", pd, err)
			}
		}
		if err := tab.VerifyIdle(); err != nil {
			t.Errorf("post-test table: %v", err)
		}
		if n := tab.Faults(); n != 0 {
			t.Errorf("post-test: %d isolation faults", n)
		}
	})
	return r
}

func TestPutGetDeleteLifecycle(t *testing.T) {
	r := newRig(t, Config{}, 2)
	pd := r.pds[0]

	if _, err := r.st.Get(pd, "fn", router.StateLocal, "k"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("get missing = %v, want ErrNotFound", err)
	}

	ver, err := r.st.Put(pd, "fn", router.StateLocal, "k", []byte("hello"))
	if err != nil || ver != 1 {
		t.Fatalf("put = (%d, %v), want (1, nil)", ver, err)
	}

	sn, err := r.st.Get(r.pds[1], "fn", router.StateLocal, "k")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sn.Bytes(), []byte("hello")) || sn.Version() != 1 {
		t.Fatalf("snapshot = (%q, v%d), want (hello, v1)", sn.Bytes(), sn.Version())
	}
	sn.ReleaseHold()

	// Local tiers are namespaced by function; the same key under another
	// function or the global tier is a different value.
	if _, err := r.st.Get(pd, "other", router.StateLocal, "k"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("cross-function local get = %v, want ErrNotFound", err)
	}
	if _, err := r.st.Get(pd, "fn", router.StateGlobal, "k"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("global get of local key = %v, want ErrNotFound", err)
	}

	if err := r.st.Delete(pd, "fn", router.StateLocal, "k"); err != nil {
		t.Fatal(err)
	}
	if err := r.st.Delete(pd, "fn", router.StateLocal, "k"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double delete = %v, want ErrNotFound", err)
	}
	if _, err := r.st.Get(pd, "fn", router.StateLocal, "k"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("get after delete = %v, want ErrNotFound", err)
	}
}

func TestTakeCommitDiscard(t *testing.T) {
	r := newRig(t, Config{}, 3)
	w, w2, rd := r.pds[0], r.pds[1], r.pds[2]

	// Take of an absent key creates it empty at version 0.
	tx, err := r.st.Take(w, "fn", router.StateLocal, "acct")
	if err != nil {
		t.Fatal(err)
	}
	if len(tx.Bytes()) != 0 || tx.Version() != 0 {
		t.Fatalf("fresh take = (%q, v%d), want empty v0", tx.Bytes(), tx.Version())
	}

	// Single-writer: a second taker is refused, not blocked.
	if _, err := r.st.Take(w2, "fn", router.StateLocal, "acct"); !errors.Is(err, ErrTaken) {
		t.Fatalf("concurrent take = %v, want ErrTaken", err)
	}
	// So is Put and Delete while owned.
	if _, err := r.st.Put(w2, "fn", router.StateLocal, "acct", []byte("x")); !errors.Is(err, ErrTaken) {
		t.Fatalf("put while taken = %v, want ErrTaken", err)
	}
	if err := r.st.Delete(w2, "fn", router.StateLocal, "acct"); !errors.Is(err, ErrTaken) {
		t.Fatalf("delete while taken = %v, want ErrTaken", err)
	}

	ver, err := tx.Commit([]byte("balance=10"))
	if err != nil || ver != 1 {
		t.Fatalf("commit = (%d, %v), want (1, nil)", ver, err)
	}
	if _, err := tx.Commit([]byte("again")); !errors.Is(err, ErrTxClosed) {
		t.Fatalf("double commit = %v, want ErrTxClosed", err)
	}
	tx.ReleaseHold()

	// Discard rolls back: the committed value stays current.
	tx2, err := r.st.Take(w, "fn", router.StateLocal, "acct")
	if err != nil {
		t.Fatal(err)
	}
	if string(tx2.Bytes()) != "balance=10" || tx2.Version() != 1 {
		t.Fatalf("retake = (%q, v%d), want (balance=10, v1)", tx2.Bytes(), tx2.Version())
	}
	tx2.Discard()
	tx2.ReleaseHold()

	sn, err := r.st.Get(rd, "fn", router.StateLocal, "acct")
	if err != nil {
		t.Fatal(err)
	}
	if string(sn.Bytes()) != "balance=10" || sn.Version() != 1 {
		t.Fatalf("after discard = (%q, v%d), want (balance=10, v1)", sn.Bytes(), sn.Version())
	}
	sn.ReleaseHold()

	if err := r.st.Delete(w, "fn", router.StateLocal, "acct"); err != nil {
		t.Fatal(err)
	}
}

// TestStaleReadWhileTaken: a Get during another invocation's open ownership
// serves the committed (pre-take) version without a grant, and the snapshot
// stays readable across the concurrent Commit.
func TestStaleReadWhileTaken(t *testing.T) {
	r := newRig(t, Config{}, 2)
	w, rd := r.pds[0], r.pds[1]

	if _, err := r.st.Put(w, "", router.StateGlobal, "k", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	tx, err := r.st.Take(w, "", router.StateGlobal, "k")
	if err != nil {
		t.Fatal(err)
	}
	sn, err := r.st.Get(rd, "", router.StateGlobal, "k")
	if err != nil {
		t.Fatal(err)
	}
	if string(sn.Bytes()) != "v1" || sn.Version() != 1 {
		t.Fatalf("stale snapshot = (%q, v%d), want (v1, v1)", sn.Bytes(), sn.Version())
	}
	if _, err := tx.Commit([]byte("v2")); err != nil {
		t.Fatal(err)
	}
	// The old snapshot still reads its version: Commit replaced the backing
	// slice, it never mutates in place.
	if string(sn.Bytes()) != "v1" {
		t.Fatalf("snapshot mutated under reader: %q", sn.Bytes())
	}
	tx.ReleaseHold()
	sn.ReleaseHold()

	st := r.st.StatsSnapshot()
	if st.StaleGets != 1 {
		t.Fatalf("stale_gets = %d, want 1", st.StaleGets)
	}
	if err := r.st.Delete(w, "", router.StateGlobal, "k"); err != nil {
		t.Fatal(err)
	}
}

// TestConflictGetThenTake: an invocation holding a read grant on a key may
// not Take or Put it — the ownership pmove would destroy its own R slot.
func TestConflictGetThenTake(t *testing.T) {
	r := newRig(t, Config{}, 2)
	pd := r.pds[0]

	if _, err := r.st.Put(pd, "fn", router.StateLocal, "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	sn, err := r.st.Get(pd, "fn", router.StateLocal, "k")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.st.Take(pd, "fn", router.StateLocal, "k"); !errors.Is(err, ErrConflict) {
		t.Fatalf("take with own snapshot live = %v, want ErrConflict", err)
	}
	if _, err := r.st.Put(pd, "fn", router.StateLocal, "k", []byte("w")); !errors.Is(err, ErrConflict) {
		t.Fatalf("put with own snapshot live = %v, want ErrConflict", err)
	}
	// A different PD is unaffected.
	if _, err := r.st.Put(r.pds[1], "fn", router.StateLocal, "k", []byte("w")); err != nil {
		t.Fatal(err)
	}
	sn.Release()
	// Released: the same PD may now write.
	if _, err := r.st.Put(pd, "fn", router.StateLocal, "k", []byte("x")); err != nil {
		t.Fatal(err)
	}
	sn.ReleaseHold()
	if err := r.st.Delete(pd, "fn", router.StateLocal, "k"); err != nil {
		t.Fatal(err)
	}
}

func TestCapacity(t *testing.T) {
	r := newRig(t, Config{CapBytes: 10}, 1)
	pd := r.pds[0]

	if _, err := r.st.Put(pd, "", router.StateGlobal, "a", []byte("12345678")); err != nil {
		t.Fatal(err)
	}
	if _, err := r.st.Put(pd, "", router.StateGlobal, "b", []byte("123")); !errors.Is(err, ErrCapacity) {
		t.Fatalf("over-cap put = %v, want ErrCapacity", err)
	}
	// Replacing within the cap is fine (delta accounting, not absolute).
	if _, err := r.st.Put(pd, "", router.StateGlobal, "a", []byte("1234567890")); err != nil {
		t.Fatal(err)
	}
	// A transaction hitting the cap stays open and can commit smaller.
	tx, err := r.st.Take(pd, "", router.StateGlobal, "b")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Commit([]byte("xyz")); !errors.Is(err, ErrCapacity) {
		t.Fatalf("over-cap commit = %v, want ErrCapacity", err)
	}
	if _, err := tx.Commit(nil); err != nil {
		t.Fatalf("empty commit after capacity refusal: %v", err)
	}
	tx.ReleaseHold()

	st := r.st.StatsSnapshot()
	if st.CapacityRefusals != 2 {
		t.Fatalf("capacity_refusals = %d, want 2", st.CapacityRefusals)
	}
	for _, k := range []string{"a", "b"} {
		if err := r.st.Delete(pd, "", router.StateGlobal, k); err != nil {
			t.Fatal(err)
		}
	}
}

func TestDegradedRefusesMutation(t *testing.T) {
	degraded := false
	r := newRig(t, Config{Degraded: func() bool { return degraded }}, 1)
	pd := r.pds[0]

	if _, err := r.st.Put(pd, "", router.StateGlobal, "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	degraded = true
	if _, err := r.st.Put(pd, "", router.StateGlobal, "k", []byte("w")); !errors.Is(err, ErrDegraded) {
		t.Fatalf("degraded put = %v, want ErrDegraded", err)
	}
	if _, err := r.st.Take(pd, "", router.StateGlobal, "k"); !errors.Is(err, ErrDegraded) {
		t.Fatalf("degraded take = %v, want ErrDegraded", err)
	}
	// Reads keep being served in the degraded band.
	sn, err := r.st.Get(pd, "", router.StateGlobal, "k")
	if err != nil {
		t.Fatalf("degraded get = %v, want nil", err)
	}
	sn.ReleaseHold()
	degraded = false
	if r.st.StatsSnapshot().DegradedRefusals != 2 {
		t.Fatalf("degraded_refusals = %d, want 2", r.st.StatsSnapshot().DegradedRefusals)
	}
	if err := r.st.Delete(pd, "", router.StateGlobal, "k"); err != nil {
		t.Fatal(err)
	}
}

// TestPromotionDemotion drives a key across the promotion threshold, checks
// the fast path serves it, then demotes it with a write.
func TestPromotionDemotion(t *testing.T) {
	const threshold = 4
	r := newRig(t, Config{PromoteAfter: threshold}, 2)
	w, rd := r.pds[0], r.pds[1]

	if _, err := r.st.Put(w, "", router.StateGlobal, "hot", []byte("cfg")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < threshold; i++ {
		sn, err := r.st.Get(rd, "", router.StateGlobal, "hot")
		if err != nil {
			t.Fatal(err)
		}
		sn.ReleaseHold()
	}
	st := r.st.StatsSnapshot()
	if st.Promotions != 1 {
		t.Fatalf("promotions = %d after %d reads, want 1", st.Promotions, threshold)
	}

	// Promoted: the next Get is the zero-traffic fast path.
	sn, err := r.st.Get(rd, "", router.StateGlobal, "hot")
	if err != nil {
		t.Fatal(err)
	}
	if string(sn.Bytes()) != "cfg" || sn.Version() != 1 {
		t.Fatalf("fast-path snapshot = (%q, v%d)", sn.Bytes(), sn.Version())
	}
	if got := r.st.StatsSnapshot().FastGets; got != 1 {
		t.Fatalf("fast_gets = %d, want 1", got)
	}

	// A write demotes; the in-flight fast-path snapshot keeps its version.
	if _, err := r.st.Put(w, "", router.StateGlobal, "hot", []byte("cfg2")); err != nil {
		t.Fatal(err)
	}
	if string(sn.Bytes()) != "cfg" {
		t.Fatalf("promoted snapshot mutated under reader: %q", sn.Bytes())
	}
	sn.ReleaseHold()
	if got := r.st.StatsSnapshot().Demotions; got != 1 {
		t.Fatalf("demotions = %d, want 1", got)
	}

	// Post-demotion reads are the granted slow path again and see v2.
	sn2, err := r.st.Get(rd, "", router.StateGlobal, "hot")
	if err != nil {
		t.Fatal(err)
	}
	if string(sn2.Bytes()) != "cfg2" || sn2.Version() != 2 {
		t.Fatalf("post-demotion snapshot = (%q, v%d), want (cfg2, v2)", sn2.Bytes(), sn2.Version())
	}
	sn2.ReleaseHold()
	if err := r.st.Delete(w, "", router.StateGlobal, "hot"); err != nil {
		t.Fatal(err)
	}
}

// TestDeleteWithReadersInFlight: Delete with outstanding snapshots defers
// the VMA free to the last release; the key vanishes from the map at once.
func TestDeleteWithReadersInFlight(t *testing.T) {
	r := newRig(t, Config{}, 2)
	w, rd := r.pds[0], r.pds[1]

	if _, err := r.st.Put(w, "", router.StateGlobal, "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	sn, err := r.st.Get(rd, "", router.StateGlobal, "k")
	if err != nil {
		t.Fatal(err)
	}
	if err := r.st.Delete(w, "", router.StateGlobal, "k"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.st.Get(rd, "", router.StateGlobal, "k"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("get after delete = %v, want ErrNotFound", err)
	}
	// The straggler still reads its immutable alias.
	if string(sn.Bytes()) != "v" {
		t.Fatalf("snapshot after delete = %q", sn.Bytes())
	}
	sn.ReleaseHold() // last ref retires the VMA; rig cleanup verifies idle
}

// TestSamePDDoubleGet: two snapshots from one PD share a single pcopy grant
// (refcounted) and the grant clears only when both release.
func TestSamePDDoubleGet(t *testing.T) {
	r := newRig(t, Config{PromoteAfter: -1}, 2)
	pd := r.pds[0]

	if _, err := r.st.Put(r.pds[1], "", router.StateGlobal, "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	sn1, err := r.st.Get(pd, "", router.StateGlobal, "k")
	if err != nil {
		t.Fatal(err)
	}
	sn2, err := r.st.Get(pd, "", router.StateGlobal, "k")
	if err != nil {
		t.Fatal(err)
	}
	sn1.Release()
	// One release down, the other snapshot must still read under the grant.
	if string(sn2.Bytes()) != "v" {
		t.Fatalf("second snapshot = %q", sn2.Bytes())
	}
	sn1.ReleaseHold()
	sn2.ReleaseHold()
	if err := r.st.Delete(pd, "", router.StateGlobal, "k"); err != nil {
		t.Fatal(err)
	}
}

func TestClosedStore(t *testing.T) {
	tab := pool.NewTable(8)
	st, err := New(Config{}, tab)
	if err != nil {
		t.Fatal(err)
	}
	pd, err := tab.Cget()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Put(pd, "", router.StateGlobal, "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("second close = %v, want nil", err)
	}
	if _, err := st.Take(pd, "", router.StateGlobal, "k"); !errors.Is(err, ErrClosed) {
		t.Fatalf("take after close = %v, want ErrClosed", err)
	}
	if _, err := st.Put(pd, "", router.StateGlobal, "k", nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("put after close = %v, want ErrClosed", err)
	}
	if err := tab.Cput(pd); err != nil {
		t.Fatal(err)
	}
	// Close freed every VMA and returned the store PD.
	if err := tab.VerifyIdle(); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentReadersWriters is the -race workhorse: reader PDs snapshot
// one key without pause while a writer flips it between promoted and
// demoted. The flips are driven in explicit phases — read past
// PromoteAfter, see the promotion; write, see the demotion — so the test
// asserts what the store must do, not what the scheduler happened to
// interleave. Values carry their version so every reader can tell a torn
// or in-place-mutated snapshot, and one snapshot is held across each flip.
func TestConcurrentReadersWriters(t *testing.T) {
	const (
		readers      = 8
		cycles       = 50
		promoteAfter = 16
	)
	r := newRig(t, Config{PromoteAfter: promoteAfter}, readers+2)
	st := r.st
	holder, writer := r.pds[readers], r.pds[readers+1]

	val := func(ver uint64) []byte { return []byte(fmt.Sprintf("v%020d", ver)) }
	// check reads one snapshot to the end; the caller releases it.
	check := func(sn router.StateSnap) error {
		if !bytes.Equal(sn.Bytes(), val(sn.Version())) {
			return fmt.Errorf("torn snapshot: v%d reads %q", sn.Version(), sn.Bytes())
		}
		return nil
	}
	if _, err := st.Put(writer, "", router.StateGlobal, "k", val(1)); err != nil {
		t.Fatal(err)
	}

	var (
		wg   sync.WaitGroup
		stop atomic.Bool
		errs = make(chan error, readers)
	)
	for i := 0; i < readers; i++ {
		pd := r.pds[i]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				sn, err := st.Get(pd, "", router.StateGlobal, "k")
				if err == nil {
					err = check(sn)
					sn.ReleaseHold()
				}
				if err != nil {
					errs <- err
					return
				}
				// On one CPU nothing else would run until this goroutine's
				// time slice ended: hand over after every read, so readers
				// and the phases below interleave read by read.
				runtime.Gosched()
			}
		}()
	}
	fail := func(format string, args ...any) {
		t.Helper()
		stop.Store(true)
		wg.Wait()
		t.Fatalf(format, args...)
	}

	for c := uint64(0); c < cycles; c++ {
		// Read past the threshold: whoever's read was the promoteAfter-th
		// since the last write (ours or a reader's) promoted the key, once.
		for n := 0; n < promoteAfter; n++ {
			sn, err := st.Get(holder, "", router.StateGlobal, "k")
			if err != nil {
				fail("cycle %d: get: %v", c, err)
			}
			err = check(sn)
			sn.ReleaseHold()
			if err != nil {
				fail("cycle %d: %v", c, err)
			}
			runtime.Gosched()
		}
		if got := st.StatsSnapshot(); got.Promotions != c+1 || got.Demotions != c {
			fail("cycle %d, after %d reads: promotions/demotions %d/%d, want %d/%d",
				c, promoteAfter, got.Promotions, got.Demotions, c+1, c)
		}

		// Hold a snapshot of the promoted key across the flip.
		held, err := st.Get(holder, "", router.StateGlobal, "k")
		if err != nil {
			fail("cycle %d: get: %v", c, err)
		}
		// Write: taking the key demotes it; readers meanwhile are served
		// the committed version.
		tx, err := st.Take(writer, "", router.StateGlobal, "k")
		if err != nil {
			fail("cycle %d: take: %v", c, err)
		}
		if got := st.StatsSnapshot(); got.Demotions != c+1 {
			fail("cycle %d, key taken: %d demotions, want %d", c, got.Demotions, c+1)
		}
		runtime.Gosched()
		_, err = tx.Commit(val(tx.Version() + 1))
		tx.ReleaseHold()
		if err != nil {
			fail("cycle %d: commit: %v", c, err)
		}
		runtime.Gosched()

		err = check(held)
		if held.Version() != c+1 {
			err = fmt.Errorf("snapshot held across the write is v%d, want v%d", held.Version(), c+1)
		}
		held.ReleaseHold()
		if err != nil {
			fail("cycle %d: %v", c, err)
		}
	}
	stop.Store(true)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := st.Delete(writer, "", router.StateGlobal, "k"); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentCreateDelete races getOrCreate against Delete on one key.
func TestConcurrentCreateDelete(t *testing.T) {
	const n = 4
	r := newRig(t, Config{}, n)
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		pd := r.pds[i]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 300; j++ {
				if _, err := r.st.Put(pd, "", router.StateGlobal, "churn", []byte("x")); err != nil &&
					!errors.Is(err, ErrTaken) {
					errs <- err
					return
				}
				err := r.st.Delete(pd, "", router.StateGlobal, "churn")
				if err != nil && !errors.Is(err, ErrNotFound) && !errors.Is(err, ErrTaken) {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// Whatever survived the churn, clean it up for the idle check.
	err := r.st.Delete(r.pds[0], "", router.StateGlobal, "churn")
	if err != nil && !errors.Is(err, ErrNotFound) {
		t.Fatal(err)
	}
}
