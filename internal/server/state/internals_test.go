package state

import (
	"testing"

	"jord/internal/mem/vmatable"
	"jord/internal/server/pool"
	"jord/internal/server/router"
)

// entryFor returns the live entry behind a global key.
func entryFor(t *testing.T, st *Store, key string) *entry {
	t.Helper()
	k := skey("", router.StateGlobal, key)
	sh := st.shardFor(k)
	sh.mu.RLock()
	e := sh.m[k]
	sh.mu.RUnlock()
	if e == nil {
		t.Fatalf("no entry for %q", key)
	}
	return e
}

// TestGrantSlotsSpill: four reader PDs hold two snapshots each of one key,
// so two of them count their grants past the inline slots. Whatever order
// the snapshots release in, each PD keeps its R grant exactly until its
// own last release — the VMA check faults from then on, never before —
// and the key ends idle.
func TestGrantSlotsSpill(t *testing.T) {
	const readers, perPD = 4, 2
	orders := [][]int{
		{0, 1, 2, 3, 4, 5, 6, 7}, // PD by PD, inline slots first
		{7, 6, 5, 4, 3, 2, 1, 0}, // spilled PDs first
		{0, 2, 4, 6, 1, 3, 5, 7}, // every PD down to one, then out
		{6, 1, 3, 0, 7, 2, 5, 4},
	}
	for _, order := range orders {
		tab := pool.NewTable(readers + 8)
		st, err := New(Config{PromoteAfter: -1}, tab)
		if err != nil {
			t.Fatal(err)
		}
		var pds []pool.PDID
		for i := 0; i < readers+1; i++ {
			pd, err := tab.Cget()
			if err != nil {
				t.Fatal(err)
			}
			pds = append(pds, pd)
		}
		w, rds := pds[0], pds[1:]
		if _, err := st.Put(w, "", router.StateGlobal, "k", []byte("v")); err != nil {
			t.Fatal(err)
		}
		e := entryFor(t, st, "k")

		// Snapshot i belongs to reader i/perPD; take them in PD order so the
		// first two PDs land in the inline slots and the rest spill.
		snaps := make([]router.StateSnap, readers*perPD)
		held := make([]int, readers)
		for i := range snaps {
			if snaps[i], err = st.Get(rds[i/perPD], "", router.StateGlobal, "k"); err != nil {
				t.Fatal(err)
			}
			held[i/perPD]++
		}
		if e.grants.spill == nil {
			t.Fatalf("order %v: %d reader PDs never spilled past the inline slots", order, readers)
		}

		wantFaults := tab.Faults()
		for _, i := range order {
			snaps[i].ReleaseHold()
			held[i/perPD]--
			for j, pd := range rds {
				if got := e.grants.count(pd); got != uint32(held[j]) {
					t.Fatalf("order %v, after releasing %d: PD %d counts %d grants, want %d", order, i, pd, got, held[j])
				}
				err := e.v.Check(pd, vmatable.PermR)
				switch {
				case held[j] > 0 && err != nil:
					t.Fatalf("order %v, after releasing %d: PD %d lost its grant with %d snapshots held: %v", order, i, pd, held[j], err)
				case held[j] == 0 && err == nil:
					t.Fatalf("order %v, after releasing %d: PD %d still reads with no snapshot held", order, i, pd)
				case err != nil:
					wantFaults++
				}
			}
		}
		if n := e.grants.holders(); n != 0 {
			t.Fatalf("order %v: %d PDs still hold grants", order, n)
		}
		if err := st.VerifyIdle(); err != nil {
			t.Fatalf("order %v: %v", order, err)
		}
		if err := st.Close(); err != nil {
			t.Fatalf("order %v: close: %v", order, err)
		}
		for _, pd := range pds {
			if err := tab.Cput(pd); err != nil {
				t.Fatal(err)
			}
		}
		if err := tab.VerifyIdle(); err != nil {
			t.Fatalf("order %v: %v", order, err)
		}
		if n := tab.Faults(); n != wantFaults {
			t.Fatalf("order %v: %d faults, want %d (the checks of released PDs only)", order, n, wantFaults)
		}
	}
}

// TestRetiredVMANotRecycled: an entry's VMA is embedded in the entry, so
// retiring it — at Delete, or at the last release after a Delete — must
// never hand its memory to the VMA recycle pool, where Table.NewVMA would
// give it a second owner.
func TestRetiredVMANotRecycled(t *testing.T) {
	r := newRig(t, Config{PromoteAfter: -1}, 2)
	w, rd := r.pds[0], r.pds[1]
	retired := make(map[*pool.VMA]bool)
	for i := 0; i < 8; i++ {
		key := string(rune('a' + i))
		if _, err := r.st.Put(w, "", router.StateGlobal, key, []byte("v")); err != nil {
			t.Fatal(err)
		}
		retired[&entryFor(t, r.st, key).v] = true
		var sn router.StateSnap
		if i%2 == 1 { // odd keys retire at the straggling reader's release
			var err error
			if sn, err = r.st.Get(rd, "", router.StateGlobal, key); err != nil {
				t.Fatal(err)
			}
		}
		if err := r.st.Delete(w, "", router.StateGlobal, key); err != nil {
			t.Fatal(err)
		}
		if sn != nil {
			sn.ReleaseHold()
		}
	}
	vmas := make([]*pool.VMA, 0, 1000)
	for i := 0; i < cap(vmas); i++ {
		v := r.tab.NewVMA(w, nil, vmatable.PermRW)
		if retired[v] {
			t.Fatalf("NewVMA call %d returned a retired entry's embedded VMA", i)
		}
		vmas = append(vmas, v)
	}
	for _, v := range vmas {
		if err := v.Free(w); err != nil {
			t.Fatal(err)
		}
	}
}
