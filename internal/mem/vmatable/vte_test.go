package vmatable

import (
	"testing"
	"testing/quick"
)

func TestPermString(t *testing.T) {
	cases := map[Perm]string{
		PermNone: "---",
		PermR:    "r--",
		PermRW:   "rw-",
		PermRX:   "r-x",
		PermRWX:  "rwx",
	}
	for p, want := range cases {
		if got := p.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", p, got, want)
		}
	}
}

func TestPermHas(t *testing.T) {
	if !PermRW.Has(PermR) || !PermRW.Has(PermW) || !PermRW.Has(PermRW) {
		t.Error("PermRW should include R, W, RW")
	}
	if PermRW.Has(PermX) || PermR.Has(PermW) {
		t.Error("unexpected permission inclusion")
	}
	if !PermR.Has(PermNone) {
		t.Error("every permission includes none")
	}
}

func TestSetGetClearPerm(t *testing.T) {
	v := &VTE{Bound: 128}
	if _, ok := v.PermFor(7); ok {
		t.Fatal("fresh VTE should hold no permissions")
	}
	v.SetPerm(7, PermRW)
	perm, ok := v.PermFor(7)
	if !ok || perm != PermRW {
		t.Fatalf("PermFor(7) = %v,%v, want rw-,true", perm, ok)
	}
	// Update in place.
	v.SetPerm(7, PermR)
	if perm, _ = v.PermFor(7); perm != PermR {
		t.Fatalf("updated perm = %v, want r--", perm)
	}
	if !v.ClearPerm(7) {
		t.Fatal("ClearPerm should report removal")
	}
	if _, ok = v.PermFor(7); ok {
		t.Fatal("cleared PD still visible")
	}
	if v.ClearPerm(7) {
		t.Fatal("double clear should report false")
	}
}

func TestSubArraySpill(t *testing.T) {
	v := &VTE{Bound: 128}
	for i := 0; i < SubEntries; i++ {
		v.SetPerm(PDID(i), PermR)
		if len(v.Overflow) != 0 {
			t.Fatalf("entry %d spilled before sub-array full", i)
		}
	}
	// The 21st sharer goes to the overflow list (paper: "rare cases with
	// more sharers" use the ptr field).
	v.SetPerm(PDID(SubEntries), PermW)
	if len(v.Overflow) != 1 {
		t.Fatal("21st sharer should spill to overflow")
	}
	if v.NumSharers() != SubEntries+1 {
		t.Fatalf("sharers = %d, want %d", v.NumSharers(), SubEntries+1)
	}
	perm, ok := v.PermFor(PDID(SubEntries))
	if !ok || perm != PermW {
		t.Fatal("overflow entry not found")
	}
	// Clearing a sub-array slot frees it for reuse without spill.
	v.ClearPerm(3)
	v.SetPerm(999, PermX)
	if len(v.Overflow) != 1 || v.Sub[3].PD != 999 {
		t.Fatal("freed sub slot should be reused before overflow")
	}
}

func TestMovePerm(t *testing.T) {
	v := &VTE{Bound: 128}
	v.SetPerm(1, PermRW)
	if err := v.MovePerm(1, 2, PermRW); err != nil {
		t.Fatal(err)
	}
	if _, ok := v.PermFor(1); ok {
		t.Fatal("source PD should lose permission after pmove")
	}
	perm, ok := v.PermFor(2)
	if !ok || perm != PermRW {
		t.Fatal("target PD should gain permission after pmove")
	}
	// Moving more than held fails.
	if err := v.MovePerm(2, 3, PermRWX); err == nil {
		t.Fatal("pmove should not amplify permissions")
	}
	// Moving from a PD with nothing fails.
	if err := v.MovePerm(9, 3, PermR); err == nil {
		t.Fatal("pmove from empty PD should fail")
	}
}

func TestCopyPerm(t *testing.T) {
	v := &VTE{Bound: 128}
	v.SetPerm(1, PermRW)
	if err := v.CopyPerm(1, 2, PermR); err != nil {
		t.Fatal(err)
	}
	p1, _ := v.PermFor(1)
	p2, _ := v.PermFor(2)
	if p1 != PermRW || p2 != PermR {
		t.Fatalf("after pcopy: src=%v dst=%v, want rw-/r--", p1, p2)
	}
	if err := v.CopyPerm(2, 3, PermW); err == nil {
		t.Fatal("pcopy should not amplify permissions")
	}
}

func TestPackUnpackRoundTrip(t *testing.T) {
	f := func(bound, offs uint64, priv bool, gp uint8, pds []uint16, perms []uint8) bool {
		v := &VTE{
			Bound: bound,
			Offs:  offs & (1<<52 - 1),
			Priv:  priv,
			Perms: Perms{Global: Perm(gp) & PermRWX},
		}
		n := len(pds)
		if len(perms) < n {
			n = len(perms)
		}
		if n > SubEntries {
			n = SubEntries
		}
		want := map[PDID]Perm{}
		for i := 0; i < n; i++ {
			pd := PDID(pds[i] & 0xfff)
			perm := Perm(perms[i]) & PermRWX
			v.SetPerm(pd, perm)
			want[pd] = perm
		}
		packed := v.Pack(0)
		got, ptr, ok := UnpackVTE(packed)
		if !ok || ptr != 0 {
			return false
		}
		if got.Bound != v.Bound || got.Offs != v.Offs ||
			got.Global != v.Global || got.Priv != v.Priv {
			return false
		}
		for pd, perm := range want {
			if own, ok := got.Own(pd); !ok || own != perm {
				return false
			}
		}
		return got.NumSharers() == v.NumSharers()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestPackIsOneCacheBlock(t *testing.T) {
	v := &VTE{Bound: 4096}
	if len(v.Pack(0)) != 64 {
		t.Fatal("VTE must span exactly one 64B cache block")
	}
}

func TestUnpackInvalidEntry(t *testing.T) {
	var zero [VTESize]byte
	if _, _, ok := UnpackVTE(zero); ok {
		t.Fatal("zeroed entry should be invalid")
	}
}

func TestPackPreservesPtr(t *testing.T) {
	v := &VTE{Bound: 128}
	b := v.Pack(0xdeadbeef)
	_, ptr, ok := UnpackVTE(b)
	if !ok || ptr != 0xdeadbeef {
		t.Fatalf("ptr = %#x ok=%v, want 0xdeadbeef", ptr, ok)
	}
}

func TestPromoteDemoteGlobal(t *testing.T) {
	v := &VTE{Bound: 128}
	v.SetPerm(1, PermRW) // owner
	v.SetPerm(2, PermR)  // reader
	v.SetPerm(3, PermR)  // reader

	// Only a PD holding the bits may promote them.
	if err := v.PromoteGlobal(99, PermR); err == nil {
		t.Fatal("promotion by a PD holding nothing should fail")
	}
	if err := v.PromoteGlobal(1, PermR); err != nil {
		t.Fatal(err)
	}
	// The G bit adds to each PD's own entry: every PD — holder or not —
	// now reads, and the owner keeps its write bit.
	for pd, want := range map[PDID]Perm{1: PermRW, 2: PermR, 3: PermR, 99: PermR} {
		if perm, ok := v.PermFor(pd); !ok || perm != want {
			t.Fatalf("promoted PermFor(%d) = (%v, %v), want (%v, true)", pd, perm, ok, want)
		}
	}
	// Promotion keeps every per-PD grant.
	if n := v.NumSharers(); n != 3 {
		t.Fatalf("sharers after promotion = %d, want 3", n)
	}

	// A PD reading only through the G bit cannot revoke it.
	if err := v.DemoteGlobal(99, PermR); err == nil {
		t.Fatal("demotion by a PD without its own entry should fail")
	}
	if err := v.DemoteGlobal(1, PermR); err != nil {
		t.Fatal(err)
	}
	// Demotion restores the pre-promotion view exactly.
	for pd, want := range map[PDID]Perm{1: PermRW, 2: PermR, 3: PermR} {
		if perm, ok := v.PermFor(pd); !ok || perm != want {
			t.Fatalf("demoted PermFor(%d) = (%v, %v), want (%v, true)", pd, perm, ok, want)
		}
	}
	if _, ok := v.PermFor(99); ok {
		t.Fatal("non-holder still holds a permission after demotion")
	}
}

func TestPromoteGlobalKeepsOverflow(t *testing.T) {
	v := &VTE{Bound: 128}
	// Fill the sub-array and spill readers into the overflow list.
	for i := 0; i < SubEntries+4; i++ {
		v.SetPerm(PDID(i+1), PermR)
	}
	if len(v.Overflow) != 4 {
		t.Fatalf("overflow = %d entries, want 4", len(v.Overflow))
	}
	if err := v.PromoteGlobal(SubEntries+4, PermR); err != nil {
		t.Fatal(err)
	}
	if len(v.Overflow) != 4 || v.NumSharers() != SubEntries+4 {
		t.Fatalf("promotion left %d overflow / %d sharers, want 4 / %d",
			len(v.Overflow), v.NumSharers(), SubEntries+4)
	}
	// The packed form carries the G bit and the global permission.
	u, _, ok := UnpackVTE(v.Pack(0))
	if !ok || u.Global != PermR {
		t.Fatalf("packed/unpacked G bit lost: global=%v", u.Global)
	}
}
