package vmatable

import (
	"testing"
	"testing/quick"

	"jord/internal/mem/va"
)

func newTable(t *testing.T) *Table {
	t.Helper()
	tbl, err := New(va.Default(), 0x4000_0000_0000, DefaultTableBytes)
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

func TestCapacityMatchesPaper(t *testing.T) {
	tbl := newTable(t)
	// §4.1: "a 64 MB VMA table can accommodate one million VMAs".
	if tbl.Capacity() != 1<<20 {
		t.Fatalf("capacity = %d, want 1M", tbl.Capacity())
	}
}

func TestSlotInjective(t *testing.T) {
	tbl := newTable(t)
	f := func(c1, c2 uint8, i1, i2 uint32) bool {
		cl1 := int(c1) % 26
		cl2 := int(c2) % 26
		idx1 := uint64(i1) % 1000
		idx2 := uint64(i2) % 1000
		if cl1 == cl2 && idx1 == idx2 {
			return true
		}
		return tbl.Slot(cl1, idx1) != tbl.Slot(cl2, idx2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSlotInterleavesClasses(t *testing.T) {
	tbl := newTable(t)
	// f evenly interleaves: consecutive slots at index 0 are the classes.
	for c := 0; c < 26; c++ {
		if got := tbl.Slot(c, 0); got != uint64(c) {
			t.Fatalf("Slot(%d, 0) = %d, want %d", c, got, c)
		}
	}
	if got := tbl.Slot(0, 1); got != 26 {
		t.Fatalf("Slot(0, 1) = %d, want 26", got)
	}
}

func TestVTEAddrRoundTrip(t *testing.T) {
	tbl := newTable(t)
	f := func(c uint8, idx uint32) bool {
		class := int(c) % 26
		index := uint64(idx) % tbl.MaxIndex(class)
		addr := tbl.VTEAddr(class, index)
		if !tbl.ContainsVTEAddr(addr) {
			return false
		}
		slot, ok := tbl.SlotForVTEAddr(addr)
		return ok && slot == tbl.Slot(class, index)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	if tbl.ContainsVTEAddr(tbl.Base - 1) {
		t.Error("address below table should not be contained")
	}
	if _, ok := tbl.SlotForVTEAddr(tbl.Base + 3); ok {
		t.Error("misaligned address should not resolve to a slot")
	}
}

func TestInsertLookupRemove(t *testing.T) {
	tbl := newTable(t)
	enc := tbl.Enc
	vte := &VTE{Bound: 100, Offs: 0x1000}
	vte.SetPerm(1, PermRW)
	if err := tbl.Insert(0, 5, vte); err != nil {
		t.Fatal(err)
	}
	if tbl.Live() != 1 {
		t.Fatalf("live = %d, want 1", tbl.Live())
	}

	base := enc.Encode(0, 5)
	got, d, ok := tbl.Lookup(base + 42)
	if !ok || got != vte || d.Offset != 42 {
		t.Fatalf("Lookup failed: ok=%v off=%d", ok, d.Offset)
	}
	// Past the bound (but inside the 128B chunk) must miss.
	if _, _, ok := tbl.Lookup(base + 100); ok {
		t.Fatal("lookup past bound should fail")
	}
	// Unmapped neighbour index must miss.
	if _, _, ok := tbl.Lookup(enc.Encode(0, 6)); ok {
		t.Fatal("lookup of unmapped VMA should fail")
	}

	if removed := tbl.Remove(0, 5); removed != vte {
		t.Fatal("Remove returned wrong entry")
	}
	if tbl.Live() != 0 {
		t.Fatalf("live = %d, want 0", tbl.Live())
	}
	if _, _, ok := tbl.Lookup(base); ok {
		t.Fatal("lookup after remove should fail")
	}
	if tbl.Remove(0, 5) != nil {
		t.Fatal("double remove should return nil")
	}
}

func TestInsertValidation(t *testing.T) {
	tbl := newTable(t)
	if err := tbl.Insert(0, 1, &VTE{Bound: 100}); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Insert(0, 1, &VTE{Bound: 100}); err == nil {
		t.Error("double insert should fail")
	}
	if err := tbl.Insert(-1, 0, &VTE{Bound: 1}); err == nil {
		t.Error("negative class should fail")
	}
	if err := tbl.Insert(26, 0, &VTE{Bound: 1}); err == nil {
		t.Error("out-of-range class should fail")
	}
	if err := tbl.Insert(0, 2, &VTE{Bound: 0}); err == nil {
		t.Error("zero bound should fail")
	}
	if err := tbl.Insert(0, 2, &VTE{Bound: 129}); err == nil {
		t.Error("bound above class size should fail")
	}
	if err := tbl.Insert(0, tbl.MaxIndex(0), &VTE{Bound: 1}); err == nil {
		t.Error("index at capacity should fail")
	}
}

func TestTranslate(t *testing.T) {
	tbl := newTable(t)
	vte := &VTE{Bound: 200, Offs: 0x9000}
	vte.SetPerm(3, PermR)
	if err := tbl.Insert(1, 7, vte); err != nil { // 256B class
		t.Fatal(err)
	}
	base := tbl.Enc.Encode(1, 7)

	pa, fault := tbl.Translate(base+10, 3, PermR)
	if fault != FaultNone || pa != 0x9000+10 {
		t.Fatalf("translate: pa=%#x fault=%v", pa, fault)
	}
	// Write with only read permission.
	if _, fault := tbl.Translate(base, 3, PermW); fault != FaultPermission {
		t.Fatalf("write fault = %v, want permission", fault)
	}
	// A PD with no grant at all.
	if _, fault := tbl.Translate(base, 4, PermR); fault != FaultPermission {
		t.Fatalf("foreign PD fault = %v, want permission", fault)
	}
	// Unmapped address.
	if _, fault := tbl.Translate(tbl.Enc.Encode(1, 8), 3, PermR); fault != FaultUnmapped {
		t.Fatal("unmapped address should report FaultUnmapped")
	}
	// Address entirely outside the Jord region.
	if _, fault := tbl.Translate(0x1234, 3, PermR); fault != FaultUnmapped {
		t.Fatal("foreign address should report FaultUnmapped")
	}
	// Global VMA is readable from any PD.
	g := &VTE{Bound: 128, Offs: 0xa000, Perms: Perms{Global: PermRX}}
	if err := tbl.Insert(0, 9, g); err != nil {
		t.Fatal(err)
	}
	if _, fault := tbl.Translate(tbl.Enc.Encode(0, 9), 1234, PermX); fault != FaultNone {
		t.Fatalf("global exec fault = %v, want none", fault)
	}
}

func TestFaultKindString(t *testing.T) {
	for _, k := range []FaultKind{FaultNone, FaultUnmapped, FaultPermission, FaultPrivilege, FaultGate} {
		if k.String() == "" {
			t.Errorf("empty string for fault %d", k)
		}
	}
}

// Property: translation of any in-bound offset returns Offs+offset.
func TestQuickTranslateOffsets(t *testing.T) {
	tbl := newTable(t)
	vte := &VTE{Bound: 4096, Offs: 0x40000}
	vte.SetPerm(1, PermRW)
	if err := tbl.Insert(5, 3, vte); err != nil { // 4KB class
		t.Fatal(err)
	}
	base := tbl.Enc.Encode(5, 3)
	f := func(off uint16) bool {
		o := uint64(off) % 4096
		pa, fault := tbl.Translate(base+o, 1, PermR)
		return fault == FaultNone && pa == 0x40000+o
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
