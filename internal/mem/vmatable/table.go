package vmatable

import (
	"fmt"

	"jord/internal/mem/va"
)

// Table is the plain-list VMA table. Entry positions are the pure function
// f(class, index) of §4.1 — an even interleaving of all size classes — so
// the VTE address of any VMA is computable from its base address alone,
// with no extra memory accesses. The table is conceptually preallocated
// and overprovisioned (the paper notes 64 MB covers a million VMAs); this
// model materializes entries lazily but enforces the capacity limit.
type Table struct {
	Enc  va.Encoding
	Base uint64 // VA of the table itself (a privileged VMA)
	Size uint64 // table size in bytes

	entries map[uint64]*VTE // slot -> entry
	live    int
}

// DefaultTableBytes matches the paper's sizing note: 64 MB of VTEs.
const DefaultTableBytes = 64 << 20

// New creates an empty table with the given encoding, base address, and
// byte size.
func New(enc va.Encoding, base, size uint64) (*Table, error) {
	if err := enc.Validate(); err != nil {
		return nil, err
	}
	if size < VTESize {
		return nil, fmt.Errorf("vmatable: table size %d too small", size)
	}
	return &Table{Enc: enc, Base: base, Size: size, entries: make(map[uint64]*VTE)}, nil
}

// Capacity returns the number of VTE slots.
func (t *Table) Capacity() uint64 { return t.Size / VTESize }

// Live returns the number of valid entries.
func (t *Table) Live() int { return t.live }

// Slot computes f(class, index): the plain-list position of a VMA. The
// interleaving places consecutive indexes of one class NumClasses slots
// apart, so all classes share the table evenly.
func (t *Table) Slot(class int, index uint64) uint64 {
	return index*uint64(t.Enc.NumClasses()) + uint64(class)
}

// VTEAddr returns the virtual address of the VTE for (class, index) —
// what the hardware walker computes as A_VTE = A_Base + f(SC, Index).
func (t *Table) VTEAddr(class int, index uint64) uint64 {
	return t.Base + t.Slot(class, index)*VTESize
}

// SlotForVTEAddr inverts VTEAddr; ok is false if addr is not a VTE address
// within the table.
func (t *Table) SlotForVTEAddr(addr uint64) (uint64, bool) {
	if addr < t.Base || addr >= t.Base+t.Size {
		return 0, false
	}
	off := addr - t.Base
	if off%VTESize != 0 {
		return 0, false
	}
	return off / VTESize, true
}

// ContainsVTEAddr reports whether addr falls inside the table region —
// the check the L1D performs against uatp/uatc to tag VTE accesses with
// the T bit.
func (t *Table) ContainsVTEAddr(addr uint64) bool {
	return addr >= t.Base && addr < t.Base+t.Size
}

// MaxIndex returns the highest usable index for a class given both the VA
// format and the table capacity.
func (t *Table) MaxIndex(class int) uint64 {
	byFormat := t.Enc.MaxIndex(class)
	byTable := t.Capacity() / uint64(t.Enc.NumClasses())
	if byTable < byFormat {
		return byTable
	}
	return byFormat
}

// Get returns the entry for (class, index), or nil if the slot is free.
func (t *Table) Get(class int, index uint64) *VTE {
	return t.entries[t.Slot(class, index)]
}

// Insert installs a VTE at (class, index). The slot must be free and
// within both the table capacity and the VA format's index range.
func (t *Table) Insert(class int, index uint64, vte *VTE) error {
	if class < 0 || class >= t.Enc.NumClasses() {
		return fmt.Errorf("vmatable: class %d out of range", class)
	}
	if index >= t.MaxIndex(class) {
		return fmt.Errorf("vmatable: index %d exceeds max %d for class %d",
			index, t.MaxIndex(class), class)
	}
	if vte.Bound == 0 || vte.Bound > t.Enc.ClassSize(class) {
		return fmt.Errorf("vmatable: bound %d invalid for class %d (size %d)",
			vte.Bound, class, t.Enc.ClassSize(class))
	}
	slot := t.Slot(class, index)
	if t.entries[slot] != nil {
		return fmt.Errorf("vmatable: slot for class %d index %d already occupied", class, index)
	}
	t.entries[slot] = vte
	t.live++
	return nil
}

// Remove frees the slot for (class, index) and returns the removed entry,
// or nil if it was already free.
func (t *Table) Remove(class int, index uint64) *VTE {
	slot := t.Slot(class, index)
	vte := t.entries[slot]
	if vte != nil {
		delete(t.entries, slot)
		t.live--
	}
	return vte
}

// Lookup resolves a virtual address to its VMA. It decodes the address,
// fetches the VTE at the computed position, and bound-checks the offset —
// exactly the walk the VTW performs. ok is false when the address is
// outside the Jord region, the slot is empty, or the offset is past the
// VMA's bound.
func (t *Table) Lookup(addr uint64) (vte *VTE, d va.Decoded, ok bool) {
	d, ok = t.Enc.Decode(addr)
	if !ok {
		return nil, d, false
	}
	vte = t.Get(d.Class, d.Index)
	if vte == nil {
		return nil, d, false
	}
	if d.Offset >= vte.Bound {
		return nil, d, false
	}
	return vte, d, true
}

// Translate performs a full translation + permission check for a PD: the
// physical address and whether the access with permission need is allowed.
// faultKind distinguishes unmapped addresses from permission failures.
func (t *Table) Translate(addr uint64, pd PDID, need Perm) (pa uint64, fault FaultKind) {
	vte, d, ok := t.Lookup(addr)
	if !ok {
		return 0, FaultUnmapped
	}
	perm, held := vte.PermFor(pd)
	if !held || !perm.Has(need) {
		return 0, FaultPermission
	}
	return vte.Offs + d.Offset, FaultNone
}

// FaultKind classifies a translation failure.
type FaultKind int

const (
	FaultNone FaultKind = iota
	FaultUnmapped
	FaultPermission
	FaultPrivilege // unprivileged access to a privileged VMA or CSR
	FaultGate      // control flow entered privileged code not via uatg
)

func (k FaultKind) String() string {
	switch k {
	case FaultNone:
		return "none"
	case FaultUnmapped:
		return "unmapped"
	case FaultPermission:
		return "permission"
	case FaultPrivilege:
		return "privilege"
	case FaultGate:
		return "gate"
	default:
		return fmt.Sprintf("FaultKind(%d)", int(k))
	}
}
