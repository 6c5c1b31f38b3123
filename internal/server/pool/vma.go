package pool

import (
	"fmt"
	"sync"

	"jord/internal/mem/vmatable"
)

// VMA is a live in-address-space buffer with per-PD permissions — the live
// analogue of a simulated VMA and its VTE. ArgBufs, function code regions,
// and scratch buffers are all VMAs. Every read, write, and permission
// transfer is checked against the caller's protection domain, so a
// function touching a buffer it does not own faults exactly as it would
// under the paper's hardware checks.
//
// Permissions live in vmatable's permission record (Fig. 8) — the same
// inline sub-array, overflow list, and G bit the simulator's VTEs use,
// guarded by mu. An ArgBuf has at most two sharers over its whole life, so
// its permission traffic never leaves the first slots and never allocates.
type VMA struct {
	table *Table
	mu    sync.Mutex
	perms vmatable.Perms
	data  []byte
}

// NewVMA allocates a buffer owned by pd with the given permission
// (PrivLib: mmap into pd). The VMA structure comes from a recycle pool;
// its permission state is always empty on return.
func (t *Table) NewVMA(owner PDID, data []byte, perm Perm) *VMA {
	v := vmaPool.Get().(*VMA)
	t.InitVMA(v, owner, data, perm)
	return v
}

// InitVMA is NewVMA for a VMA embedded by value in a longer-lived
// structure (the state store's entries): it readies v in place, and the
// VMA ends with Retire, never Free.
func (t *Table) InitVMA(v *VMA, owner PDID, data []byte, perm Perm) {
	v.table = t
	v.data = data
	v.perms.SetPerm(owner, perm)
}

// NewGlobalVMA allocates a buffer every PD holds perm on (the VTE G bit) —
// used for function code regions, which all invocation domains execute
// without a per-invocation pcopy/pmove pair.
func (t *Table) NewGlobalVMA(data []byte, perm Perm) *VMA {
	v := vmaPool.Get().(*VMA)
	v.table = t
	v.data = data
	v.perms.Global = perm
	return v
}

var vmaPool = sync.Pool{New: func() any { return new(VMA) }}

// putVMA recycles a VMA structure once no PD references it anymore. The
// data slice is dropped, not reused — readers may still alias it (the
// zero-copy Read contract).
func putVMA(v *VMA) {
	*v = VMA{}
	vmaPool.Put(v)
}

// Free destroys the VMA (the live munmap): owner must be its sole
// remaining sharer and the G bit must be clear, so no other domain can be
// holding a live grant on the storage being retired. On success the
// structure recycles; prior Read aliases stay valid (recycling never
// reuses a data slice).
func (v *VMA) Free(owner PDID) error {
	if err := v.Retire(owner); err != nil {
		return err
	}
	putVMA(v)
	return nil
}

// Retire is Free for an embedded VMA (InitVMA): the same checks, but the
// structure is never recycled — its memory belongs to the structure that
// embeds it, which may outlive the VMA, so handing it out again would
// give two owners one permission record.
func (v *VMA) Retire(owner PDID) error {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.perms.Global != vmatable.PermNone {
		return v.table.fault(&Fault{Op: "free", PD: owner,
			Detail: fmt.Sprintf("VMA still global %v", v.perms.Global)})
	}
	_, owned := v.perms.Own(owner)
	if sharers := v.perms.NumSharers(); !owned || sharers != 1 {
		return v.table.fault(&Fault{Op: "free", PD: owner,
			Detail: fmt.Sprintf("%d sharers, owner held=%v", sharers, owned)})
	}
	return nil
}

// Pmove transfers this VMA's permission from one PD to another, removing
// it from the source (Table 1: pmove — ownership transfer, the zero-copy
// ArgBuf handoff of §3.4).
func (v *VMA) Pmove(from, to PDID, perm Perm) error {
	v.mu.Lock()
	defer v.mu.Unlock()
	if err := v.perms.MovePerm(from, to, perm); err != nil {
		return v.table.fault(&Fault{Op: "pmove", PD: from, Detail: err.Error()})
	}
	return nil
}

// Pcopy grants a copy of this VMA's permission to another PD while the
// source keeps its own (Table 1: pcopy — e.g. sharing a function's code
// region with a fresh invocation PD).
func (v *VMA) Pcopy(from, to PDID, perm Perm) error {
	v.mu.Lock()
	defer v.mu.Unlock()
	if err := v.perms.CopyPerm(from, to, perm); err != nil {
		return v.table.fault(&Fault{Op: "pcopy", PD: from, Detail: err.Error()})
	}
	return nil
}

// PromoteGlobal sets perm in the VMA's G bit, granting it to every PD (the
// VTE G-bit promotion for hot read-mostly objects: subsequent readers pay
// no pcopy, no per-PD slot, and no revocation on release). The promoting PD
// must already hold perm.
func (v *VMA) PromoteGlobal(from PDID, perm Perm) error {
	v.mu.Lock()
	defer v.mu.Unlock()
	if err := v.perms.PromoteGlobal(from, perm); err != nil {
		return v.table.fault(&Fault{Op: "promote", PD: from, Detail: err.Error()})
	}
	return nil
}

// DemoteGlobal clears perm from the VMA's G bit — the revocation a writer
// performs before mutating a promoted object. Per-PD entries are untouched,
// so the owner's own grant survives the demotion. The demoting PD must hold
// perm through its own entry, not merely via the G bit it is revoking.
func (v *VMA) DemoteGlobal(from PDID, perm Perm) error {
	v.mu.Lock()
	defer v.mu.Unlock()
	if err := v.perms.DemoteGlobal(from, perm); err != nil {
		return v.table.fault(&Fault{Op: "demote", PD: from, Detail: err.Error()})
	}
	return nil
}

// Check verifies pd holds want on this VMA (the live stand-in for the
// hardware VLB/VTW permission check on each access).
func (v *VMA) Check(pd PDID, want Perm) error {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.check(pd, want)
}

func (v *VMA) check(pd PDID, want Perm) error {
	if held, _ := v.perms.PermFor(pd); !held.Has(want) {
		op := "access"
		switch want {
		case vmatable.PermR:
			op = "read"
		case vmatable.PermW:
			op = "write"
		case vmatable.PermX, vmatable.PermRX:
			op = "execute"
		}
		return v.table.fault(&Fault{Op: op, PD: pd,
			Detail: fmt.Sprintf("holds %v, needs %v", held, want)})
	}
	return nil
}

// Read returns the buffer contents after a permission check.
//
// Aliasing contract: the returned slice aliases the VMA's storage
// (zero-copy, like the paper's ArgBufs) — it stays valid for the reader
// even after the VMA structure is recycled, because Write replaces the
// backing slice rather than mutating shared bytes in place, and recycling
// never reuses a data slice. Callers must hold
// the permission for as long as they use the contents.
func (v *VMA) Read(pd PDID) ([]byte, error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if err := v.check(pd, vmatable.PermR); err != nil {
		return nil, err
	}
	return v.data, nil
}

// Write replaces the buffer contents after a permission check (a function
// writing its outputs into its ArgBuf before handing it back). The VMA
// takes ownership of data; previous Read aliases keep seeing the old
// contents.
func (v *VMA) Write(pd PDID, data []byte) error {
	v.mu.Lock()
	defer v.mu.Unlock()
	if err := v.check(pd, vmatable.PermW); err != nil {
		return err
	}
	v.data = data
	return nil
}

// Len returns the current payload size in bytes.
func (v *VMA) Len() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return len(v.data)
}
