package privlib

import (
	"fmt"

	"jord/internal/mem/vmatable"
	"jord/internal/sim/engine"
	"jord/internal/sim/topo"
)

// --- VMA management APIs (Table 1) ---

// Mmap allocates a new VMA of at least length bytes with the given
// permission into PD pd, returning its base address and the call's cost.
// POSIX-shaped per Listing 1: mmap(0, len, prot, ...).
func (l *Lib) Mmap(core topo.CoreID, pd vmatable.PDID, length uint64, perm vmatable.Perm) (addr uint64, lat engine.Time, err error) {
	addr, lat, err = l.mapInternal(pd, length, perm, false)
	if err != nil {
		return 0, lat, err
	}
	l.record(OpMmap, lat)
	return addr, lat, nil
}

// mapInternal is Mmap without stats recording, also used at boot for
// privileged VMAs.
func (l *Lib) mapInternal(pd vmatable.PDID, length uint64, perm vmatable.Perm, priv bool) (addr uint64, lat engine.Time, err error) {
	if !l.pdLive[pd] {
		return 0, 0, fmt.Errorf("privlib: mmap into dead PD %d", pd)
	}
	class, err := l.Enc.ClassFor(length)
	if err != nil {
		return 0, 0, err
	}
	idx, err := l.allocIndex(class)
	if err != nil {
		return 0, 0, err
	}
	pa, refilled, err := l.Phys.Alloc(class)
	if err != nil {
		l.freeIndex(class, idx)
		return 0, 0, err
	}
	vte := &vmatable.VTE{Bound: length, Offs: pa, Priv: priv}
	if priv {
		vte.Global = perm
	} else {
		vte.SetPerm(pd, perm)
		l.grants[pd]++
	}
	if err := l.Table.Insert(class, idx, vte); err != nil {
		l.freeIndex(class, idx)
		return 0, 0, err
	}
	btStats := l.btInsert(class, idx, vte)

	lat = l.instrCost(mmapInstr) + mmapHWCycles + btMutateCost(btStats)
	if l.Variant == MPK {
		// MPK does not help allocation: memory still comes from OS
		// page-based VM (§2.2).
		pages := int((length + 4095) / 4096)
		lat = l.OS.MmapCycles(pages)
	}
	if refilled {
		// The uat_config syscall path: ask the OS for more reserved
		// physical memory (paper §4.4).
		refill := l.OS.SyscallCycles() + l.OS.MmapCycles(int(l.Phys.RefillBytes>>12))
		lat += refill
		l.Stats.RefillCount++
		l.Stats.RefillCycles += refill
	}
	return l.Enc.Encode(class, idx), lat, nil
}

// Munmap deallocates the VMA at addr. The caller's PD must hold a grant on
// it (or it must be the executor domain).
func (l *Lib) Munmap(core topo.CoreID, pd vmatable.PDID, addr uint64) (lat engine.Time, err error) {
	vte, d, err := l.resolve(addr, pd)
	if err != nil {
		return 0, err
	}
	if vte.Priv {
		return 0, &Fault{Kind: vmatable.FaultPrivilege, Addr: addr, PD: pd}
	}
	if l.isolated() && pd != vmatable.ExecutorPD {
		if _, held := vte.PermFor(pd); !held {
			return 0, &Fault{Kind: vmatable.FaultPermission, Addr: addr, PD: pd}
		}
	}
	for _, sharer := range vte.Sharers() {
		l.grants[sharer]--
	}
	l.Table.Remove(d.Class, d.Index)
	btStats := l.btDelete(d.Class, d.Index)
	wlat, res := l.Sub.VTEDelete(core, d.Class, d.Index)
	if err := l.Phys.Free(d.Class, vte.Offs); err != nil {
		return 0, err
	}
	l.freeIndex(d.Class, d.Index)

	lat = l.instrCost(munmapInstr) + munmapHW + btMutateCost(btStats)
	if res.Sharers > 0 {
		lat += wlat
		l.Stats.ShootdownCount++
		l.Stats.ShootdownCycles += wlat
	}
	if l.Variant == MPK {
		// OS munmap: syscall, PTE teardown, IPI TLB shootdown.
		pages := int((vte.Bound + 4095) / 4096)
		lat = l.OS.MprotectCycles(pages, l.M.Cfg.TotalCores())
	}
	l.record(OpMunmap, lat)
	return lat, nil
}

// Mprotect changes the permission pd holds on the VMA at addr.
func (l *Lib) Mprotect(core topo.CoreID, pd vmatable.PDID, addr uint64, perm vmatable.Perm) (lat engine.Time, err error) {
	if !l.isolated() {
		return 0, nil // JordNI: permission changes are no-ops
	}
	vte, d, err := l.resolve(addr, pd)
	if err != nil {
		return 0, err
	}
	if vte.Priv {
		return 0, &Fault{Kind: vmatable.FaultPrivilege, Addr: addr, PD: pd}
	}
	old, held := vte.PermFor(pd)
	if !held && pd != vmatable.ExecutorPD {
		return 0, &Fault{Kind: vmatable.FaultPermission, Addr: addr, PD: pd}
	}
	if !held {
		l.grants[pd]++
	}
	vte.SetPerm(pd, perm)
	lat = l.vteUpdate(core, d.Class, d.Index, OpMprotect, perm.Has(old))
	return lat, nil
}

// vteUpdate charges a permission-changing VTE write: instruction work, the
// hardware store path, B-tree penalty, and — for revocations — the remote
// VLB shootdown. Monotonic grants skip the shootdown (grantOnly): remote
// cores' cached copies remain correct for the PDs they execute.
func (l *Lib) vteUpdate(core topo.CoreID, class int, index uint64, op Op, grantOnly bool) engine.Time {
	if l.Variant == MPK {
		// Update the permission register, then synchronize the other
		// cores' view in software.
		lat := l.M.Cfg.NSToCycles(mpkSwitchNS + mpkCrossCoreSyncNS)
		l.record(op, lat)
		return lat
	}
	lat := l.instrCost(updateInstr) + updateHW + l.btLookupCost()
	if grantOnly {
		l.Sub.VTEWriteGrant(core, class, index)
	} else {
		wlat, res := l.Sub.VTEWrite(core, class, index)
		if res.Sharers > 0 {
			lat += wlat
			l.Stats.ShootdownCount++
			l.Stats.ShootdownCycles += wlat
		}
	}
	l.record(op, lat)
	return lat
}

// Pmove atomically moves the permission the current PD holds on addr's VMA
// to PD cid, capped at perm (Table 1: pmove(addr, cid, prot)).
func (l *Lib) Pmove(core topo.CoreID, from vmatable.PDID, addr uint64, to vmatable.PDID, perm vmatable.Perm) (lat engine.Time, err error) {
	if !l.isolated() {
		return 0, nil
	}
	vte, d, err := l.resolve(addr, from)
	if err != nil {
		return 0, err
	}
	if vte.Priv {
		return 0, &Fault{Kind: vmatable.FaultPrivilege, Addr: addr, PD: from}
	}
	if !l.pdLive[to] {
		return 0, fmt.Errorf("privlib: pmove to dead PD %d", to)
	}
	_, toHeld := vte.PermFor(to)
	if err := vte.MovePerm(from, to, perm); err != nil {
		return 0, &Fault{Kind: vmatable.FaultPermission, Addr: addr, PD: from}
	}
	l.grants[from]--
	if !toHeld {
		l.grants[to]++
	}
	// pmove revokes from's permission: stale remote translations must go.
	return l.vteUpdate(core, d.Class, d.Index, OpPmove, false), nil
}

// Pcopy duplicates the permission the current PD holds on addr's VMA to PD
// cid, capped at perm.
func (l *Lib) Pcopy(core topo.CoreID, from vmatable.PDID, addr uint64, to vmatable.PDID, perm vmatable.Perm) (lat engine.Time, err error) {
	if !l.isolated() {
		return 0, nil
	}
	vte, d, err := l.resolve(addr, from)
	if err != nil {
		return 0, err
	}
	if vte.Priv {
		return 0, &Fault{Kind: vmatable.FaultPrivilege, Addr: addr, PD: from}
	}
	if !l.pdLive[to] {
		return 0, fmt.Errorf("privlib: pcopy to dead PD %d", to)
	}
	_, toHeld := vte.PermFor(to)
	if err := vte.CopyPerm(from, to, perm); err != nil {
		return 0, &Fault{Kind: vmatable.FaultPermission, Addr: addr, PD: from}
	}
	if !toHeld {
		l.grants[to]++
	}
	// pcopy only adds permission: a grant-only write, no shootdown.
	return l.vteUpdate(core, d.Class, d.Index, OpPcopy, true), nil
}

// --- PD management APIs (Table 1) ---

// Cget creates a new protection domain.
func (l *Lib) Cget(core topo.CoreID) (pd vmatable.PDID, lat engine.Time, err error) {
	if !l.isolated() {
		return vmatable.ExecutorPD, 0, nil
	}
	if len(l.pdFree) == 0 || (l.Variant == MPK && l.LivePDs() >= l.MPKKeyLimit) {
		return 0, 0, fmt.Errorf("privlib: out of protection domains")
	}
	pd = l.pdFree[len(l.pdFree)-1]
	l.pdFree = l.pdFree[:len(l.pdFree)-1]
	l.pdLive[pd] = true
	lat = l.instrCost(cgetInstr) + cgetHW
	if l.Variant == MPK {
		lat = l.OS.SyscallCycles() // pkey_alloc
	}
	l.record(OpCget, lat)
	return pd, lat, nil
}

// Cput destroys a protection domain. All its VMA grants must have been
// transferred or unmapped first; leaking a grant is a policy violation.
func (l *Lib) Cput(core topo.CoreID, pd vmatable.PDID) (lat engine.Time, err error) {
	if !l.isolated() {
		return 0, nil
	}
	if pd == vmatable.ExecutorPD {
		return 0, fmt.Errorf("privlib: cannot destroy the executor domain")
	}
	if !l.pdLive[pd] {
		return 0, fmt.Errorf("privlib: cput of dead PD %d", pd)
	}
	if l.grants[pd] != 0 {
		return 0, fmt.Errorf("privlib: cput of PD %d with %d live grants", pd, l.grants[pd])
	}
	delete(l.pdLive, pd)
	delete(l.grants, pd)
	l.pdFree = append(l.pdFree, pd)
	lat = l.instrCost(cputInstr) + cputHW
	if l.Variant == MPK {
		lat = l.OS.SyscallCycles() // pkey_free
	}
	l.record(OpCput, lat)
	return lat, nil
}

// Ccall switches the core into PD pd (writes ucid, saves the caller's
// registers, loads the function's). The runtime handles the actual control
// transfer; PrivLib charges and validates.
func (l *Lib) Ccall(core topo.CoreID, pd vmatable.PDID) (lat engine.Time, err error) {
	return l.pdSwitch(core, pd, OpCcall)
}

// Center resumes a previously suspended PD.
func (l *Lib) Center(core topo.CoreID, pd vmatable.PDID) (lat engine.Time, err error) {
	return l.pdSwitch(core, pd, OpCenter)
}

// Cexit suspends the current PD and switches back to the executor.
func (l *Lib) Cexit(core topo.CoreID) (lat engine.Time, err error) {
	return l.pdSwitch(core, vmatable.ExecutorPD, OpCexit)
}

func (l *Lib) pdSwitch(core topo.CoreID, pd vmatable.PDID, op Op) (engine.Time, error) {
	if !l.isolated() {
		return 0, nil
	}
	if !l.pdLive[pd] {
		return 0, fmt.Errorf("privlib: %v into dead PD %d", op, pd)
	}
	lat := l.instrCost(switchInstr) + switchHW
	if l.Variant == MPK {
		lat = l.M.Cfg.NSToCycles(mpkSwitchNS) // WRPKRU
	}
	l.record(op, lat)
	return lat, nil
}

// --- Data path ---

// Access models one memory access by untrusted code running in PD pd:
// translation through the VLB/VTW and the permission check. In the JordNI
// variant the permission check is bypassed but translation still happens
// (memory still lives in VMAs); unmapped addresses fault in every variant.
func (l *Lib) Access(core topo.CoreID, pd vmatable.PDID, addr uint64, need vmatable.Perm, instr bool) (engine.Time, error) {
	preWalks := l.Sub.WalkCount
	lat, fault := l.Sub.Access(core, pd, addr, need, instr, false)
	if l.BT != nil && l.Sub.WalkCount > preWalks {
		// JordBT: the walker chases B-tree nodes instead of computing one
		// plain-list position (~20 ns vs ~2 ns miss penalty, §6.2).
		lat += l.btLookupCost()
	}
	switch {
	case fault == vmatable.FaultNone:
		return lat, nil
	case !l.isolated() && fault == vmatable.FaultPermission:
		return lat, nil // JordNI: isolation bypassed
	default:
		return lat, &Fault{Kind: fault, Addr: addr, PD: pd}
	}
}

// WalkPenalty returns the extra VLB miss latency the table organization
// imposes beyond the plain list (0 for plain list, the pointer-chase cost
// for the B-tree). The runtime adds it per VLB miss.
func (l *Lib) WalkPenalty() engine.Time { return l.btLookupCost() }

// DirectJumpIntoPrivLib models untrusted code transferring control into a
// privileged VMA without passing through a uatg gate: the decoder sees a
// 0->1 transition of the P bit whose first instruction is not uatg and
// raises an invalid instruction fault (§4.3).
func (l *Lib) DirectJumpIntoPrivLib(core topo.CoreID, pd vmatable.PDID) error {
	return &Fault{Kind: vmatable.FaultGate, Addr: l.PrivHeapVA, PD: pd}
}

// WriteCSR models untrusted code executing a CSR instruction on uatp,
// uatc, or ucid: the decoder requires the P bit and marks the instruction
// illegal otherwise (§4.3).
func (l *Lib) WriteCSR(core topo.CoreID, pd vmatable.PDID, privileged bool) error {
	if privileged {
		return nil
	}
	return &Fault{Kind: vmatable.FaultPrivilege, PD: pd}
}
