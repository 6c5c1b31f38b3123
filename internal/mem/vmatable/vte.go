// Package vmatable implements Jord's VMA table: the flat, preallocated
// "plain list" of VMA table entries (VTEs) that both PrivLib (software) and
// the VMA table walker (hardware) traverse concurrently (paper §4.1), and
// the VTE structure itself (§4.3, Figure 8). A VTE's permission part — the
// G bit, the per-PD sub-array and its overflow list — is one type, Perms,
// which the live runtime's VMAs (internal/server/pool) hold too, so the
// simulated and live systems check permissions with the same code.
package vmatable

import (
	"encoding/binary"
	"fmt"
	"slices"
)

// Perm is a VMA permission bitmask.
type Perm uint8

const (
	PermNone Perm = 0
	PermR    Perm = 1 << iota
	PermW
	PermX

	PermRW  = PermR | PermW
	PermRX  = PermR | PermX
	PermRWX = PermR | PermW | PermX
)

// Has reports whether p grants every permission in want.
func (p Perm) Has(want Perm) bool { return p&want == want }

// String renders the familiar rwx triplet.
func (p Perm) String() string {
	b := []byte("---")
	if p&PermR != 0 {
		b[0] = 'r'
	}
	if p&PermW != 0 {
		b[1] = 'w'
	}
	if p&PermX != 0 {
		b[2] = 'x'
	}
	return string(b)
}

// PDID identifies a protection domain. The VTE layout reserves 12 bits for
// it, so at most MaxPDs domains exist concurrently. PD 0 is the executor's
// own (trusted) domain.
type PDID uint16

// MaxPDs is the number of protection domain IDs (12-bit field in the VTE
// sub-array).
const MaxPDs = 1 << 12

// SubEntries is the size of the in-VTE PD permission sub-array. The paper
// sizes it at 20 to cover the common case; VMAs with more sharers spill
// into an overflow list reached through the VTE's ptr field.
const SubEntries = 20

// VTESize is the byte size of one VTE: a full cache block, to avoid false
// sharing (§4.3).
const VTESize = 64

// ExecutorPD is the protection domain of trusted runtime code
// (orchestrators, executors, the gateway). It owns all code VMAs and
// ArgBufs between transfers, in the simulator and the live runtime alike.
const ExecutorPD PDID = 0

// PDPerm is one sub-array (or overflow) entry: a protection domain and the
// permission it holds on the VMA.
type PDPerm struct {
	PD   PDID
	Perm Perm
	used bool // a slot revoked to PermNone is distinguishable from a free one
}

// Perms is a VMA's permission record (Figure 8): the G bit with its global
// permission, the inline per-PD sub-array, and the overflow list reached
// through the VTE's ptr field past SubEntries sharers. The simulator's VTE
// and the live runtime's VMA both hold one, so both check permissions with
// the same code. The zero value grants nothing.
//
// The rules:
//   - the G bit adds Global to every PD's own entry;
//   - SetPerm (mmap, mprotect) replaces a PD's bits, while MovePerm and
//     CopyPerm (pmove, pcopy) OR them into the receiver's;
//   - PromoteGlobal requires the promoter to hold the bits and keeps every
//     per-PD grant, so DemoteGlobal restores exactly the pre-promotion view;
//   - DemoteGlobal requires the demoter's own entry to hold the bits.
type Perms struct {
	// Global is the G bit and its attr permission: nonzero grants these
	// bits to every PD.
	Global Perm

	Sub      [SubEntries]PDPerm
	Overflow []PDPerm
}

// VTE is a VMA table entry (Figure 8): the VMA's bound (requested size),
// its physical offset, the P bit, and its permission record.
type VTE struct {
	Bound uint64 // requested VMA size in bytes (<= class size)
	Offs  uint64 // physical base address backing the VMA (52 bits)
	Priv  bool   // P bit: privileged VMA (PrivLib-only)

	Perms
}

// entry returns pd's own slot, or nil if it has none.
func (p *Perms) entry(pd PDID) *PDPerm {
	for i := range p.Sub {
		if p.Sub[i].used && p.Sub[i].PD == pd {
			return &p.Sub[i]
		}
	}
	for i := range p.Overflow {
		if p.Overflow[i].PD == pd {
			return &p.Overflow[i]
		}
	}
	return nil
}

// claim returns pd's slot, taking the first free sub-array slot (or
// spilling to the overflow list) if pd has none yet.
func (p *Perms) claim(pd PDID) *PDPerm {
	free := -1
	for i := range p.Sub {
		if !p.Sub[i].used {
			if free < 0 {
				free = i
			}
		} else if p.Sub[i].PD == pd {
			return &p.Sub[i]
		}
	}
	for i := range p.Overflow {
		if p.Overflow[i].PD == pd {
			return &p.Overflow[i]
		}
	}
	if free >= 0 {
		p.Sub[free] = PDPerm{PD: pd, used: true}
		return &p.Sub[free]
	}
	p.Overflow = append(p.Overflow, PDPerm{PD: pd, used: true})
	return &p.Overflow[len(p.Overflow)-1]
}

// PermFor returns the permission pd holds on this VMA — its own entry plus
// the G bit's — and whether it holds one at all.
func (p *Perms) PermFor(pd PDID) (perm Perm, ok bool) {
	if e := p.entry(pd); e != nil {
		return p.Global | e.Perm, true
	}
	return p.Global, p.Global != PermNone
}

// Own returns the permission pd holds in its own right, ignoring the G bit,
// and whether it has an entry.
func (p *Perms) Own(pd PDID) (perm Perm, ok bool) {
	if e := p.entry(pd); e != nil {
		return e.Perm, true
	}
	return PermNone, false
}

// SetPerm sets pd's own permission to perm, replacing what it held.
func (p *Perms) SetPerm(pd PDID, perm Perm) { p.claim(pd).Perm = perm }

// ClearPerm removes pd's entry entirely. It reports whether pd had one.
func (p *Perms) ClearPerm(pd PDID) bool {
	for i := range p.Sub {
		if p.Sub[i].used && p.Sub[i].PD == pd {
			p.Sub[i] = PDPerm{}
			return true
		}
	}
	for i := range p.Overflow {
		if p.Overflow[i].PD == pd {
			p.Overflow = slices.Delete(p.Overflow, i, i+1)
			return true
		}
	}
	return false
}

// denied is the refusal of an operation needing want from a PD holding
// held.
func denied(held, want Perm) error {
	return fmt.Errorf("holds %v, needs %v", held, want)
}

// MovePerm transfers perm from from to to, removing from's entry (pmove,
// the zero-copy ArgBuf handoff of §3.4). It fails unless from holds perm.
func (p *Perms) MovePerm(from, to PDID, perm Perm) error {
	if have, _ := p.PermFor(from); !have.Has(perm) {
		return denied(have, perm)
	}
	p.ClearPerm(from)
	p.claim(to).Perm |= perm
	return nil
}

// CopyPerm grants perm to to while from keeps its own (pcopy). It fails
// unless from holds perm.
func (p *Perms) CopyPerm(from, to PDID, perm Perm) error {
	if have, _ := p.PermFor(from); !have.Has(perm) {
		return denied(have, perm)
	}
	p.claim(to).Perm |= perm
	return nil
}

// PromoteGlobal sets perm in the G bit, granting it to every PD (promotion
// of a hot read-mostly VMA: readers stop paying sub-array walks and
// per-reader grants). It fails unless from holds perm.
func (p *Perms) PromoteGlobal(from PDID, perm Perm) error {
	if have, _ := p.PermFor(from); !have.Has(perm) {
		return denied(have, perm)
	}
	p.Global |= perm
	return nil
}

// DemoteGlobal clears perm from the G bit (a write is about to happen, so
// the every-PD grant must be revoked). It fails unless from holds perm in
// its own right, not merely through the G bit it is revoking.
func (p *Perms) DemoteGlobal(from PDID, perm Perm) error {
	if own, _ := p.Own(from); !own.Has(perm) {
		return denied(own, perm)
	}
	p.Global &^= perm
	return nil
}

// Sharers returns the PDs holding an entry.
func (p *Perms) Sharers() []PDID {
	var out []PDID
	for i := range p.Sub {
		if p.Sub[i].used {
			out = append(out, p.Sub[i].PD)
		}
	}
	for _, e := range p.Overflow {
		out = append(out, e.PD)
	}
	return out
}

// NumSharers returns the number of PDs holding an entry.
func (p *Perms) NumSharers() int {
	n := len(p.Overflow)
	for i := range p.Sub {
		if p.Sub[i].used {
			n++
		}
	}
	return n
}

// --- Binary layout (Figure 8) ---
//
//	bits   0.. 63  bound
//	bits  64..127  offs (52 bits) | attr "a" (12 bits: valid, G, P, perm)
//	bits 128..191  ptr (overflow list; modelled as an opaque handle)
//	bits 192..511  sub-array: 20 x 16-bit entries [valid|perm(3)|pd(12)]

const (
	attrValid = 1 << 0
	attrG     = 1 << 1
	attrP     = 1 << 2
	attrPermS = 3 // perm occupies attr bits 3..5
	// permShift maps Perm's R/W/X (bits 1..3) onto a 3-bit field.
	permShift = 1
	offsMask  = 1<<52 - 1
)

// Pack serializes the VTE into its 64-byte hardware layout. The overflow
// list is external to the entry; ptr receives the caller-provided handle
// (0 when there is no overflow).
func (v *VTE) Pack(ptr uint64) [VTESize]byte {
	var b [VTESize]byte
	binary.LittleEndian.PutUint64(b[0:], v.Bound)
	attr := uint64(attrValid)
	if v.Global != PermNone {
		attr |= attrG | uint64(v.Global>>permShift)<<attrPermS
	}
	if v.Priv {
		attr |= attrP
	}
	binary.LittleEndian.PutUint64(b[8:], v.Offs&offsMask|attr<<52)
	binary.LittleEndian.PutUint64(b[16:], ptr)
	for i := 0; i < SubEntries; i++ {
		var e uint16
		if v.Sub[i].used {
			e = 1<<15 | uint16(v.Sub[i].Perm>>permShift&7)<<12 | uint16(v.Sub[i].PD)&0xfff
		}
		binary.LittleEndian.PutUint16(b[24+2*i:], e)
	}
	return b
}

// UnpackVTE parses the 64-byte layout back into a VTE (without its
// overflow list) and returns the stored ptr handle. ok is false for an
// invalid (free) entry.
func UnpackVTE(b [VTESize]byte) (v VTE, ptr uint64, ok bool) {
	word1 := binary.LittleEndian.Uint64(b[8:])
	attr := word1 >> 52
	if attr&attrValid == 0 {
		return VTE{}, 0, false
	}
	v.Bound = binary.LittleEndian.Uint64(b[0:])
	v.Offs = word1 & offsMask
	if attr&attrG != 0 {
		v.Global = Perm(attr>>attrPermS&7) << permShift
	}
	v.Priv = attr&attrP != 0
	ptr = binary.LittleEndian.Uint64(b[16:])
	for i := 0; i < SubEntries; i++ {
		e := binary.LittleEndian.Uint16(b[24+2*i:])
		if e&(1<<15) != 0 {
			v.Sub[i] = PDPerm{PD: PDID(e & 0xfff), Perm: Perm(e>>12&7) << permShift, used: true}
		}
	}
	return v, ptr, true
}
