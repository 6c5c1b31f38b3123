package vmatable

import "testing"

// FuzzUnpackVTE feeds arbitrary 64-byte blocks to the VTE parser: no
// panics, and valid entries must survive a pack/unpack round trip.
func FuzzUnpackVTE(f *testing.F) {
	valid := (&VTE{Bound: 4096, Offs: 0x1234}).Pack(7)
	f.Add(valid[:])
	var zero [VTESize]byte
	f.Add(zero[:])
	f.Fuzz(func(t *testing.T, raw []byte) {
		var b [VTESize]byte
		copy(b[:], raw)
		v, ptr, ok := UnpackVTE(b)
		if !ok {
			return
		}
		// Whatever was parsed must re-serialize to a block that parses to
		// the same logical entry (idempotent normal form).
		again, ptr2, ok2 := UnpackVTE(v.Pack(ptr))
		if !ok2 || ptr2 != ptr {
			t.Fatal("repack lost validity or ptr")
		}
		if again.Bound != v.Bound || again.Offs != v.Offs ||
			again.Global != v.Global || again.Priv != v.Priv ||
			again.NumSharers() != v.NumSharers() {
			t.Fatalf("repack drift: %+v vs %+v", again, v)
		}
	})
}

// permModel is the reference the permission record is checked against:
// each PD's own bits, and the G bit's.
type permModel struct {
	own    map[PDID]Perm
	global Perm
}

func (m *permModel) permFor(pd PDID) (Perm, bool) {
	own, ok := m.own[pd]
	return own | m.global, ok || m.global != PermNone
}

// FuzzPermOps drives random sequences of set, clear, pmove, pcopy, promote
// and demote against one permission record and, after every op, checks it
// against permModel: the same refusals, and for every PD the same PermFor
// and Own answers. Ops are 3 bytes: op, PD, and an argument byte that
// carries the second PD and the permission bits.
func FuzzPermOps(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5})
	f.Add([]byte{0, 0, 0, 255, 9, 9})
	// Owner 1 grants reader 2, promotes, demotes; pmove into a holder.
	f.Add([]byte{0, 1, 3 << 3, 3, 1, 2<<3 | 1, 4, 1, 1, 4, 2, 1, 5, 1, 1, 2, 2, 1<<3 | 2})
	// More sharers than the sub-array holds, then revoke some.
	var spill []byte
	for pd := byte(0); pd < SubEntries+6; pd++ {
		spill = append(spill, 0, pd, 1)
	}
	for pd := byte(0); pd < SubEntries+6; pd += 3 {
		spill = append(spill, 1, pd, 0)
	}
	f.Add(spill)
	const pds = SubEntries + 8
	f.Fuzz(func(t *testing.T, ops []byte) {
		var v Perms
		m := permModel{own: map[PDID]Perm{}}
		for i := 0; i+2 < len(ops); i += 3 {
			pd := PDID(ops[i+1]) % pds
			other := PDID(ops[i+2]>>3) % pds
			perm := Perm(ops[i+2]&7) << 1 // any subset of rwx
			var err error
			refuse := false
			switch ops[i] % 6 {
			case 0:
				v.SetPerm(pd, perm)
				m.own[pd] = perm
			case 1:
				_, had := m.own[pd]
				if v.ClearPerm(pd) != had {
					t.Fatalf("op %d: ClearPerm(%d) disagrees with the model", i/3, pd)
				}
				delete(m.own, pd)
			case 2:
				err = v.MovePerm(pd, other, perm)
				if held, _ := m.permFor(pd); !held.Has(perm) {
					refuse = true
				} else {
					delete(m.own, pd)
					m.own[other] |= perm
				}
			case 3:
				err = v.CopyPerm(pd, other, perm)
				if held, _ := m.permFor(pd); !held.Has(perm) {
					refuse = true
				} else {
					m.own[other] |= perm
				}
			case 4:
				err = v.PromoteGlobal(pd, perm)
				if held, _ := m.permFor(pd); !held.Has(perm) {
					refuse = true
				} else {
					m.global |= perm
				}
			case 5:
				err = v.DemoteGlobal(pd, perm)
				if !m.own[pd].Has(perm) {
					refuse = true
				} else {
					m.global &^= perm
				}
			}
			if (err != nil) != refuse {
				t.Fatalf("op %d (%d on PD %d, %v): err = %v, model refuses = %v",
					i/3, ops[i]%6, pd, perm, err, refuse)
			}
			if v.Global != m.global {
				t.Fatalf("op %d: global %v, model %v", i/3, v.Global, m.global)
			}
			for q := PDID(0); q < pds; q++ {
				gotPerm, gotOK := v.PermFor(q)
				wantPerm, wantOK := m.permFor(q)
				if gotPerm != wantPerm || gotOK != wantOK {
					t.Fatalf("op %d: PermFor(%d) = (%v, %v), model (%v, %v)",
						i/3, q, gotPerm, gotOK, wantPerm, wantOK)
				}
				gotOwn, gotHas := v.Own(q)
				wantOwn, wantHas := m.own[q]
				if gotOwn != wantOwn || gotHas != wantHas {
					t.Fatalf("op %d: Own(%d) = (%v, %v), model (%v, %v)",
						i/3, q, gotOwn, gotHas, wantOwn, wantHas)
				}
			}
			if n := v.NumSharers(); n != len(m.own) || n != len(v.Sharers()) {
				t.Fatalf("op %d: %d sharers, %d listed, model %d",
					i/3, n, len(v.Sharers()), len(m.own))
			}
		}
	})
}
