package vlb

import (
	"testing"

	"jord/internal/mem/va"
	"jord/internal/mem/vmatable"
	"jord/internal/sim/memmodel"
	"jord/internal/sim/topo"
)

func newSubsystem(t *testing.T) *Subsystem {
	t.Helper()
	m := topo.MustMachine(topo.QFlex32())
	mm := memmodel.New(m)
	tbl, err := vmatable.New(va.Default(), 0x4000_0000_0000, vmatable.DefaultTableBytes)
	if err != nil {
		t.Fatal(err)
	}
	return NewSubsystem(m, mm, tbl, DefaultConfig())
}

// install maps a VMA into the table and grants pd permission.
func install(t *testing.T, s *Subsystem, class int, index uint64, pd vmatable.PDID, perm vmatable.Perm) uint64 {
	t.Helper()
	vte := &vmatable.VTE{Bound: s.Table.Enc.ClassSize(class), Offs: 0x100000}
	vte.SetPerm(pd, perm)
	if err := s.Table.Insert(class, index, vte); err != nil {
		t.Fatal(err)
	}
	return s.Table.Enc.Encode(class, index)
}

func TestAccessHitIsFree(t *testing.T) {
	s := newSubsystem(t)
	addr := install(t, s, 0, 1, 5, vmatable.PermRW)

	lat1, fault := s.Access(3, 5, addr, vmatable.PermR, false, false)
	if fault != vmatable.FaultNone {
		t.Fatalf("first access fault: %v", fault)
	}
	if lat1 == 0 {
		t.Fatal("VLB miss should cost a walk")
	}
	lat2, fault := s.Access(3, 5, addr, vmatable.PermR, false, false)
	if fault != vmatable.FaultNone || lat2 != 0 {
		t.Fatalf("VLB hit: lat=%d fault=%v, want 0,none", lat2, fault)
	}
}

func TestWalkCommonCaseMatchesPaper(t *testing.T) {
	s := newSubsystem(t)
	install(t, s, 0, 1, 5, vmatable.PermRW)
	// Warm the L1 with the VTE line (e.g., PrivLib just wrote it).
	s.Cores[3].l1Touch(s.Table.VTEAddr(0, 1))
	lat, vte := s.Walk(3, 0, 1, false)
	if vte == nil {
		t.Fatal("walk missed an installed VMA")
	}
	// §6.2: VMA lookup (the walk) is 2 ns = 8 cycles at 4 GHz when the
	// traversal hits the L1D.
	if got := s.M.Cfg.CyclesToNS(lat); got < 1 || got > 3 {
		t.Fatalf("L1-hit walk = %.1f ns, want ~2 ns", got)
	}
}

func TestAccessPermissionChecks(t *testing.T) {
	s := newSubsystem(t)
	addr := install(t, s, 0, 1, 5, vmatable.PermR)

	if _, fault := s.Access(0, 5, addr, vmatable.PermW, false, false); fault != vmatable.FaultPermission {
		t.Fatalf("write with r-- perm: fault=%v, want permission", fault)
	}
	// A different PD has no grant at all.
	if _, fault := s.Access(0, 9, addr, vmatable.PermR, false, false); fault != vmatable.FaultPermission {
		t.Fatalf("foreign PD: fault=%v, want permission", fault)
	}
	// Unmapped index.
	if _, fault := s.Access(0, 5, s.Table.Enc.Encode(0, 2), vmatable.PermR, false, false); fault != vmatable.FaultUnmapped {
		t.Fatalf("unmapped: fault=%v, want unmapped", fault)
	}
	// Address outside the Jord region entirely.
	if _, fault := s.Access(0, 5, 0x1234, vmatable.PermR, false, false); fault != vmatable.FaultUnmapped {
		t.Fatalf("foreign addr: fault=%v, want unmapped", fault)
	}
}

func TestPrivilegedVMAProtection(t *testing.T) {
	s := newSubsystem(t)
	// A privileged VMA (e.g., the VMA table itself or PrivLib's heap).
	vte := &vmatable.VTE{Bound: 4096, Priv: true, Perms: vmatable.Perms{Global: vmatable.PermRW}}
	if err := s.Table.Insert(5, 1, vte); err != nil {
		t.Fatal(err)
	}
	addr := s.Table.Enc.Encode(5, 1)
	// Untrusted code (P bit clear) faults even though permissions allow.
	if _, fault := s.Access(0, 5, addr, vmatable.PermR, false, false); fault != vmatable.FaultPrivilege {
		t.Fatalf("unprivileged access: fault=%v, want privilege", fault)
	}
	// PrivLib (P bit set) proceeds.
	if _, fault := s.Access(0, 5, addr, vmatable.PermR, false, true); fault != vmatable.FaultNone {
		t.Fatalf("privileged access: fault=%v, want none", fault)
	}
}

func TestBoundCheckInsideChunk(t *testing.T) {
	s := newSubsystem(t)
	vte := &vmatable.VTE{Bound: 100} // 128B chunk, 100B VMA
	vte.SetPerm(5, vmatable.PermRW)
	if err := s.Table.Insert(0, 1, vte); err != nil {
		t.Fatal(err)
	}
	base := s.Table.Enc.Encode(0, 1)
	if _, fault := s.Access(0, 5, base+99, vmatable.PermR, false, false); fault != vmatable.FaultNone {
		t.Fatal("in-bound access faulted")
	}
	if _, fault := s.Access(0, 5, base+100, vmatable.PermR, false, false); fault != vmatable.FaultUnmapped {
		t.Fatal("out-of-bound access within chunk did not fault")
	}
}

func TestShootdownInvalidatesRemoteVLBs(t *testing.T) {
	s := newSubsystem(t)
	addr := install(t, s, 0, 1, 5, vmatable.PermRW)

	// Cores 1, 2, 31 cache the translation.
	for _, c := range []topo.CoreID{1, 2, 31} {
		if _, fault := s.Access(c, 5, addr, vmatable.PermR, false, false); fault != vmatable.FaultNone {
			t.Fatal(fault)
		}
	}
	lat, res := s.VTEWrite(0, 0, 1)
	if res.Sharers != 3 {
		t.Fatalf("shootdown hit %d sharers, want 3", res.Sharers)
	}
	if lat <= s.MM.L1Hit() {
		t.Fatal("remote shootdown should cost more than a local store")
	}
	// All remote VLBs must have dropped the entry: next access walks.
	for _, c := range []topo.CoreID{1, 2, 31} {
		misses := s.Cores[c].DVLB.Misses
		if _, fault := s.Access(c, 5, addr, vmatable.PermR, false, false); fault != vmatable.FaultNone {
			t.Fatal(fault)
		}
		if s.Cores[c].DVLB.Misses != misses+1 {
			t.Fatalf("core %d VLB not invalidated", c)
		}
	}
}

func TestLocalShootdownIsCheap(t *testing.T) {
	s := newSubsystem(t)
	install(t, s, 0, 1, 5, vmatable.PermRW)
	// Writer is the only toucher: write hits its own L1, no traffic.
	s.VTEWrite(4, 0, 1) // first write claims ownership
	lat, res := s.VTEWrite(4, 0, 1)
	if !res.Local {
		t.Fatal("second write by same core should be a local invalidation")
	}
	if lat != s.MM.L1Hit() {
		t.Fatalf("local shootdown = %d cycles, want L1 cost %d", lat, s.MM.L1Hit())
	}
}

func TestShootdownLatencyGatedByFarthestSharer(t *testing.T) {
	m := topo.MustMachine(topo.QFlex32())
	mm := memmodel.New(m)
	tbl, _ := vmatable.New(va.Default(), 0x4000_0000_0000, vmatable.DefaultTableBytes)
	mk := func(sharers []topo.CoreID) (lat, mlat int64) {
		s := NewSubsystem(m, mm, tbl, DefaultConfig())
		vteAddr := tbl.VTEAddr(0, 1)
		for _, c := range sharers {
			s.VTD.RegisterSharer(vteAddr, c)
		}
		res := s.VTD.Shootdown(0, vteAddr, func(topo.CoreID) {})
		return int64(res.Latency), 0
	}
	near, _ := mk([]topo.CoreID{1})
	far, _ := mk([]topo.CoreID{31})
	both, _ := mk([]topo.CoreID{1, 31})
	if !(near < far) {
		t.Fatalf("near=%d far=%d", near, far)
	}
	if both != far {
		t.Fatalf("parallel fanout: both=%d, want farthest-only %d", both, far)
	}
}

func TestVTEDeleteForgetsSharers(t *testing.T) {
	s := newSubsystem(t)
	addr := install(t, s, 0, 1, 5, vmatable.PermRW)
	s.Access(7, 5, addr, vmatable.PermR, false, false)
	s.VTEDelete(0, 0, 1)
	if got := s.VTD.Sharers(s.Table.VTEAddr(0, 1), -1); len(got) != 0 {
		t.Fatalf("sharers after delete = %v, want none", got)
	}
}

func TestFlushCore(t *testing.T) {
	s := newSubsystem(t)
	addr := install(t, s, 0, 1, 5, vmatable.PermRW)
	s.Access(2, 5, addr, vmatable.PermR, false, false)
	s.FlushCore(2)
	if s.Cores[2].DVLB.Len() != 0 {
		t.Fatal("flush left VLB entries")
	}
}

func TestIVLBAndDVLBSeparate(t *testing.T) {
	s := newSubsystem(t)
	// Executable VMA fetched as instruction; data VMA loaded as data.
	code := install(t, s, 0, 1, 5, vmatable.PermRX)
	data := install(t, s, 0, 2, 5, vmatable.PermRW)
	s.Access(0, 5, code, vmatable.PermX, true, false)
	s.Access(0, 5, data, vmatable.PermR, false, false)
	c := s.Cores[0]
	if c.IVLB.Len() != 1 || c.DVLB.Len() != 1 {
		t.Fatalf("IVLB=%d DVLB=%d, want 1,1", c.IVLB.Len(), c.DVLB.Len())
	}
}

func TestVLBThrashingWithOneEntry(t *testing.T) {
	m := topo.MustMachine(topo.QFlex32())
	mm := memmodel.New(m)
	tbl, _ := vmatable.New(va.Default(), 0x4000_0000_0000, vmatable.DefaultTableBytes)
	s := NewSubsystem(m, mm, tbl, Config{IVLBEntries: 1, DVLBEntries: 1})
	a1 := install(t, s, 0, 1, 5, vmatable.PermRW)
	a2 := install(t, s, 0, 2, 5, vmatable.PermRW)
	// Alternate: every access misses after the first pair.
	start := s.WalkCount
	for i := 0; i < 10; i++ {
		s.Access(0, 5, a1, vmatable.PermR, false, false)
		s.Access(0, 5, a2, vmatable.PermR, false, false)
	}
	walks := s.WalkCount - start
	if walks != 20 {
		t.Fatalf("1-entry D-VLB alternating walks = %d, want 20 (full thrash)", walks)
	}
}
