package privlib

import (
	"errors"
	"testing"

	"jord/internal/mem/vmatable"
	"jord/internal/sim/topo"
	"jord/internal/vlb"
)

func boot(t *testing.T, variant Variant) *Lib {
	t.Helper()
	l, err := Boot(topo.MustMachine(topo.QFlex32()), vlb.DefaultConfig(), variant)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestBootCreatesPrivilegedVMAs(t *testing.T) {
	l := boot(t, PlainList)
	vte, _, ok := l.Table.Lookup(l.TableVA)
	if !ok || !vte.Priv {
		t.Fatal("VMA table must live in a privileged VMA")
	}
	vte, _, ok = l.Table.Lookup(l.PrivHeapVA)
	if !ok || !vte.Priv {
		t.Fatal("PrivLib heap must be privileged")
	}
}

func TestMmapMunmapLifecycle(t *testing.T) {
	l := boot(t, PlainList)
	pd, _, err := l.Cget(0)
	if err != nil {
		t.Fatal(err)
	}
	addr, lat, err := l.Mmap(0, pd, 0x1000, vmatable.PermRW)
	if err != nil {
		t.Fatal(err)
	}
	if lat <= 0 {
		t.Fatal("mmap should cost time")
	}
	// The PD can access its VMA...
	if _, err := l.Access(0, pd, addr, vmatable.PermW, false); err != nil {
		t.Fatalf("owner access: %v", err)
	}
	// ...another PD cannot.
	pd2, _, _ := l.Cget(0)
	if _, err := l.Access(0, pd2, addr, vmatable.PermR, false); err == nil {
		t.Fatal("foreign PD access succeeded")
	}
	if _, err := l.Munmap(0, pd, addr); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Access(0, pd, addr, vmatable.PermR, false); err == nil {
		t.Fatal("access after munmap succeeded")
	}
	// PDs are destroyable once their grants are gone.
	if _, err := l.Cput(0, pd); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Cput(0, pd2); err != nil {
		t.Fatal(err)
	}
}

func TestCputRejectsLiveGrants(t *testing.T) {
	l := boot(t, PlainList)
	pd, _, _ := l.Cget(0)
	addr, _, err := l.Mmap(0, pd, 256, vmatable.PermRW)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Cput(0, pd); err == nil {
		t.Fatal("cput with a live grant succeeded")
	}
	l.Munmap(0, pd, addr)
	if _, err := l.Cput(0, pd); err != nil {
		t.Fatal(err)
	}
}

func TestPmoveTransfersAccess(t *testing.T) {
	l := boot(t, PlainList)
	src, _, _ := l.Cget(0)
	dst, _, _ := l.Cget(0)
	addr, _, err := l.Mmap(0, src, 512, vmatable.PermRW)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Pmove(0, src, addr, dst, vmatable.PermRW); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Access(0, src, addr, vmatable.PermR, false); err == nil {
		t.Fatal("source retained access after pmove")
	}
	if _, err := l.Access(0, dst, addr, vmatable.PermW, false); err != nil {
		t.Fatalf("target access after pmove: %v", err)
	}
	// Grant accounting moved with it: src is now destroyable, dst is not.
	if _, err := l.Cput(0, src); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Cput(0, dst); err == nil {
		t.Fatal("dst destroyable despite holding the moved grant")
	}
}

func TestPcopySharesAccess(t *testing.T) {
	l := boot(t, PlainList)
	src, _, _ := l.Cget(0)
	dst, _, _ := l.Cget(0)
	addr, _, _ := l.Mmap(0, src, 512, vmatable.PermRW)
	if _, err := l.Pcopy(0, src, addr, dst, vmatable.PermR); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Access(0, src, addr, vmatable.PermW, false); err != nil {
		t.Fatal("source lost access after pcopy")
	}
	if _, err := l.Access(0, dst, addr, vmatable.PermR, false); err != nil {
		t.Fatal("target did not gain read access")
	}
	if _, err := l.Access(0, dst, addr, vmatable.PermW, false); err == nil {
		t.Fatal("pcopy amplified permissions")
	}
}

func TestMprotect(t *testing.T) {
	l := boot(t, PlainList)
	pd, _, _ := l.Cget(0)
	addr, _, _ := l.Mmap(0, pd, 256, vmatable.PermRW)
	if _, err := l.Mprotect(0, pd, addr, vmatable.PermR); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Access(0, pd, addr, vmatable.PermW, false); err == nil {
		t.Fatal("write allowed after mprotect to r--")
	}
	if _, err := l.Access(0, pd, addr, vmatable.PermR, false); err != nil {
		t.Fatal("read denied after mprotect to r--")
	}
}

func TestThreatModelForgedAddresses(t *testing.T) {
	// §3.1: attackers forge arbitrary addresses; every such access must
	// fault.
	l := boot(t, PlainList)
	pd, _, _ := l.Cget(0)
	for _, addr := range []uint64{0, 0x1234, 1 << 47, l.Enc.Encode(3, 77)} {
		_, err := l.Access(0, pd, addr, vmatable.PermR, false)
		var f *Fault
		if !errors.As(err, &f) {
			t.Fatalf("forged address %#x: err = %v, want Fault", addr, err)
		}
	}
	// PrivLib state is unreachable.
	_, err := l.Access(0, pd, l.PrivHeapVA, vmatable.PermR, false)
	var f *Fault
	if !errors.As(err, &f) || f.Kind != vmatable.FaultPrivilege {
		t.Fatalf("privlib heap access: %v, want privilege fault", err)
	}
	if _, err := l.Access(0, pd, l.TableVA, vmatable.PermW, false); err == nil {
		t.Fatal("VMA table writable by untrusted code")
	}
	// CSRs and gate bypass.
	if err := l.WriteCSR(0, pd, false); err == nil {
		t.Fatal("CSR write from unprivileged code succeeded")
	}
	if err := l.WriteCSR(0, pd, true); err != nil {
		t.Fatal("CSR write from PrivLib failed")
	}
	if err := l.DirectJumpIntoPrivLib(0, pd); err == nil {
		t.Fatal("gate bypass succeeded")
	}
}

func TestMunmapValidation(t *testing.T) {
	l := boot(t, PlainList)
	pd, _, _ := l.Cget(0)
	pd2, _, _ := l.Cget(0)
	addr, _, _ := l.Mmap(0, pd, 256, vmatable.PermRW)
	if _, err := l.Munmap(0, pd2, addr); err == nil {
		t.Fatal("munmap by non-holder succeeded")
	}
	if _, err := l.Munmap(0, pd, l.TableVA); err == nil {
		t.Fatal("munmap of privileged VMA succeeded")
	}
	if _, err := l.Munmap(0, pd, 0xdead); err == nil {
		t.Fatal("munmap of unmapped address succeeded")
	}
}

func TestPDLifecycleErrors(t *testing.T) {
	l := boot(t, PlainList)
	if _, err := l.Cput(0, vmatable.ExecutorPD); err == nil {
		t.Fatal("destroyed the executor domain")
	}
	if _, err := l.Cput(0, 99); err == nil {
		t.Fatal("destroyed a dead PD")
	}
	if _, err := l.Ccall(0, 99); err == nil {
		t.Fatal("ccall into a dead PD succeeded")
	}
	pd, _, _ := l.Cget(0)
	if _, err := l.Cput(0, pd); err != nil {
		t.Fatal(err)
	}
	// The freed ID goes back on the free list and is reused.
	pd2, _, _ := l.Cget(0)
	if pd2 != pd {
		t.Fatalf("free list not LIFO: got %d, want %d", pd2, pd)
	}
}

func TestVMAAddressReuse(t *testing.T) {
	l := boot(t, PlainList)
	pd, _, _ := l.Cget(0)
	a1, _, _ := l.Mmap(0, pd, 256, vmatable.PermRW)
	l.Munmap(0, pd, a1)
	a2, _, _ := l.Mmap(0, pd, 256, vmatable.PermRW)
	if a1 != a2 {
		t.Fatalf("index free list not reused: %#x vs %#x", a1, a2)
	}
}

func TestNoIsolationBypassesChecks(t *testing.T) {
	l := boot(t, NoIsolation)
	pd, lat, err := l.Cget(0)
	if err != nil || lat != 0 || pd != vmatable.ExecutorPD {
		t.Fatalf("JordNI cget: pd=%d lat=%d err=%v, want 0,0,nil", pd, lat, err)
	}
	addr, _, err := l.Mmap(0, vmatable.ExecutorPD, 256, vmatable.PermR)
	if err != nil {
		t.Fatal(err)
	}
	// Writes with an r-- grant pass: isolation is bypassed.
	if _, err := l.Access(0, 77, addr, vmatable.PermW, false); err != nil {
		t.Fatalf("JordNI permission fault: %v", err)
	}
	// Unmapped addresses still fault (translation is needed regardless).
	if _, err := l.Access(0, 77, l.Enc.Encode(0, 999), vmatable.PermR, false); err == nil {
		t.Fatal("JordNI allowed an unmapped access")
	}
	// Isolation ops are free.
	if lat, err := l.Pmove(0, 1, addr, 2, vmatable.PermR); err != nil || lat != 0 {
		t.Fatalf("JordNI pmove: lat=%d err=%v", lat, err)
	}
	if lat, _ := l.Ccall(0, vmatable.ExecutorPD); lat != 0 {
		t.Fatal("JordNI ccall should be free")
	}
}

func TestBTreeVariantCostsMore(t *testing.T) {
	plain := boot(t, PlainList)
	bt := boot(t, BTree)
	pdP, _, _ := plain.Cget(0)
	pdB, _, _ := bt.Cget(0)
	_, latP, err := plain.Mmap(0, pdP, 4096, vmatable.PermRW)
	if err != nil {
		t.Fatal(err)
	}
	_, latB, err := bt.Mmap(0, pdB, 4096, vmatable.PermRW)
	if err != nil {
		t.Fatal(err)
	}
	if latB <= latP {
		t.Fatalf("B-tree mmap %d should cost more than plain list %d", latB, latP)
	}
	if bt.WalkPenalty() <= 0 {
		t.Fatal("B-tree walk penalty should be positive")
	}
	if plain.WalkPenalty() != 0 {
		t.Fatal("plain list should have no walk penalty")
	}
}

func TestStatsAccumulate(t *testing.T) {
	l := boot(t, PlainList)
	pd, _, _ := l.Cget(0)
	addr, _, _ := l.Mmap(0, pd, 256, vmatable.PermRW)
	l.Mprotect(0, pd, addr, vmatable.PermR)
	l.Munmap(0, pd, addr)
	l.Cput(0, pd)
	for _, op := range []Op{OpCget, OpMmap, OpMprotect, OpMunmap, OpCput} {
		if l.Stats.Ops[op].Count != 1 || l.Stats.Ops[op].Cycles <= 0 {
			t.Errorf("%v: count=%d cycles=%d", op, l.Stats.Ops[op].Count, l.Stats.Ops[op].Cycles)
		}
	}
}

// TestTable4Calibration pins the microbenchmark latencies to the paper's
// Table 4 for both machine models (±1 ns rounding slack).
func TestTable4Calibration(t *testing.T) {
	type row struct {
		name      string
		simNS     float64
		fpgaNS    float64
		tolerance float64
	}
	rows := []row{
		{"VMA update", 16, 33, 1.5},
		{"VMA insertion", 16, 37, 1.5},
		{"VMA deletion", 27, 39, 1.5},
		{"PD creation", 11, 25, 1.5},
		{"PD deletion", 14, 30, 1.5},
		{"PD switching", 12, 22, 1.5},
	}
	measure := func(cfg topo.Config) map[string]float64 {
		l, err := Boot(topo.MustMachine(cfg), vlb.DefaultConfig(), PlainList)
		if err != nil {
			t.Fatal(err)
		}
		out := map[string]float64{}
		pd, latCget, _ := l.Cget(0)
		out["PD creation"] = cfg.CyclesToNS(latCget)
		addr, latMmap, _ := l.Mmap(0, pd, 256, vmatable.PermRW)
		out["VMA insertion"] = cfg.CyclesToNS(latMmap)
		latUpd, _ := l.Mprotect(0, pd, addr, vmatable.PermR)
		out["VMA update"] = cfg.CyclesToNS(latUpd)
		latSwitch, _ := l.Ccall(0, pd)
		out["PD switching"] = cfg.CyclesToNS(latSwitch)
		latDel, _ := l.Munmap(0, pd, addr)
		out["VMA deletion"] = cfg.CyclesToNS(latDel)
		latCput, _ := l.Cput(0, pd)
		out["PD deletion"] = cfg.CyclesToNS(latCput)
		return out
	}
	sim := measure(topo.QFlex32())
	fpga := measure(topo.FPGA2())
	for _, r := range rows {
		if d := sim[r.name] - r.simNS; d > r.tolerance || d < -r.tolerance {
			t.Errorf("simulator %s = %.1f ns, want %.0f ns", r.name, sim[r.name], r.simNS)
		}
		if d := fpga[r.name] - r.fpgaNS; d > r.tolerance || d < -r.tolerance {
			t.Errorf("FPGA %s = %.1f ns, want %.0f ns", r.name, fpga[r.name], r.fpgaNS)
		}
	}
}

// TestIsolationOverheadWithinBudget checks the §6.2 claim that all PD and
// VMA operations complete within 30 ns (simulator) and that one function
// invocation's isolation work stays under 120 ns.
func TestIsolationOverheadWithinBudget(t *testing.T) {
	l := boot(t, PlainList)
	cfg := l.M.Cfg

	// One invocation (Figure 4): cget, 2x mmap (stack+heap), pcopy code,
	// pmove argbuf in, pmove argbuf out, ccall... then teardown.
	pd, lat, _ := l.Cget(0)
	total := lat
	stack, lat, _ := l.Mmap(0, pd, 8192, vmatable.PermRW)
	total += lat
	heap, lat, _ := l.Mmap(0, pd, 4096, vmatable.PermRW)
	total += lat
	// Individual op budget: every op <= 30 ns.
	if ns := cfg.CyclesToNS(total); ns > 90 {
		t.Fatalf("setup ops = %.0f ns, want each <= 30", ns)
	}
	lat, _ = l.Munmap(0, pd, stack)
	total += lat
	lat, _ = l.Munmap(0, pd, heap)
	total += lat
	lat, _ = l.Cput(0, pd)
	total += lat
	if ns := cfg.CyclesToNS(total); ns > 150 {
		t.Fatalf("full isolation lifecycle = %.0f ns, want ~120", ns)
	}
}
