// Package privlib implements PrivLib, Jord's trusted user-level privileged
// library (paper §3.2, §4.4, Table 1). PrivLib is the only code allowed to
// touch the VMA table and the uatp/uatc/ucid CSRs; it manages protection
// domains and VMAs through POSIX-compatible APIs and keeps all protected
// resources on free lists. Untrusted code can reach it only through uatg
// call gates, and every API performs mandatory security policy checks.
//
// Each API returns the virtual-time cost of the call alongside its result.
// Costs are calibrated so the Table 4 microbenchmarks land on the paper's
// numbers for both machine models (see costs.go); dynamic components —
// VLB shootdowns with remote sharers, B-tree rebalancing in the JordBT
// variant, uat_config refills from the OS — are added on top from the
// hardware model.
package privlib

import (
	"fmt"

	"jord/internal/mem/btree"
	"jord/internal/mem/pagetable"
	"jord/internal/mem/physmem"
	"jord/internal/mem/va"
	"jord/internal/mem/vmatable"
	"jord/internal/sim/engine"
	"jord/internal/sim/memmodel"
	"jord/internal/sim/topo"
	"jord/internal/vlb"
)

// Variant selects the system under study (paper §5).
type Variant int

const (
	// PlainList is baseline Jord: PrivLib isolation over the plain-list
	// VMA table.
	PlainList Variant = iota
	// NoIsolation is JordNI: PrivLib still manages VMAs (memory has to
	// come from somewhere) but all isolation operations — PD management,
	// permission transfers, access checks — are bypassed. The insecure
	// upper bound.
	NoIsolation
	// BTree is JordBT: isolation as in Jord, but the VMA table is a
	// B-tree, so walks chase pointers and mutations rebalance.
	BTree
	// MPK models the memory-protection-key approach the paper argues
	// against (§2.2): protection-domain switches are cheap userspace
	// register writes, but only 15 keys exist concurrently, permission
	// changes must be propagated across cores in software (IPIs), and
	// memory allocation still goes through OS page-based VM at
	// microsecond scale.
	MPK
)

func (v Variant) String() string {
	switch v {
	case PlainList:
		return "jord"
	case NoIsolation:
		return "jord-ni"
	case BTree:
		return "jord-bt"
	case MPK:
		return "mpk"
	default:
		return fmt.Sprintf("Variant(%d)", int(v))
	}
}

// MPKKeys is the number of concurrently usable protection keys (x86 MPK:
// 16 keys, one reserved for the default domain).
const MPKKeys = 15

// mpkSwitchNS is a WRPKRU-style userspace permission-register write.
const mpkSwitchNS = 30

// mpkCrossCoreSyncNS is the software cross-core consistency path MPK
// systems need when a domain's view changes while its memory is shared
// with another core (an IPI round trip; §2.2: "they must rely on extra
// software modules to ensure the protection is consistent among all
// cores").
const mpkCrossCoreSyncNS = 1800

// Fault is the hardware fault surfaced to the runtime when untrusted code
// violates the isolation policy (paper §3.1 threat model).
type Fault struct {
	Kind vmatable.FaultKind
	Addr uint64
	PD   vmatable.PDID
}

func (f *Fault) Error() string {
	return fmt.Sprintf("privlib: %v fault at %#x in PD %d", f.Kind, f.Addr, f.PD)
}

// Lib is one worker server's PrivLib instance.
type Lib struct {
	Variant Variant
	Enc     va.Encoding
	M       *topo.Machine
	Sub     *vlb.Subsystem
	Table   *vmatable.Table
	Phys    *physmem.Allocator
	OS      pagetable.OSCosts
	BT      *btree.Tree // parallel timing structure; non-nil iff Variant == BTree

	// PD management (free lists shared among all threads, §4.4).
	pdFree []vmatable.PDID
	pdLive map[vmatable.PDID]bool
	grants map[vmatable.PDID]int // outstanding VMA grants per PD

	// Per-class VMA index allocation.
	idxFree [][]uint64
	idxNext []uint64

	// MPKKeyLimit caps concurrently live PDs in the MPK variant
	// (default MPKKeys; experiments can idealize it away to isolate the
	// key-scarcity effect from the OS-allocation effect).
	MPKKeyLimit int

	// Boot-time privileged VMAs, for demos and tests.
	TableVA    uint64 // the VMA table itself
	PrivHeapVA uint64 // PrivLib's own heap
	PrivCodeVA uint64 // PrivLib's code (uatg entry points live here)

	Stats Stats
}

// Stats aggregates per-operation counts and cycles plus shootdown totals.
type Stats struct {
	Ops             [NumOps]OpStat
	ShootdownCount  uint64
	ShootdownCycles engine.Time
	RefillCount     uint64
	RefillCycles    engine.Time
}

// OpStat is the count/cycle total for one API.
type OpStat struct {
	Count  uint64
	Cycles engine.Time
}

// record tracks one completed call.
func (l *Lib) record(op Op, lat engine.Time) {
	l.Stats.Ops[op].Count++
	l.Stats.Ops[op].Cycles += lat
}

// Boot initializes PrivLib for a machine, mirroring the uat_config
// bootstrap of §4.4: the OS loads PrivLib, initializes the VMA table,
// creates the initial privileged VMAs, and reserves virtual and physical
// memory.
func Boot(m *topo.Machine, vcfg vlb.Config, variant Variant) (*Lib, error) {
	enc := va.Default()
	tableClass, err := enc.ClassFor(vmatable.DefaultTableBytes)
	if err != nil {
		return nil, fmt.Errorf("privlib: table sizing: %w", err)
	}
	tableVA := enc.Encode(tableClass, 0)
	table, err := vmatable.New(enc, tableVA, vmatable.DefaultTableBytes)
	if err != nil {
		return nil, err
	}
	mm := memmodel.New(m)
	l := &Lib{
		Variant: variant,
		Enc:     enc,
		M:       m,
		Sub:     vlb.NewSubsystem(m, mm, table, vcfg),
		Table:   table,
		Phys:    physmem.New(enc, nil),
		OS:      pagetable.OSCosts{Cfg: m.Cfg},
		pdLive:  make(map[vmatable.PDID]bool),
		grants:  make(map[vmatable.PDID]int),
		idxFree: make([][]uint64, enc.NumClasses()),
		idxNext: make([]uint64, enc.NumClasses()),
		TableVA: tableVA,
	}
	if variant == BTree {
		l.BT = btree.New()
	}
	l.MPKKeyLimit = MPKKeys

	// PD free list: all IDs except the reserved executor domain, popped in
	// ascending order.
	l.pdFree = make([]vmatable.PDID, 0, vmatable.MaxPDs-1)
	for id := vmatable.MaxPDs - 1; id >= 1; id-- {
		l.pdFree = append(l.pdFree, vmatable.PDID(id))
	}
	l.pdLive[vmatable.ExecutorPD] = true

	// The VMA table lives in a privileged, global VMA at a fixed position
	// (class tableClass, index 0); reserve that index.
	l.idxNext[tableClass] = 1
	tvte := &vmatable.VTE{
		Bound: vmatable.DefaultTableBytes,
		Priv:  true,
		Perms: vmatable.Perms{Global: vmatable.PermRW},
	}
	pa, _, err := l.Phys.Alloc(tableClass)
	if err != nil {
		return nil, err
	}
	tvte.Offs = pa
	if err := table.Insert(tableClass, 0, tvte); err != nil {
		return nil, err
	}
	l.btInsert(tableClass, 0, tvte)

	// PrivLib's own heap and code: privileged VMAs untrusted code must
	// never read; the code VMA is entered only through uatg gates.
	heapVA, _, err := l.mapInternal(vmatable.ExecutorPD, 1<<20, vmatable.PermRW, true)
	if err != nil {
		return nil, err
	}
	l.PrivHeapVA = heapVA
	codeVA, _, err := l.mapInternal(vmatable.ExecutorPD, 64<<10, vmatable.PermRX, true)
	if err != nil {
		return nil, err
	}
	l.PrivCodeVA = codeVA
	return l, nil
}

// isolated reports whether isolation machinery is active.
func (l *Lib) isolated() bool { return l.Variant != NoIsolation }

// btInsert mirrors a VMA into the B-tree timing structure.
func (l *Lib) btInsert(class int, index uint64, vte *vmatable.VTE) btree.OpStats {
	if l.BT == nil {
		return btree.OpStats{}
	}
	st, err := l.BT.Insert(btree.Entry{
		Base:  l.Enc.Encode(class, index),
		Bound: l.Enc.ClassSize(class), // reserve the whole chunk range
		VTE:   vte,
	})
	if err != nil {
		// The plain-list path already validated; a B-tree failure here is
		// a programming error.
		panic(err)
	}
	return st
}

func (l *Lib) btDelete(class int, index uint64) btree.OpStats {
	if l.BT == nil {
		return btree.OpStats{}
	}
	st, ok := l.BT.Delete(l.Enc.Encode(class, index))
	if !ok {
		panic("privlib: B-tree out of sync with plain list")
	}
	return st
}

// btLookupCost returns the extra walk latency of the B-tree table: the
// walker chases Height pointer levels instead of computing one position
// (the paper's ~20 ns VLB miss penalty vs ~2 ns).
func (l *Lib) btLookupCost() engine.Time {
	if l.BT == nil {
		return 0
	}
	_, st, _ := l.BT.Lookup(l.TableVA) // representative traversal
	return engine.Time(st.NodesVisited) * btNodeFetchCycles
}

// btMutateCost converts B-tree structural work into cycles.
func btMutateCost(st btree.OpStats) engine.Time {
	return engine.Time(st.NodesVisited)*btNodeFetchCycles +
		engine.Time(st.Splits+st.Merges+st.Rotations)*btRebalanceCycles
}

// allocIndex pops a free index for a size class.
func (l *Lib) allocIndex(class int) (uint64, error) {
	if fl := l.idxFree[class]; len(fl) > 0 {
		idx := fl[len(fl)-1]
		l.idxFree[class] = fl[:len(fl)-1]
		return idx, nil
	}
	idx := l.idxNext[class]
	if idx >= l.Table.MaxIndex(class) {
		return 0, fmt.Errorf("privlib: class %d index space exhausted", class)
	}
	l.idxNext[class]++
	return idx, nil
}

func (l *Lib) freeIndex(class int, idx uint64) {
	l.idxFree[class] = append(l.idxFree[class], idx)
}

// LivePDs returns the number of live protection domains, excluding the
// executor domain.
func (l *Lib) LivePDs() int { return len(l.pdLive) - 1 }

// HasFreePDs reports whether a cget can currently succeed. Executors use
// it to stall (rather than fault) when a backlog of suspended functions
// exhausts the PD space — which for the MPK variant is just 15 keys.
func (l *Lib) HasFreePDs() bool {
	if !l.isolated() {
		return true
	}
	if l.Variant == MPK && l.LivePDs() >= l.MPKKeyLimit {
		return false
	}
	return len(l.pdFree) > 0
}

// resolve decodes addr and fetches its VTE, or faults.
func (l *Lib) resolve(addr uint64, pd vmatable.PDID) (*vmatable.VTE, va.Decoded, error) {
	d, ok := l.Enc.Decode(addr)
	if !ok {
		return nil, d, &Fault{Kind: vmatable.FaultUnmapped, Addr: addr, PD: pd}
	}
	vte := l.Table.Get(d.Class, d.Index)
	if vte == nil {
		return nil, d, &Fault{Kind: vmatable.FaultUnmapped, Addr: addr, PD: pd}
	}
	return vte, d, nil
}
