package vlb

import (
	"jord/internal/mem/vmatable"
	"jord/internal/sim/engine"
	"jord/internal/sim/memmodel"
	"jord/internal/sim/topo"
)

// walkAddrCalcCycles is the VTW's position computation: shift/mask the VA,
// scale by the interleaving function, add the table base. It is a fixed-
// function FSM, so its latency does not scale with the core's IPC — Table 4
// reports identical VMA lookup latency (2 ns) on the simulator and the FPGA
// ("raw hardware latencies are identical between the two models").
const walkAddrCalcCycles = 6

// l1VTELines approximates how many VTE cache lines a core's L1D retains;
// walker fetches within this working set hit L1 (the paper's 2 ns common
// case).
const l1VTELines = 256

// Core bundles one core's translation structures.
type Core struct {
	ID   topo.CoreID
	IVLB *VLB
	DVLB *VLB

	// l1 is an LRU set of VTE addresses resident in this core's L1D.
	l1      map[uint64]int // addr -> LRU tick
	l1tick  int
	l1limit int
}

func newCore(id topo.CoreID, ivlbEntries, dvlbEntries int) *Core {
	return &Core{
		ID:      id,
		IVLB:    NewVLB(ivlbEntries),
		DVLB:    NewVLB(dvlbEntries),
		l1:      make(map[uint64]int),
		l1limit: l1VTELines,
	}
}

func (c *Core) l1Contains(addr uint64) bool {
	_, ok := c.l1[addr]
	return ok
}

func (c *Core) l1Touch(addr uint64) {
	c.l1tick++
	c.l1[addr] = c.l1tick
	if len(c.l1) > c.l1limit {
		// Evict the stalest line.
		var victim uint64
		best := 1 << 62
		for a, tick := range c.l1 {
			if tick < best {
				best = tick
				victim = a
			}
		}
		delete(c.l1, victim)
	}
}

// Config selects VLB sizes (Figure 12's sensitivity knobs).
type Config struct {
	IVLBEntries int
	DVLBEntries int
}

// DefaultConfig is Table 2's 16-entry fully associative I/D-VLBs.
func DefaultConfig() Config { return Config{IVLBEntries: 16, DVLBEntries: 16} }

// Subsystem is the machine-wide translation hardware: per-core VLBs, the
// shared VMA table, and the VTD.
type Subsystem struct {
	M     *topo.Machine
	MM    *memmodel.Model
	Table *vmatable.Table
	VTD   *VTD
	Cores []*Core

	WalkCount uint64 // VTW activations (VLB misses)
}

// NewSubsystem builds the translation hardware for machine m over table t.
func NewSubsystem(m *topo.Machine, mm *memmodel.Model, t *vmatable.Table, cfg Config) *Subsystem {
	s := &Subsystem{
		M:     m,
		MM:    mm,
		Table: t,
		VTD:   NewVTD(mm),
	}
	n := m.Cfg.TotalCores()
	s.Cores = make([]*Core, n)
	for i := 0; i < n; i++ {
		s.Cores[i] = newCore(topo.CoreID(i), cfg.IVLBEntries, cfg.DVLBEntries)
	}
	return s
}

// fetchVTE returns the latency of the walker's single memory access for a
// VTE line, using the VTD's writer tracking to decide between L1 hit,
// cache-to-cache transfer, and LLC hit.
func (s *Subsystem) fetchVTE(c *Core, vteAddr uint64) engine.Time {
	var lat engine.Time
	switch {
	case c.l1Contains(vteAddr):
		lat = s.MM.L1Hit()
	default:
		if owner, ok := s.VTD.LastWriter(vteAddr); ok && owner != c.ID {
			lat = s.MM.RemoteOwnerHit(c.ID, owner, vteAddr/64)
		} else {
			lat = s.MM.LLCHit(c.ID, vteAddr/64)
		}
	}
	c.l1Touch(vteAddr)
	return lat
}

// Walk performs a VTW traversal for (class, index) on core: position
// computation plus one VTE fetch. It registers the core as a VTD sharer
// (the fetch carried the T bit) and fills the chosen VLB. The returned
// VTE is nil when the slot is empty (translation fault).
func (s *Subsystem) Walk(core topo.CoreID, class int, index uint64, instr bool) (engine.Time, *vmatable.VTE) {
	c := s.Cores[core]
	s.WalkCount++
	vteAddr := s.Table.VTEAddr(class, index)
	lat := engine.Time(walkAddrCalcCycles) + s.fetchVTE(c, vteAddr)
	vte := s.Table.Get(class, index)
	if vte == nil {
		return lat, nil
	}
	s.VTD.RegisterSharer(vteAddr, core)
	e := Entry{Class: class, Index: index, VTEAddr: vteAddr, VTE: vte, Priv: vte.Priv}
	if instr {
		c.IVLB.Insert(e)
	} else {
		c.DVLB.Insert(e)
	}
	return lat, vte
}

// Access models one load/store/fetch by a PD on a core: VLB lookup (free
// on a hit — translation overlaps the L1 pipeline), VTW walk on a miss,
// then the permission and privilege checks of §3.2/§4.3.
//
// privileged reports whether the executing code is itself covered by a
// privileged VMA (the instruction stream's P bit); accesses to privileged
// VMAs from unprivileged code fault regardless of PD permissions.
func (s *Subsystem) Access(core topo.CoreID, pd vmatable.PDID, addr uint64, need vmatable.Perm, instr, privileged bool) (engine.Time, vmatable.FaultKind) {
	c := s.Cores[core]
	d, ok := s.Table.Enc.Decode(addr)
	if !ok {
		// Outside the Jord region: the conventional TLB path serves it.
		return 0, vmatable.FaultUnmapped
	}
	buf := c.DVLB
	if instr {
		buf = c.IVLB
	}
	var lat engine.Time
	entry, hit := buf.Lookup(d.Class, d.Index)
	var vte *vmatable.VTE
	if hit {
		vte = entry.VTE
	} else {
		var wlat engine.Time
		wlat, vte = s.Walk(core, d.Class, d.Index, instr)
		lat += wlat
		if vte == nil {
			return lat, vmatable.FaultUnmapped
		}
	}
	if d.Offset >= vte.Bound {
		return lat, vmatable.FaultUnmapped
	}
	if vte.Priv && !privileged {
		return lat, vmatable.FaultPrivilege
	}
	perm, held := vte.PermFor(pd)
	if !held || !perm.Has(need) {
		return lat, vmatable.FaultPermission
	}
	return lat, vmatable.FaultNone
}

// VTEWrite models PrivLib mutating the VTE of (class, index) from core:
// the store itself plus the T-bit shootdown protocol. The VLBs of all
// remote sharers are invalidated; so is the local one (its cached copy is
// stale). It returns the store+shootdown latency and the shootdown
// details for instrumentation.
func (s *Subsystem) VTEWrite(core topo.CoreID, class int, index uint64) (engine.Time, ShootdownResult) {
	vteAddr := s.Table.VTEAddr(class, index)
	c := s.Cores[core]
	res := s.VTD.Shootdown(core, vteAddr, func(victim topo.CoreID) {
		vc := s.Cores[victim]
		vc.IVLB.InvalidateVTE(vteAddr)
		vc.DVLB.InvalidateVTE(vteAddr)
	})
	c.IVLB.InvalidateVTE(vteAddr)
	c.DVLB.InvalidateVTE(vteAddr)
	c.l1Touch(vteAddr)
	return res.Latency, res
}

// VTEWriteGrant models a permission-granting VTE write. Grants are
// monotonic: a remote core's cached copy still makes correct decisions for
// the PDs it is executing (the new PD has never run there), so no remote
// invalidation is needed — only the local copy is refreshed and the line
// is fetched for writing. Revocations and deletions must use VTEWrite.
func (s *Subsystem) VTEWriteGrant(core topo.CoreID, class int, index uint64) engine.Time {
	vteAddr := s.Table.VTEAddr(class, index)
	c := s.Cores[core]
	var lat engine.Time
	if owner, ok := s.VTD.LastWriter(vteAddr); ok && owner != core {
		lat = s.MM.RemoteOwnerHit(core, owner, vteAddr/64)
	} else if c.l1Contains(vteAddr) {
		lat = s.MM.L1Hit()
	} else {
		lat = s.MM.LLCHit(core, vteAddr/64)
	}
	c.IVLB.InvalidateVTE(vteAddr)
	c.DVLB.InvalidateVTE(vteAddr)
	c.l1Touch(vteAddr)
	s.VTD.RecordWriter(vteAddr, core)
	s.VTD.RegisterSharer(vteAddr, core)
	return lat
}

// VTEDelete is VTEWrite for a VMA being destroyed: same shootdown, plus
// the VTD forgets the entry so a reused slot starts clean.
func (s *Subsystem) VTEDelete(core topo.CoreID, class int, index uint64) (engine.Time, ShootdownResult) {
	lat, res := s.VTEWrite(core, class, index)
	s.VTD.Forget(s.Table.VTEAddr(class, index))
	return lat, res
}

// FlushCore drops all VLB state of one core (OS context switch: uatp et
// al. are swapped, cached user translations must go).
func (s *Subsystem) FlushCore(core topo.CoreID) {
	c := s.Cores[core]
	c.IVLB.InvalidateAll()
	c.DVLB.InvalidateAll()
}
