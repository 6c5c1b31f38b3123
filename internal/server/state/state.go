// Package state is the live runtime's in-address-space shared-state tier:
// a two-tier (function-local / node-global) key-value store whose values
// live in VMAs and are reached only through the paper's permission model.
//
// Every committed value rests in one VMA owned by the store's dedicated
// protection domain (StatePD). Readers get zero-copy snapshots: Get pcopies
// an R grant onto the invocation's PD and hands back an alias of the
// committed bytes (Table 1: pcopy). Writers take exclusive ownership: Take
// pmoves the VMA RW into the invocation's PD, and Commit pmoves it back
// with the next version (Table 1: pmove — the same ownership-transfer
// mechanism as the ArgBuf handoff of §3.4). Hot read-mostly keys promote to
// global-RO mappings — the Fig. 8 VTE G bit — after which readers pay zero
// permission traffic and zero copies: the snapshot fast path is one atomic
// pointer load.
//
// Consistency follows Faasm's two-tier sharing shape and Groundhog's
// rollback discipline: snapshots are immutable (writers replace the backing
// bytes, never mutate them), a key has at most one owner at a time, and an
// abandoned ownership (body returned, panicked, or was killed with the
// transaction open) simply pmoves back — the committed value was untouched,
// so rollback is free by construction.
package state

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"jord/internal/mem/vmatable"
	"jord/internal/server/pool"
	"jord/internal/server/router"
)

// Store errors. The gateway maps ErrDegraded like the pool's shed signal
// (429 Retry-After); the rest surface as function errors.
var (
	// ErrNotFound means the key does not exist in the addressed tier.
	ErrNotFound = errors.New("state: key not found")
	// ErrTaken means another invocation currently owns the key via Take.
	ErrTaken = errors.New("state: key taken by another invocation")
	// ErrTxClosed means Commit was called on an already-ended transaction.
	ErrTxClosed = errors.New("state: transaction already committed or discarded")
	// ErrCapacity means the write would push the store past its byte cap.
	ErrCapacity = errors.New("state: store capacity exceeded")
	// ErrDegraded means a mutating operation was refused because the worker
	// is shedding load (the pool's free-PD supply is inside the tiered-
	// shedding band): state growth degrades with external admission, reads
	// keep being served.
	ErrDegraded = errors.New("state: degraded: worker is shedding load")
	// ErrConflict means an invocation tried to Take or Put a key while
	// itself holding a read snapshot of that key — release the snapshot
	// first (the ownership pmove would destroy the PD's read grant and the
	// later snapshot release would fault).
	ErrConflict = errors.New("state: take/put while holding a read snapshot of the same key")
	// ErrClosed means the store has been shut down.
	ErrClosed = errors.New("state: store closed")
)

// Config sizes one store.
type Config struct {
	// CapBytes caps the total committed value bytes across both tiers.
	// A write that would exceed it fails with ErrCapacity. 0 defaults to
	// 64 MiB; < 0 removes the cap.
	CapBytes int64

	// PromoteAfter is the reads-since-last-write threshold at which a key
	// is promoted to a global-RO mapping (the VTE G bit): past it, Get
	// serves snapshots with zero permission traffic until the next write
	// demotes the key. 0 defaults to 64; < 0 disables promotion.
	PromoteAfter int

	// Degraded, when set, is consulted before every mutating operation
	// (Take, Put, create); returning true refuses it with ErrDegraded.
	// The server wires this to the pool's tiered-shedding band so state
	// growth tightens exactly when external admission does. Must be fast
	// and non-blocking.
	Degraded func() bool
}

func (c *Config) normalize() {
	if c.CapBytes == 0 {
		c.CapBytes = 64 << 20
	}
	if c.PromoteAfter == 0 {
		c.PromoteAfter = 64
	}
}

// mapKey addresses one value: fn is the owning function's name for the
// local tier, "" for the global tier. A struct key keeps lookups
// allocation-free.
type mapKey struct {
	fn  string
	key string
}

// pub is the published face of a globally promoted key: an immutable
// (bytes, version) pair readers load with one atomic pointer load. Writers
// unpublish (nil) before demoting.
type pub struct {
	bytes   []byte
	version uint64
}

// entry is one key's state, in one heap object: the value VMA is embedded
// by value and the read grants are counted inline. The VMA is readied at
// entry creation and retired (never recycled) when the entry dies; commits
// replace its contents in place (VMA.Write swaps the backing slice), so
// snapshot aliases handed out earlier keep reading the version they saw.
type entry struct {
	mu sync.Mutex

	v       pool.VMA
	bytes   []byte // committed contents (alias of what v holds)
	version uint64

	taken   bool      // exclusive owner exists
	takenBy pool.PDID // the owner (diagnostics)
	refs    int       // outstanding handles: granted snapshots + open tx
	reads   int       // snapshot reads since last write (promotion trigger)
	grants  grantSet  // outstanding pcopy R grants per reader PD

	promoted bool // G bit set on v
	dead     bool // deleted; VMA retired when refs drains to 0

	// published is non-nil while the key is globally promoted — the Get
	// fast path. Swung to nil (before the G-bit demotion) by any write.
	published atomic.Pointer[pub]
}

// grantSet counts the outstanding pcopy R grants per reader PD. Two
// inline (PD, count) slots cover a key read by one or two invocations at
// a time; a third concurrent reader PD spills to a map. A PD is counted
// in exactly one place. Guarded by the entry's mutex.
type grantSet struct {
	pd    [2]pool.PDID
	n     [2]uint32 // 0 marks a free slot
	spill map[pool.PDID]uint32
}

// count returns pd's outstanding grants.
func (g *grantSet) count(pd pool.PDID) uint32 {
	for i := range g.pd {
		if g.n[i] != 0 && g.pd[i] == pd {
			return g.n[i]
		}
	}
	return g.spill[pd]
}

// add counts one more grant for pd.
func (g *grantSet) add(pd pool.PDID) {
	free := -1
	for i := range g.pd {
		switch {
		case g.n[i] == 0:
			if free < 0 {
				free = i
			}
		case g.pd[i] == pd:
			g.n[i]++
			return
		}
	}
	if n, ok := g.spill[pd]; ok {
		g.spill[pd] = n + 1
		return
	}
	if free >= 0 {
		g.pd[free], g.n[free] = pd, 1
		return
	}
	if g.spill == nil {
		g.spill = make(map[pool.PDID]uint32, 2)
	}
	g.spill[pd] = 1
}

// sub drops one of pd's grants, which must exist, and reports whether it
// was pd's last.
func (g *grantSet) sub(pd pool.PDID) (last bool) {
	for i := range g.pd {
		if g.n[i] != 0 && g.pd[i] == pd {
			g.n[i]--
			return g.n[i] == 0
		}
	}
	n := g.spill[pd] - 1
	if n == 0 {
		delete(g.spill, pd)
		return true
	}
	g.spill[pd] = n
	return false
}

// holders returns how many PDs hold grants.
func (g *grantSet) holders() int {
	n := len(g.spill)
	for _, c := range g.n {
		if c != 0 {
			n++
		}
	}
	return n
}

const numShards = 16

type shard struct {
	mu sync.RWMutex
	m  map[mapKey]*entry
}

// Store is the shared-state tier: sharded key → entry maps over VMAs owned
// by a dedicated protection domain. It implements pool.StateBackend.
type Store struct {
	cfg Config
	tab *pool.Table
	pd  pool.PDID // StatePD: owns every value VMA at rest

	shards [numShards]shard

	entries     atomic.Int64
	bytes       atomic.Int64
	outstanding atomic.Int64 // granted snapshots + open transactions

	gets        atomic.Uint64
	fastGets    atomic.Uint64 // served off the global-RO published pointer
	staleGets   atomic.Uint64 // served while the key was taken
	takes       atomic.Uint64
	commits     atomic.Uint64
	discards    atomic.Uint64
	puts        atomic.Uint64
	creates     atomic.Uint64
	deletes     atomic.Uint64
	promotions  atomic.Uint64
	demotions   atomic.Uint64
	copyAvoided atomic.Uint64 // bytes handed out as aliases a copying store would have memcpy'd
	degradedRef atomic.Uint64
	capacityRef atomic.Uint64

	closed atomic.Bool
}

var _ pool.StateBackend = (*Store)(nil)

// New builds a store over the pool's PD table, allocating its dedicated
// protection domain (one cget against the shared PD space — the store is a
// resident of the same address space as the functions it serves).
func New(cfg Config, tab *pool.Table) (*Store, error) {
	cfg.normalize()
	pd, err := tab.Cget()
	if err != nil {
		return nil, fmt.Errorf("state: allocating store PD: %w", err)
	}
	s := &Store{cfg: cfg, tab: tab, pd: pd}
	for i := range s.shards {
		s.shards[i].m = make(map[mapKey]*entry)
	}
	return s, nil
}

// PD returns the store's protection domain (tests, diagnostics).
func (s *Store) PD() pool.PDID { return s.pd }

// skey maps (fn, scope, key) onto the store key: the local tier namespaces
// by function name, the global tier by the empty name (no registered
// function has an empty name, so the tiers cannot collide).
func skey(fn string, scope router.StateScope, key string) mapKey {
	if scope == router.StateGlobal {
		return mapKey{key: key}
	}
	return mapKey{fn: fn, key: key}
}

// shardFor picks the shard by FNV-1a over both key components.
func (s *Store) shardFor(k mapKey) *shard {
	h := uint64(14695981039346656037)
	for i := 0; i < len(k.fn); i++ {
		h = (h ^ uint64(k.fn[i])) * 1099511628211
	}
	h = (h ^ 0xff) * 1099511628211 // separator: ("ab","c") != ("a","bc")
	for i := 0; i < len(k.key); i++ {
		h = (h ^ uint64(k.key[i])) * 1099511628211
	}
	return &s.shards[h%numShards]
}

// Get returns a read snapshot of key for the invocation running in pd.
//
// Fast path (globally promoted key): one atomic pointer load, no lock, no
// permission traffic, no copy, no allocation — the VTE G bit already
// grants every PD read access.
//
// Slow path: pcopy an R grant onto pd and hand out an alias of the
// committed bytes. If the key is currently taken by a writer, the snapshot
// is served from the committed (pre-take) version without a grant — the
// committed bytes are immutable, so the alias is safe without a
// per-reader permission entry.
func (s *Store) Get(pd pool.PDID, fn string, scope router.StateScope, key string) (router.StateSnap, error) {
	k := skey(fn, scope, key)
	sh := s.shardFor(k)
	sh.mu.RLock()
	e := sh.m[k]
	sh.mu.RUnlock()
	if e == nil {
		return nil, ErrNotFound
	}
	s.gets.Add(1)
	if p := e.published.Load(); p != nil {
		s.fastGets.Add(1)
		s.copyAvoided.Add(uint64(len(p.bytes)))
		sn := getSnap()
		sn.store, sn.entry, sn.pd = s, e, pd
		sn.bytes, sn.version = p.bytes, p.version
		return sn, nil
	}
	e.mu.Lock()
	if e.dead {
		e.mu.Unlock()
		return nil, ErrNotFound
	}
	if e.taken {
		// Stale-while-written: serve the committed version. No grant — the
		// store vouches for the alias (committed bytes are never mutated in
		// place), exactly like the published fast path but per-request.
		sn := getSnap()
		sn.store, sn.entry, sn.pd = s, e, pd
		sn.bytes, sn.version = e.bytes, e.version
		s.staleGets.Add(1)
		s.copyAvoided.Add(uint64(len(e.bytes)))
		e.mu.Unlock()
		return sn, nil
	}
	first := e.grants.count(pd) == 0
	if first {
		if err := e.v.Pcopy(s.pd, pd, vmatable.PermR); err != nil {
			e.mu.Unlock()
			return nil, err
		}
	}
	b, err := e.v.Read(pd) // the checked read the grant exists for
	if err != nil {
		if first {
			_ = e.v.Pmove(pd, s.pd, vmatable.PermR)
		}
		e.mu.Unlock()
		return nil, err
	}
	e.grants.add(pd)
	e.refs++
	e.reads++
	if s.cfg.PromoteAfter > 0 && !e.promoted && e.reads >= s.cfg.PromoteAfter {
		// Hot read-mostly key: set the G bit so every later reader pays
		// nothing, and publish the (bytes, version) pair the fast path
		// serves. Demoted again by the next write.
		if e.v.PromoteGlobal(s.pd, vmatable.PermR) == nil {
			e.promoted = true
			e.published.Store(&pub{bytes: e.bytes, version: e.version})
			s.promotions.Add(1)
		}
	}
	ver := e.version
	e.mu.Unlock()
	s.outstanding.Add(1)
	s.copyAvoided.Add(uint64(len(b)))
	sn := getSnap()
	sn.store, sn.entry, sn.pd = s, e, pd
	sn.bytes, sn.version = b, ver
	sn.granted = true
	return sn, nil
}

// getOrCreate finds or creates the entry for k and returns it with its
// mutex HELD. created reports a fresh (empty, version 0) entry.
func (s *Store) getOrCreate(k mapKey) (e *entry, created bool) {
	sh := s.shardFor(k)
	for {
		sh.mu.RLock()
		e = sh.m[k]
		sh.mu.RUnlock()
		if e == nil {
			sh.mu.Lock()
			if e = sh.m[k]; e == nil {
				e = &entry{}
				s.tab.InitVMA(&e.v, s.pd, nil, vmatable.PermRW)
				e.mu.Lock()
				sh.m[k] = e
				sh.mu.Unlock()
				s.entries.Add(1)
				return e, true
			}
			sh.mu.Unlock()
		}
		e.mu.Lock()
		if !e.dead {
			return e, false
		}
		e.mu.Unlock() // lost to a concurrent Delete; retry
	}
}

// demoteLocked clears a key's global promotion ahead of a write: unpublish
// first (fast-path readers stop seeing the old pointer), then clear the G
// bit. Readers that loaded the pointer just before the swing keep their
// (immutable, now previous-version) snapshot — the same staleness window
// the taken path has. Caller holds e.mu.
func (s *Store) demoteLocked(e *entry) {
	if !e.promoted {
		return
	}
	e.published.Store(nil)
	_ = e.v.DemoteGlobal(s.pd, vmatable.PermR)
	e.promoted = false
	s.demotions.Add(1)
}

// Take acquires exclusive write ownership of key for the invocation in pd,
// creating the key empty (version 0) if absent. The value VMA pmoves RW
// into pd; it returns to the store at Commit or Discard. A key has at most
// one owner: a concurrent Take fails with ErrTaken rather than blocking
// (the store never parks an executor's runner on state contention).
func (s *Store) Take(pd pool.PDID, fn string, scope router.StateScope, key string) (router.StateTx, error) {
	if s.closed.Load() {
		return nil, ErrClosed
	}
	if d := s.cfg.Degraded; d != nil && d() {
		s.degradedRef.Add(1)
		return nil, ErrDegraded
	}
	e, created := s.getOrCreate(skey(fn, scope, key))
	// e.mu held.
	if e.taken {
		e.mu.Unlock()
		return nil, ErrTaken
	}
	if e.grants.count(pd) != 0 {
		e.mu.Unlock()
		return nil, ErrConflict
	}
	s.demoteLocked(e)
	if err := e.v.Pmove(s.pd, pd, vmatable.PermRW); err != nil {
		e.mu.Unlock()
		return nil, err
	}
	e.taken = true
	e.takenBy = pd
	e.refs++
	t := getTx()
	t.store, t.entry, t.pd = s, e, pd
	t.bytes, t.version = e.bytes, e.version
	t.open = true
	e.mu.Unlock()
	s.outstanding.Add(1)
	s.takes.Add(1)
	if created {
		s.creates.Add(1)
	}
	return t, nil
}

// Put atomically creates or replaces key's value — a take/commit
// micro-transaction that never spans body code: pmove the VMA to the
// writer, checked Write, pmove back, bump the version.
func (s *Store) Put(pd pool.PDID, fn string, scope router.StateScope, key string, val []byte) (uint64, error) {
	if s.closed.Load() {
		return 0, ErrClosed
	}
	if d := s.cfg.Degraded; d != nil && d() {
		s.degradedRef.Add(1)
		return 0, ErrDegraded
	}
	e, created := s.getOrCreate(skey(fn, scope, key))
	// e.mu held.
	if e.taken {
		e.mu.Unlock()
		return 0, ErrTaken
	}
	if e.grants.count(pd) != 0 {
		e.mu.Unlock()
		return 0, ErrConflict
	}
	delta := int64(len(val)) - int64(len(e.bytes))
	if s.cfg.CapBytes > 0 && delta > 0 && s.bytes.Load()+delta > s.cfg.CapBytes {
		e.mu.Unlock()
		s.capacityRef.Add(1)
		return 0, ErrCapacity
	}
	s.demoteLocked(e)
	err := e.v.Pmove(s.pd, pd, vmatable.PermRW)
	if err == nil {
		err = e.v.Write(pd, val)
		if mvErr := e.v.Pmove(pd, s.pd, vmatable.PermRW); err == nil {
			err = mvErr
		}
	}
	if err != nil {
		e.mu.Unlock()
		return 0, err
	}
	e.bytes = val
	e.version++
	e.reads = 0
	ver := e.version
	e.mu.Unlock()
	s.bytes.Add(delta)
	s.puts.Add(1)
	if created {
		s.creates.Add(1)
	}
	return ver, nil
}

// Delete removes key. It fails with ErrTaken while a writer owns the key;
// with read snapshots outstanding the entry leaves the map immediately and
// its VMA is retired when the last grant releases.
func (s *Store) Delete(pd pool.PDID, fn string, scope router.StateScope, key string) error {
	k := skey(fn, scope, key)
	sh := s.shardFor(k)
	sh.mu.Lock()
	e := sh.m[k]
	if e == nil {
		sh.mu.Unlock()
		return ErrNotFound
	}
	e.mu.Lock()
	if e.taken {
		e.mu.Unlock()
		sh.mu.Unlock()
		return ErrTaken
	}
	s.demoteLocked(e)
	delete(sh.m, k)
	sh.mu.Unlock()
	e.dead = true
	free := e.refs == 0
	n := int64(len(e.bytes))
	e.mu.Unlock()
	if free {
		_ = e.v.Retire(s.pd)
	}
	s.bytes.Add(-n)
	s.entries.Add(-1)
	s.deletes.Add(1)
	return nil
}

// Stats is a point-in-time counter snapshot for /statsz and /metrics.
type Stats struct {
	Entries     int64 `json:"entries" metric:"gauge" help:"Entries in the shared-state store."`
	Bytes       int64 `json:"bytes" metric:"gauge" help:"Bytes held by the shared-state store."`
	Outstanding int64 `json:"outstanding" metric:"gauge" help:"Live snapshots plus open transactions."`

	Gets      uint64 `json:"gets" metric:"counter" help:"State get operations."`
	FastGets  uint64 `json:"fast_gets" metric:"counter" help:"Gets served by the global-RO fast path."`
	StaleGets uint64 `json:"stale_gets" metric:"counter" help:"Gets served while the key was taken by a writer."`
	Takes     uint64 `json:"takes" metric:"counter" help:"Keys taken for writing."`
	Commits   uint64 `json:"commits" metric:"counter" help:"State transaction commits."`
	Discards  uint64 `json:"discards" metric:"counter" help:"State transactions discarded."`
	Puts      uint64 `json:"puts" metric:"counter" help:"State put operations."`
	Creates   uint64 `json:"creates" metric:"counter" help:"Keys created."`
	Deletes   uint64 `json:"deletes" metric:"counter" help:"State delete operations."`

	Promotions uint64 `json:"promotions" metric:"counter" help:"Entries promoted to a global read-only mapping."`
	Demotions  uint64 `json:"demotions" metric:"counter" help:"Entries demoted from a global read-only mapping."`

	CopyBytesAvoided uint64 `json:"copy_bytes_avoided" metric:"counter" help:"Bytes not copied thanks to ownership transfer."`
	DegradedRefusals uint64 `json:"degraded_refusals" metric:"counter" help:"Takes and puts refused while the worker was degraded."`
	CapacityRefusals uint64 `json:"capacity_refusals" metric:"counter" help:"Puts refused at the store's byte cap."`
}

// StatsSnapshot reads the counters.
func (s *Store) StatsSnapshot() Stats {
	return Stats{
		Entries:          s.entries.Load(),
		Bytes:            s.bytes.Load(),
		Outstanding:      s.outstanding.Load(),
		Gets:             s.gets.Load(),
		FastGets:         s.fastGets.Load(),
		StaleGets:        s.staleGets.Load(),
		Takes:            s.takes.Load(),
		Commits:          s.commits.Load(),
		Discards:         s.discards.Load(),
		Puts:             s.puts.Load(),
		Creates:          s.creates.Load(),
		Deletes:          s.deletes.Load(),
		Promotions:       s.promotions.Load(),
		Demotions:        s.demotions.Load(),
		CopyBytesAvoided: s.copyAvoided.Load(),
		DegradedRefusals: s.degradedRef.Load(),
		CapacityRefusals: s.capacityRef.Load(),
	}
}

// VerifyIdle checks the quiescent invariant the chaos suite asserts after
// a drain: no key taken, no handle outstanding, no grant live. For
// quiescent (test/drain) use only.
func (s *Store) VerifyIdle() error {
	if n := s.outstanding.Load(); n != 0 {
		return fmt.Errorf("state: %d handles outstanding after drain", n)
	}
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for k, e := range sh.m {
			e.mu.Lock()
			taken, refs, ng := e.taken, e.refs, e.grants.holders()
			e.mu.Unlock()
			if taken || refs != 0 || ng != 0 {
				sh.mu.RUnlock()
				return fmt.Errorf("state: key %q/%q not idle after drain (taken=%v refs=%d grants=%d)",
					k.fn, k.key, taken, refs, ng)
			}
		}
		sh.mu.RUnlock()
	}
	return nil
}

// Close shuts the store down after the pool has drained: every entry VMA
// is retired and the store's protection domain returns to the table, so the
// table's post-drain VerifyIdle holds again. Outstanding handles at Close
// are a lifecycle bug and surface as faults from VMA.Retire.
func (s *Store) Close() error {
	if !s.closed.CompareAndSwap(false, true) {
		return nil
	}
	var firstErr error
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for k, e := range sh.m {
			e.mu.Lock()
			s.demoteLocked(e)
			e.dead = true
			busy := e.taken || e.refs != 0
			e.mu.Unlock()
			delete(sh.m, k)
			if busy {
				if firstErr == nil {
					firstErr = fmt.Errorf("state: closing with key %q/%q still held", k.fn, k.key)
				}
				continue
			}
			if err := e.v.Retire(s.pd); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		sh.mu.Unlock()
	}
	s.entries.Store(0)
	s.bytes.Store(0)
	if err := s.tab.Cput(s.pd); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}
