// Package pool is the live serving path's runtime: a faithful port of the
// paper's worker-server architecture (§3.3/§3.4, Figure 4) from the
// deterministic simulator (internal/core) onto real goroutines.
//
//   - Orchestrators queue external requests from the HTTP gateway and
//     internal (nested) requests from executors, and dispatch both into
//     per-executor bounded queues with JBSQ load balancing. Dispatch runs
//     inline on the submitting goroutine. Internal requests have absolute
//     priority and bypass the JBSQ bound, the paper's §3.3
//     deadlock-avoidance design.
//   - Executor goroutines run each invocation as a suspendable
//     continuation on a runner coroutine inside a fresh protection domain:
//     a nested Call suspends the continuation (cexit, a coroutine yield)
//     and returns the executor to its loop, so executors never block on
//     children.
//   - Per-invocation ArgBufs are VMAs whose ownership moves between
//     protection domains with pmove/pcopy, enforced by software permission
//     checks on the same permission record internal/privlib's VTEs use.
//
// Where the simulator charges modelled latencies for these operations, the
// live path pays their real cost, so the hot path is engineered like the
// paper engineers its hardware: PD allocation runs through per-executor
// free-list caches over a sharded global pool (the live analogue of
// PrivLib's per-core free lists), VMA permissions live in vmatable's
// permission record — the simulator's own VTE code, a fixed inline
// sub-array with an overflow list (the Fig. 8 layout) — continuations
// run on recycled parked coroutines, and per-function statistics shard per
// executor. The semantics — who may touch what, in which domain, in what
// order — are unchanged.
package pool

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"jord/internal/mem/vmatable"
)

// PDID and Perm are shared with the simulated memory system so the live
// and simulated paths speak the same protection vocabulary.
type (
	PDID = vmatable.PDID
	Perm = vmatable.Perm
)

// Fault is an isolation violation on the live path: a PD touched a VMA it
// holds no (sufficient) permission for, or misused the PD lifecycle. It
// mirrors privlib.Fault.
type Fault struct {
	Op     string // the PrivLib-style operation ("pmove", "read", "cput", ...)
	PD     PDID   // the offending protection domain
	Detail string
}

func (f *Fault) Error() string {
	return fmt.Sprintf("jord fault: %s from pd %d: %s", f.Op, f.PD, f.Detail)
}

// pdBatch is how many PD IDs a per-executor cache pulls from (or flushes
// to) the global shards at once — PrivLib refills its per-core free lists
// in batches the same way, so the shard locks are touched once per batch,
// not once per invocation.
const pdBatch = 16

// pdCacheMax bounds a per-executor cache; beyond it, Cput flushes a batch
// back to the shards so free IDs cannot strand on an idle executor.
const pdCacheMax = 2 * pdBatch

// creditBatch is how many units of free-counter supply an executor carves
// off the global counter at once. With credits in hand, the §3.3 reserve
// check costs one CAS on the executor's OWN cache line instead of a CAS on
// the shared counter — the shared line is touched (read-only for internals,
// one load for externals) but never written on the hot path.
const creditBatch = 16

// pdShard is one slice of the global free list, under its own lock.
type pdShard struct {
	mu   sync.Mutex
	free []PDID
	_    [32]byte // keep neighbouring shard locks off one cache line
}

// Table manages the live PD space: sharded free lists of PD IDs, an atomic
// free counter for the §3.3 reserve check, per-PD live flags for lifecycle
// (double-free) enforcement, and fault accounting. It is the live-path
// analogue of PrivLib's cget/cput PD free list, safe for concurrent use.
//
// The free counter counts every unallocated PD — whether it sits in a
// global shard or in a per-executor cache — so the internal-priority
// reserve invariant ("external requests start only while more than
// PDReserve PDs remain free") holds across all shards and caches: Cget
// reserves a unit with one CAS on the counter before touching any list.
//
// Under many cores that single CAS becomes the contention point (every
// invocation RMWs the same cache line), so executors additionally carve
// per-cache CREDIT batches off the counter while supply is plentiful
// (nfree >= creditFloor+creditBatch). A credit is one unit of pre-paid
// reservation: consuming it replaces the shared CAS with a CAS on the
// executor's private line. Safety: the physical free supply always equals
// nfree + Σcredits(+in-flight consumes), so physFree >= nfree, and an
// external consume additionally checks nfree >= reserve — together with
// the distinct credit being consumed this gives physFree >= reserve+1,
// exactly the "admit iff free > reserve" rule of the legacy CAS. Near the
// floor no credits are carved and the legacy CAS runs, so the invariant
// stays EXACT where it matters (reserve/shedding territory); tests with
// small tables never carve at all (floor >= numPDs).
type Table struct {
	nfree  atomic.Int64  // unallocated PDs (shards + caches) minus outstanding credits
	shards []pdShard     // IDs round-robined across shards
	live   []atomic.Bool // indexed by PDID; true while allocated
	numPDs int

	// creditFloor: no credits are carved while nfree would drop below it.
	// Set before concurrent use (NewTable default, SetCreditFloor).
	creditFloor int64

	// caches registered by executors (newCache); Cget steals from them
	// when the shards run dry but the counter says IDs exist.
	cacheMu sync.Mutex
	caches  []*pdCache

	// scan rotates the starting shard for refills and uncached gets so
	// concurrent allocators spread across shard locks instead of all
	// hammering shard 0.
	scan atomic.Uint32

	// onFree, when set (by the pool), runs after every Cput so executors
	// stalled on PD exhaustion can re-check capacity.
	onFree func()

	cgets, cputs atomic.Uint64
	faults       atomic.Uint64
}

// NewTable creates a PD space with IDs 1..numPDs (0 is vmatable.ExecutorPD).
func NewTable(numPDs int) *Table {
	if numPDs < 1 {
		numPDs = 1
	}
	// One shard per core, clamped: a floor of 4 keeps the sharded paths
	// exercised on small machines, a ceiling of 16 bounds the scan cost
	// when the shards run dry.
	ns := runtime.GOMAXPROCS(0)
	if ns < 4 {
		ns = 4
	}
	if ns > 16 {
		ns = 16
	}
	if ns > numPDs {
		ns = numPDs
	}
	t := &Table{
		shards: make([]pdShard, ns),
		live:   make([]atomic.Bool, numPDs+1),
		numPDs: numPDs,
	}
	t.live[vmatable.ExecutorPD].Store(true)
	for id := numPDs; id >= 1; id-- {
		s := &t.shards[(id-1)%ns]
		s.free = append(s.free, PDID(id))
	}
	t.nfree.Store(int64(numPDs))
	// Default floor: only plentiful tables carve credits; small tables
	// (and every pre-existing test fixture) run the exact legacy CAS.
	t.creditFloor = int64(numPDs / 4)
	if t.creditFloor < 64 {
		t.creditFloor = 64
	}
	return t
}

// SetCreditFloor overrides the credit-carving floor: while the free counter
// is at or below floor+creditBatch, Cget runs the exact legacy reserve CAS
// and no supply moves into per-executor credits. The pool raises this above
// its shedding threshold so credits never blur the counter in reserve or
// shedding territory. Not safe to call concurrently with allocations.
func (t *Table) SetCreditFloor(floor int) {
	if floor < 0 {
		floor = 0
	}
	t.creditFloor = int64(floor)
}

// pdCache is one executor's private PD free list. The owner refills it in
// batches from the table's shards; other executors may steal from it under
// its lock when the shards run dry, so no free ID can strand here.
type pdCache struct {
	// credits is this executor's pre-carved share of the free counter —
	// the owner's reserve check CASes this private line, not t.nfree.
	// Padded so the list lock and thieves never share its cache line.
	credits atomic.Int64
	_       [56]byte

	t    *Table
	mu   sync.Mutex
	free []PDID
}

// newCache registers a per-executor free-list cache.
func (t *Table) newCache() *pdCache {
	c := &pdCache{t: t, free: make([]PDID, 0, pdCacheMax+pdBatch)}
	t.cacheMu.Lock()
	t.caches = append(t.caches, c)
	t.cacheMu.Unlock()
	return c
}

// reserveOne claims one unit of PD supply iff more than reserve units
// remain — the atomic-counter fast path for the §3.3 reserve check. A
// successful reservation entitles the caller to exactly one physical ID
// from some shard or cache.
func (t *Table) reserveOne(reserve int) bool {
	for {
		cur := t.nfree.Load()
		if cur <= int64(reserve) {
			return false
		}
		if t.nfree.CompareAndSwap(cur, cur-1) {
			return true
		}
	}
}

// tryCredit claims one unit of supply from the executor's pre-carved
// credits, carving a fresh batch off the global counter when the cache is
// dry and supply sits comfortably above the floor. A consumed credit is
// exactly a successful reserveOne: the caller owns one physical ID.
//
// Externals (reserve > 0) take one extra pure LOAD of the shared counter:
// admitting on nfree >= reserve while also holding a distinct credit means
// the physical free supply exceeds reserve after the admit — the same
// guarantee the legacy CAS gives — without writing the shared line.
func (t *Table) tryCredit(reserve int, cache *pdCache) bool {
	carved := false
	for {
		cur := cache.credits.Load()
		if cur > 0 {
			if reserve > 0 && t.nfree.Load() < int64(reserve) {
				return false
			}
			if cache.credits.CompareAndSwap(cur, cur-1) {
				return true
			}
			continue
		}
		if carved {
			return false
		}
		carved = true
		free := t.nfree.Load()
		if free < t.creditFloor+creditBatch {
			return false
		}
		if !t.nfree.CompareAndSwap(free, free-creditBatch) {
			return false
		}
		cache.credits.Add(creditBatch)
	}
}

// reclaimCredits returns every outstanding credit to the global counter.
// Called wherever a stranded credit could matter: an executor about to
// stall on PD exhaustion, a failed cget retrying, Drain, and VerifyIdle.
// Concurrent consumers are safe: Swap and the consume CAS serialize, so a
// credit is counted exactly once — either consumed or reclaimed.
func (t *Table) reclaimCredits() {
	t.cacheMu.Lock()
	caches := t.caches
	t.cacheMu.Unlock()
	for _, c := range caches {
		if n := c.credits.Swap(0); n > 0 {
			t.nfree.Add(n)
		}
	}
}

// takeID redeems a successful reservation for a physical PD ID. The
// counter guarantees an ID exists in some shard or cache; the loop rides
// out the transient window in which a batch is in flight between lists.
func (t *Table) takeID(cache *pdCache) PDID {
	for {
		if cache != nil {
			cache.mu.Lock()
			if n := len(cache.free); n > 0 {
				pd := cache.free[n-1]
				cache.free = cache.free[:n-1]
				cache.mu.Unlock()
				return pd
			}
			cache.mu.Unlock()
			if pd, ok := t.refill(cache); ok {
				return pd
			}
		} else if pd, ok := t.takeFromShards(); ok {
			return pd
		}
		// Shards (and own cache) empty: the reserved ID must be in some
		// other executor's cache — steal it.
		if pd, ok := t.steal(cache); ok {
			return pd
		}
		runtime.Gosched()
	}
}

// takeFromShards pops one ID from the first non-empty shard, starting at
// a rotating index.
func (t *Table) takeFromShards() (PDID, bool) {
	start := int(t.cgets.Load()) // cheap rotation; exactness is irrelevant
	for j := range t.shards {
		s := &t.shards[(start+j)%len(t.shards)]
		s.mu.Lock()
		if n := len(s.free); n > 0 {
			pd := s.free[n-1]
			s.free = s.free[:n-1]
			s.mu.Unlock()
			return pd, true
		}
		s.mu.Unlock()
	}
	return 0, false
}

// refill moves up to pdBatch IDs from one shard into the cache and returns
// the first of them.
func (t *Table) refill(cache *pdCache) (PDID, bool) {
	start := int(t.scan.Add(1))
	for j := range t.shards {
		s := &t.shards[(start+j)%len(t.shards)]
		s.mu.Lock()
		n := len(s.free)
		if n == 0 {
			s.mu.Unlock()
			continue
		}
		take := pdBatch
		if take > n {
			take = n
		}
		batch := s.free[n-take:]
		pd := batch[take-1]
		cache.mu.Lock()
		cache.free = append(cache.free, batch[:take-1]...)
		cache.mu.Unlock()
		s.free = s.free[:n-take]
		s.mu.Unlock()
		return pd, true
	}
	return 0, false
}

// steal takes one ID out of another executor's cache.
func (t *Table) steal(self *pdCache) (PDID, bool) {
	t.cacheMu.Lock()
	caches := t.caches
	t.cacheMu.Unlock()
	for _, c := range caches {
		if c == self {
			continue
		}
		c.mu.Lock()
		if n := len(c.free); n > 0 {
			pd := c.free[n-1]
			c.free = c.free[:n-1]
			c.mu.Unlock()
			return pd, true
		}
		c.mu.Unlock()
	}
	return 0, false
}

// Cget allocates a fresh protection domain (Table 1: cget).
func (t *Table) Cget() (PDID, error) { return t.cget(0, nil) }

// CgetAbove allocates a PD only while more than reserve remain free.
// Executors start external requests with the pool's internal-reserve
// floor and internal (nested) requests with reserve 0, extending §3.3's
// internal-priority deadlock avoidance from queue slots to the PD
// resource: the last PDs are always available to the children that
// suspended parents are waiting on.
func (t *Table) CgetAbove(reserve int) (PDID, error) { return t.cget(reserve, nil) }

// cgetCached is CgetAbove through an executor's free-list cache.
func (t *Table) cgetCached(reserve int, cache *pdCache) (PDID, error) {
	return t.cget(reserve, cache)
}

func (t *Table) cget(reserve int, cache *pdCache) (PDID, error) {
	ok := cache != nil && t.tryCredit(reserve, cache)
	if !ok {
		ok = t.reserveOne(reserve)
		if !ok {
			// The last supply may be stranded as credits on idle
			// executors; pull it back and retry once.
			t.reclaimCredits()
			ok = t.reserveOne(reserve)
		}
	}
	if !ok {
		if t.nfree.Load() <= 0 {
			// True exhaustion is an accounted fault; a reserve-gated
			// refusal is ordinary backpressure.
			t.faults.Add(1)
		}
		return 0, &Fault{Op: "cget", PD: vmatable.ExecutorPD, Detail: "protection domain space exhausted"}
	}
	pd := t.takeID(cache)
	t.live[pd].Store(true)
	t.cgets.Add(1)
	return pd, nil
}

// Cput destroys a protection domain, returning its ID to the free list
// (Table 1: cput).
func (t *Table) Cput(pd PDID) error { return t.cput(pd, nil) }

// cputCached is Cput through an executor's free-list cache.
func (t *Table) cputCached(pd PDID, cache *pdCache) error { return t.cput(pd, cache) }

func (t *Table) cput(pd PDID, cache *pdCache) error {
	if pd == vmatable.ExecutorPD || int(pd) > t.numPDs || !t.live[pd].CompareAndSwap(true, false) {
		t.faults.Add(1)
		return &Fault{Op: "cput", PD: pd, Detail: "not a live user protection domain"}
	}
	if cache != nil {
		cache.mu.Lock()
		cache.free = append(cache.free, pd)
		flush := len(cache.free) > pdCacheMax
		var batch [pdBatch]PDID
		if flush {
			n := len(cache.free)
			copy(batch[:], cache.free[n-pdBatch:])
			cache.free = cache.free[:n-pdBatch]
		}
		cache.mu.Unlock()
		if flush {
			s := &t.shards[int(pd)%len(t.shards)]
			s.mu.Lock()
			s.free = append(s.free, batch[:]...)
			s.mu.Unlock()
		}
	} else {
		s := &t.shards[int(pd)%len(t.shards)]
		s.mu.Lock()
		s.free = append(s.free, pd)
		s.mu.Unlock()
	}
	t.nfree.Add(1)
	t.cputs.Add(1)
	if cb := t.onFree; cb != nil {
		cb()
	}
	return nil
}

// HasFree reports whether a Cget can currently succeed. Executors check it
// before starting new work, exactly as the simulator's executors consult
// privlib.HasFreePDs (suspended continuations hold PDs; starting new work
// with none free would fault).
func (t *Table) HasFree() bool { return t.FreeCount() > 0 }

// FreeCount returns the number of free PDs (global shards plus every
// per-executor cache) — one atomic load. While executors hold carved
// credits the value is CONSERVATIVE: it undercounts the physical supply by
// at most ncaches*creditBatch. Capacity checks built on it (shedding,
// nextRunnable's advisory gate) therefore err toward refusing work, never
// toward over-admitting; reclaimCredits restores exactness on the stall,
// drain, and verify paths.
func (t *Table) FreeCount() int { return int(t.nfree.Load()) }

// FreeCountExact is FreeCount with outstanding per-executor credits
// counted back in — the exact physical free supply at quiescence. It walks
// the caches, so it is for cold (observability/test) paths only.
func (t *Table) FreeCountExact() int { return t.numPDs - t.LivePDs() }

// LivePDs returns the number of currently allocated user PDs. Unlike the
// hot-path FreeCount, it counts outstanding per-executor credits back into
// the free supply (a cold walk over the caches), so at quiescence it is
// exact — the lifecycle and chaos suites poll it for leak detection.
func (t *Table) LivePDs() int {
	free := t.nfree.Load()
	t.cacheMu.Lock()
	caches := t.caches
	t.cacheMu.Unlock()
	for _, c := range caches {
		free += c.credits.Load()
	}
	return t.numPDs - int(free)
}

// Faults returns the cumulative isolation-violation count.
func (t *Table) Faults() uint64 { return t.faults.Load() }

// Cgets and Cputs return the cumulative successful allocation and
// deallocation counts — exported for /statsz.
func (t *Table) Cgets() uint64 { return t.cgets.Load() }
func (t *Table) Cputs() uint64 { return t.cputs.Load() }

// Shards returns the number of global free-list shards.
func (t *Table) Shards() int { return len(t.shards) }

// VerifyIdle checks the post-drain invariant the fault-injection suite
// asserts: with no invocation in flight, every PD must be free — the
// atomic counter equals NumPDs, the shard and cache free lists together
// hold each user PD ID exactly once, and no live flag is set. It takes
// every list lock, so it is for quiescent (test/drain) use only.
func (t *Table) VerifyIdle() error {
	t.reclaimCredits()
	if got := int(t.nfree.Load()); got != t.numPDs {
		return fmt.Errorf("pdtable: free counter %d, want %d (PD leak)", got, t.numPDs)
	}
	seen := make([]bool, t.numPDs+1)
	count := 0
	note := func(where string, ids []PDID) error {
		for _, pd := range ids {
			if pd == vmatable.ExecutorPD || int(pd) > t.numPDs {
				return fmt.Errorf("pdtable: invalid PD %d on %s free list", pd, where)
			}
			if seen[pd] {
				return fmt.Errorf("pdtable: PD %d on multiple free lists (aliasing)", pd)
			}
			seen[pd] = true
			count++
		}
		return nil
	}
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.Lock()
		err := note("shard", s.free)
		s.mu.Unlock()
		if err != nil {
			return err
		}
	}
	t.cacheMu.Lock()
	caches := t.caches
	t.cacheMu.Unlock()
	for _, c := range caches {
		c.mu.Lock()
		err := note("cache", c.free)
		c.mu.Unlock()
		if err != nil {
			return err
		}
	}
	if count != t.numPDs {
		return fmt.Errorf("pdtable: %d PDs across free lists, want %d", count, t.numPDs)
	}
	for id := 1; id <= t.numPDs; id++ {
		if t.live[id].Load() {
			return fmt.Errorf("pdtable: PD %d still live after drain", id)
		}
	}
	return nil
}

func (t *Table) fault(f *Fault) error {
	t.faults.Add(1)
	return f
}
