package gateway

import (
	"hash/maphash"
	"sync"
	"sync/atomic"
)

// IdempotencyKeyHeader names the header a front-end dispatcher stamps on
// every forwarded invocation. A worker that sees a key it has already
// completed replays the recorded response instead of executing the
// function again — the mechanism that turns the dispatcher's
// retry-after-a-broken-connection from at-least-once into at-most-once
// per worker. Clients may supply their own key; absent one, the
// dispatcher generates it.
const IdempotencyKeyHeader = "X-Jord-Idempotency-Key"

// DedupHeader marks a response that was replayed from the idempotency
// cache rather than executed ("1"). The dispatcher forwards it so a
// client (and the dispatcher's own dedup_hits counter) can tell a replay
// from a fresh execution.
const DedupHeader = "X-Jord-Dedup"

// maxDedupBody caps the response size the cache will remember. A larger
// completed response is not cached (the Commit degrades to an Abort):
// pinning megabytes per key is how a retry cache becomes a memory leak.
const maxDedupBody = 256 << 10

// maxRecycledBody caps the body buffer a recycled entry keeps — the
// per-entry share of the default byte budget — so idle capacity stays
// within the budget's order; dedupSlab is how many entries are allocated
// at once when the free list runs dry.
const (
	maxRecycledBody = 16 << 10
	dedupSlab       = 64
)

// closedDone is the Done channel of an entry already committed when its
// follower arrives: nothing to wait for, nothing to allocate.
var closedDone = func() chan struct{} {
	c := make(chan struct{})
	close(c)
	return c
}()

// dedupEntry is one idempotency key's slot: in progress until the leader
// commits or aborts, then (if committed) a recorded response. Entries are
// recycled — struct and buffers — once they leave the cache and no
// follower holds them, so a follower's entry never changes key under it.
type dedupEntry struct {
	hash  uint64
	hnext *dedupEntry // next entry with the same key hash
	key   []byte

	// Guarded by the cache mutex. done is made by the first follower to
	// find the entry in progress and closed by Commit or Abort; holders
	// counts followers between Begin and Release; detached marks an entry
	// out of the map, recycled when its last holder releases it.
	done     chan struct{}
	holders  int
	detached bool

	// LRU links while committed and cached; next also links the free list.
	prev, next *dedupEntry

	// Written before the outcome is published (close(done), or under the
	// mutex), read only after it.
	committed bool
	status    int
	ctype     string
	body      []byte

	// Inline buffers for a dispatcher-sized key and an echo-sized response.
	keyBuf  [32]byte
	bodyBuf [128]byte
}

// Done is closed once the entry's outcome (commit or abort) is recorded.
// Only a follower (Begin returned leader=false) may call it.
func (e *dedupEntry) Done() <-chan struct{} { return e.done }

// Result returns the recorded response after Done. ok=false means the
// leader aborted (refusal, cancellation, oversized body): the request
// was NOT completed and the caller should race for leadership itself.
// body stays valid until the follower's Release.
func (e *dedupEntry) Result() (status int, ctype string, body []byte, ok bool) {
	return e.status, e.ctype, e.body, e.committed
}

// DedupCache is the bounded idempotent-replay cache: completed /invoke
// responses keyed by IdempotencyKeyHeader, evicted LRU by entry count and
// total body bytes. Concurrent arrivals of the same key single-flight:
// the first caller (the leader) executes, the rest wait on Done and
// replay the committed result.
//
// A keyed request allocates nothing in steady state: the map is keyed by
// the key's hash (colliding keys chain), key and body are copied into
// recycled entries' buffers, entries come in slabs, the LRU is linked
// through them, and a Done channel exists only once a follower waits.
//
// The cache is per worker. A retry that lands on a DIFFERENT worker will
// not find the key — which is why the dispatcher's retry policy replays
// unsafe (post-delivery) failures on the same worker first.
type DedupCache struct {
	mu       sync.Mutex
	seed     maphash.Seed
	maxEnt   int
	maxBytes int64
	bytes    int64
	n        int                    // committed entries in the LRU
	entries  map[uint64]*dedupEntry // by key hash; see dedupEntry.hnext
	lru      dedupEntry             // ring sentinel: lru.next is the most recent
	free     *dedupEntry            // recycled entries, linked through next

	hits      atomic.Uint64 // Begin found a committed or in-progress entry
	evictions atomic.Uint64
}

// NewDedupCache builds a cache holding up to maxEntries completed
// responses (0 = 4096) within a total body-byte budget of
// maxEntries x 16 KiB (min 4 MiB).
func NewDedupCache(maxEntries int) *DedupCache {
	if maxEntries <= 0 {
		maxEntries = 4096
	}
	c := &DedupCache{
		seed:     maphash.MakeSeed(),
		maxEnt:   maxEntries,
		maxBytes: max(int64(maxEntries)*(16<<10), 4<<20),
		entries:  make(map[uint64]*dedupEntry),
	}
	c.lru.prev, c.lru.next = &c.lru, &c.lru
	return c
}

// Begin claims or joins the entry for key. leader=true: the caller owns
// the execution and MUST finish with Commit or Abort. leader=false: some
// other request holds (or held) the key — wait on e.Done(), read
// e.Result(), then Release the entry; if ok=false the leader aborted and
// the caller should call Begin again (it may now become the leader).
// key does not escape, so converting it from bytes is free up to 32 bytes.
func (c *DedupCache) Begin(key string) (e *dedupEntry, leader bool) {
	h := maphash.String(c.seed, key)
	c.mu.Lock()
	defer c.mu.Unlock()
	for e := c.entries[h]; e != nil; e = e.hnext {
		if string(e.key) != key {
			continue
		}
		switch {
		case e.committed: // committed entries in the map are in the LRU
			c.unlink(e)
			c.pushFront(e)
			if e.done == nil {
				e.done = closedDone
			}
		case e.done == nil:
			e.done = make(chan struct{})
		}
		e.holders++
		c.hits.Add(1)
		return e, false
	}
	if c.free == nil {
		slab := make([]dedupEntry, dedupSlab)
		for i := range slab {
			c.recycle(&slab[i])
		}
	}
	e, c.free = c.free, c.free.next
	e.hash, e.key, e.next = h, append(e.key, key...), nil
	e.hnext, c.entries[h] = c.entries[h], e
	return e, true
}

// Commit records the leader's completed response (body is copied into the
// entry's own buffer) and wakes every waiter. Oversized bodies are not
// cached — the entry aborts instead, and a late retry re-executes
// (at-least-once for that key).
func (c *DedupCache) Commit(e *dedupEntry, status int, ctype string, body []byte) {
	if len(body) > maxDedupBody {
		c.Abort(e)
		return
	}
	// Only the leader touches an in-progress entry, so the copy needs no
	// lock; the mutex below publishes it with the committed flag.
	e.body, e.status, e.ctype = append(e.body[:0], body...), status, ctype
	c.mu.Lock()
	e.committed = true
	c.pushFront(e)
	c.bytes += int64(len(e.body))
	// Evict completed entries LRU-first until within both budgets.
	// In-progress entries never sit in the list, so they are never evicted
	// out from under their waiters; held entries leave the map but are
	// recycled only once their followers release them.
	for t := c.lru.prev; (c.n > c.maxEnt || c.bytes > c.maxBytes) && t != e; t = c.lru.prev {
		c.unlink(t)
		c.bytes -= int64(len(t.body))
		c.detach(t)
		c.evictions.Add(1)
	}
	done := e.done
	c.mu.Unlock()
	if done != nil {
		close(done)
	}
}

// Abort discards an entry whose request did not complete (refusal,
// cancellation): waiters wake with ok=false and race to become the next
// leader.
func (c *DedupCache) Abort(e *dedupEntry) {
	c.mu.Lock()
	done := e.done
	c.detach(e)
	c.mu.Unlock()
	if done != nil {
		close(done)
	}
}

// Release ends a follower's hold on an entry, once its Result (if any) is
// written out. The entry may be recycled from here on.
func (c *DedupCache) Release(e *dedupEntry) {
	c.mu.Lock()
	if e.holders--; e.holders == 0 && e.detached {
		c.recycle(e)
	}
	c.mu.Unlock()
}

// The helpers below run under c.mu.

// detach takes e out of the map; it is recycled now if no follower holds
// it, else by the last Release.
func (c *DedupCache) detach(e *dedupEntry) {
	switch p := c.entries[e.hash]; {
	case p == e && e.hnext == nil:
		delete(c.entries, e.hash)
	case p == e:
		c.entries[e.hash] = e.hnext
	default: // behind a colliding key in the chain
		for ; p != nil; p = p.hnext {
			if p.hnext == e {
				p.hnext = e.hnext
			}
		}
	}
	if e.holders > 0 {
		e.detached = true
	} else {
		c.recycle(e)
	}
}

// recycle resets e onto the free list, keeping its buffers: the inline
// ones, or a grown body buffer within maxRecycledBody.
func (c *DedupCache) recycle(e *dedupEntry) {
	body := e.body[:0]
	if cap(body) == 0 || cap(body) > maxRecycledBody {
		body = e.bodyBuf[:0]
	}
	*e = dedupEntry{key: e.keyBuf[:0], body: body, next: c.free}
	c.free = e
}

func (c *DedupCache) pushFront(e *dedupEntry) {
	e.prev, e.next = &c.lru, c.lru.next
	e.next.prev, c.lru.next = e, e
	c.n++
}

func (c *DedupCache) unlink(e *dedupEntry) {
	e.prev.next, e.next.prev = e.next, e.prev
	e.prev, e.next = nil, nil
	c.n--
}

// Len reports the number of completed cached responses.
func (c *DedupCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

// Hits reports how many Begin calls found an existing entry.
func (c *DedupCache) Hits() uint64 { return c.hits.Load() }

// Evictions reports how many completed entries the budgets pushed out.
func (c *DedupCache) Evictions() uint64 { return c.evictions.Load() }
