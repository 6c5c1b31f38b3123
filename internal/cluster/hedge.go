package cluster

import (
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// Hedging ("The Tail at Scale"): when the first placement has not
// answered within roughly the function's own p95, a duplicate goes to a
// second worker and the first response wins. The delay adapts per
// function so a 2ms echo hedges at milliseconds while a 500ms batch job
// is left alone.
const (
	hedgeColdDelay = 50 * time.Millisecond // until enough samples exist
	hedgeSampleMin = 16                    // also how often the p95 is recomputed
	hedgeRingSize  = 64
	hedgeMinDelay  = 2 * time.Millisecond
	hedgeMaxDelay  = 2 * time.Second
)

type latRing struct {
	mu      sync.Mutex
	samples [hedgeRingSize]time.Duration
	n       int // filled entries (caps at hedgeRingSize)
	idx     int
	seen    int // samples since the p95 was last recomputed

	p95 atomic.Int64 // clamped p95 in ns; 0 until hedgeSampleMin samples exist
}

// hedgeTracker keeps a small ring of recent successful-invoke latencies
// per function.
type hedgeTracker struct {
	mu  sync.RWMutex
	fns map[string]*latRing
}

func newHedgeTracker() *hedgeTracker {
	return &hedgeTracker{fns: make(map[string]*latRing)}
}

func (t *hedgeTracker) ring(fn string) *latRing {
	t.mu.RLock()
	r := t.fns[fn]
	t.mu.RUnlock()
	if r != nil {
		return r
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if r = t.fns[fn]; r == nil {
		r = &latRing{}
		t.fns[fn] = r
	}
	return r
}

// observe records one successful latency and, every hedgeSampleMin
// samples, recomputes the clamped p95 that delay hands out — sorting the
// ring once per 16 requests instead of once per hedged request.
func (t *hedgeTracker) observe(fn string, d time.Duration) {
	r := t.ring(fn)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.samples[r.idx] = d
	r.idx = (r.idx + 1) % hedgeRingSize
	if r.n < hedgeRingSize {
		r.n++
	}
	if r.seen++; r.seen < hedgeSampleMin {
		return
	}
	r.seen = 0
	tmp := r.samples
	s := tmp[:r.n]
	slices.Sort(s)
	r.p95.Store(int64(min(max(s[r.n*95/100], hedgeMinDelay), hedgeMaxDelay)))
}

// delay reports how long to wait before hedging fn: the clamped p95 of
// recent successes, or hedgeColdDelay until hedgeSampleMin samples exist.
func (t *hedgeTracker) delay(fn string) time.Duration {
	if d := t.ring(fn).p95.Load(); d > 0 {
		return time.Duration(d)
	}
	return hedgeColdDelay
}
