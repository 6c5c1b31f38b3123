// Package breaker implements per-function circuit breakers for the live
// serving path: blast-radius containment as a first-class runtime duty.
// Jord's protection domains isolate a faulty function's MEMORY; a breaker
// isolates its RESOURCE FOOTPRINT — a function that keeps panicking,
// blowing its deadline, or tripping the stuck-body watchdog is quarantined
// with fast 503s so it stops consuming executors, PDs, and queue slots that
// healthy functions need.
//
// Each breaker is the classic three-state machine over a sliding failure
// window:
//
//	Closed    normal service. Outcomes are counted into a bucketed sliding
//	          window; when the window holds at least MinSamples outcomes
//	          and the failure ratio reaches FailureRatio, the breaker trips.
//	Open      requests are refused immediately (the gateway answers 503
//	          with Retry-After) until Cooldown elapses.
//	HalfOpen  exactly one probe request is admitted; its outcome decides
//	          between re-opening (fresh Cooldown) and closing (window
//	          reset).
//
// The closed-state hot path is one atomic load in Allow plus a few atomic
// adds in Record; the mutex guards only state transitions, which are rare
// by construction.
package breaker

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// State is a breaker's position in the trip cycle.
type State int32

const (
	Closed State = iota
	Open
	HalfOpen
)

// String returns the conventional lowercase state name.
func (s State) String() string {
	switch s {
	case Closed:
		return "closed"
	case Open:
		return "open"
	case HalfOpen:
		return "half-open"
	default:
		return "unknown"
	}
}

// MarshalText writes the state's name, so a JSON document reads "open"
// while /metrics exports the number.
func (s State) MarshalText() ([]byte, error) { return []byte(s.String()), nil }

// UnmarshalText parses a name MarshalText wrote.
func (s *State) UnmarshalText(b []byte) error {
	for st := Closed; st <= HalfOpen; st++ {
		if st.String() == string(b) {
			*s = st
			return nil
		}
	}
	return fmt.Errorf("breaker: unknown state %q", b)
}

// Config tunes one breaker (and, via Set, every breaker of a daemon).
type Config struct {
	// Window is the sliding interval over which failures are counted
	// (default 10s).
	Window time.Duration
	// Buckets subdivides the window; finer buckets age failures out more
	// smoothly (default 10).
	Buckets int
	// MinSamples is the minimum number of recorded outcomes in the window
	// before the ratio can trip the breaker — a floor against tripping on
	// the first unlucky request (default 20).
	MinSamples uint64
	// FailureRatio is the windowed failure fraction that trips the breaker
	// (default 0.5).
	FailureRatio float64
	// Cooldown is how long an open breaker refuses requests before
	// admitting a half-open probe (default 2s).
	Cooldown time.Duration
	// OnTrip, when set, is invoked with the function name each time a
	// breaker opens. It runs under the breaker's mutex, so it must be fast
	// and must never call back into the breaker — it exists so the flight
	// recorder can freeze state at the moment of the trip.
	OnTrip func(name string)
}

func (c Config) withDefaults() Config {
	if c.Window <= 0 {
		c.Window = 10 * time.Second
	}
	if c.Buckets <= 0 {
		c.Buckets = 10
	}
	if c.MinSamples == 0 {
		c.MinSamples = 20
	}
	if c.FailureRatio <= 0 || c.FailureRatio > 1 {
		c.FailureRatio = 0.5
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 2 * time.Second
	}
	return c
}

// bucket is one slice of the sliding window. start identifies the bucket
// epoch the counters belong to; a bucket whose epoch has passed is lazily
// reset by the next recorder (CAS on start).
type bucket struct {
	start atomic.Int64 // unix ns of this bucket's epoch start; 0 = empty
	total atomic.Uint64
	fail  atomic.Uint64
}

// Breaker is one function's circuit breaker. Safe for concurrent use.
type Breaker struct {
	cfg      Config
	bucketNS int64
	name     string // for Config.OnTrip; set by NewSet, empty on bare New

	// state sits alone on its cache line: the closed-state Allow fast path
	// is a single load of it, and that line must not be invalidated by the
	// window buckets or counters mutating under traffic.
	_     [60]byte
	state atomic.Int32 // State; the Allow fast path reads only this
	_     [60]byte

	// mu guards state TRANSITIONS (trip, probe admission, close) and the
	// fields below — all off the closed-state hot path.
	mu       sync.Mutex
	openedAt time.Time
	probing  bool

	buckets []bucket

	trips   atomic.Uint64
	shorted atomic.Uint64 // requests refused while open/half-open
}

// New builds a breaker in the Closed state.
func New(cfg Config) *Breaker {
	cfg = cfg.withDefaults()
	return &Breaker{
		cfg:      cfg,
		bucketNS: cfg.Window.Nanoseconds() / int64(cfg.Buckets),
		buckets:  make([]bucket, cfg.Buckets),
	}
}

// Allow decides whether one request to this breaker's function may
// proceed. On ok, the caller MUST later call Record (or CancelProbe when
// probe is true and the request never reached the function) with the
// outcome. On !ok the request must be refused — retryAfter is the
// suggested client backoff (the gateway's Retry-After header).
func (b *Breaker) Allow(now time.Time) (probe, ok bool, retryAfter time.Duration) {
	if State(b.state.Load()) == Closed {
		return false, true, 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch State(b.state.Load()) {
	case Closed: // closed under us — admit normally
		return false, true, 0
	case Open:
		if rem := b.cfg.Cooldown - now.Sub(b.openedAt); rem > 0 {
			b.shorted.Add(1)
			return false, false, rem
		}
		// Cooldown over: this request becomes the half-open probe.
		b.state.Store(int32(HalfOpen))
		b.probing = true
		return true, true, 0
	default: // HalfOpen
		if !b.probing {
			b.probing = true
			return true, true, 0
		}
		b.shorted.Add(1)
		return false, false, b.cfg.Cooldown / 2
	}
}

// Record reports one admitted request's outcome. probe must be the value
// Allow returned. A probe's outcome decides the half-open verdict:
// failure re-opens (fresh cooldown), success closes and resets the window.
// Non-probe outcomes feed the sliding window and may trip a closed
// breaker.
func (b *Breaker) Record(failure, probe bool, now time.Time) {
	if probe {
		b.mu.Lock()
		if State(b.state.Load()) == HalfOpen {
			if failure {
				b.reopenLocked(now)
			} else {
				b.resetWindow()
				b.state.Store(int32(Closed))
			}
		}
		b.probing = false
		b.mu.Unlock()
		return
	}
	bk := b.bucketFor(now)
	bk.total.Add(1)
	if !failure {
		return
	}
	bk.fail.Add(1)
	if State(b.state.Load()) != Closed {
		return
	}
	total, fails := b.windowCounts(now)
	if total < b.cfg.MinSamples || float64(fails) < b.cfg.FailureRatio*float64(total) {
		return
	}
	b.mu.Lock()
	if State(b.state.Load()) == Closed {
		b.reopenLocked(now)
	}
	b.mu.Unlock()
}

// RecordFault feeds one failure that was detected OUTSIDE a gateway
// request — the ExecTimeout watchdog flagging a stuck invocation. It
// counts into the window and may trip the breaker exactly like a failed
// request.
func (b *Breaker) RecordFault(now time.Time) { b.Record(true, false, now) }

// CancelProbe releases the half-open probe slot without a verdict — the
// probe request died of something that says nothing about the function
// (admission shed, drain, client gone). The next Allow admits a new probe.
func (b *Breaker) CancelProbe() {
	b.mu.Lock()
	b.probing = false
	b.mu.Unlock()
}

// reopenLocked trips the breaker (from Closed or HalfOpen). Caller holds mu.
func (b *Breaker) reopenLocked(now time.Time) {
	b.openedAt = now
	b.resetWindow()
	b.state.Store(int32(Open))
	b.trips.Add(1)
	if b.cfg.OnTrip != nil {
		b.cfg.OnTrip(b.name)
	}
}

// resetWindow clears the sliding window (trip and close both start the
// next episode from zero evidence). Racy against concurrent recorders —
// a sample landing mid-reset may be lost, which only delays the next trip
// by one sample.
func (b *Breaker) resetWindow() {
	for i := range b.buckets {
		bk := &b.buckets[i]
		bk.start.Store(0)
		bk.total.Store(0)
		bk.fail.Store(0)
	}
}

// bucketFor returns now's bucket, lazily recycling it when its previous
// epoch has aged out. The CAS winner zeroes the counters; a concurrent
// add racing the zeroing can be lost — acceptable for a trip heuristic.
func (b *Breaker) bucketFor(now time.Time) *bucket {
	ns := now.UnixNano()
	epoch := ns - ns%b.bucketNS
	bk := &b.buckets[(ns/b.bucketNS)%int64(len(b.buckets))]
	if s := bk.start.Load(); s != epoch {
		if bk.start.CompareAndSwap(s, epoch) {
			bk.total.Store(0)
			bk.fail.Store(0)
		}
	}
	return bk
}

// windowCounts sums the buckets still inside the sliding window.
func (b *Breaker) windowCounts(now time.Time) (total, fails uint64) {
	cut := now.UnixNano() - b.cfg.Window.Nanoseconds()
	for i := range b.buckets {
		bk := &b.buckets[i]
		if s := bk.start.Load(); s != 0 && s > cut {
			total += bk.total.Load()
			fails += bk.fail.Load()
		}
	}
	return total, fails
}

// State returns the breaker's current state.
func (b *Breaker) State() State { return State(b.state.Load()) }

// Trips returns how many times the breaker has opened.
func (b *Breaker) Trips() uint64 { return b.trips.Load() }

// ShortCircuits returns how many requests were refused while not closed.
func (b *Breaker) ShortCircuits() uint64 { return b.shorted.Load() }

// Set is a daemon's breaker collection, one per registered function. The
// map is immutable after NewSet, so For is a lock-free lookup.
type Set struct {
	cfg Config
	m   map[string]*Breaker
}

// NewSet builds one breaker per function name.
func NewSet(cfg Config, names []string) *Set {
	s := &Set{cfg: cfg.withDefaults(), m: make(map[string]*Breaker, len(names))}
	for _, n := range names {
		b := New(s.cfg)
		b.name = n
		s.m[n] = b
	}
	return s
}

// Config returns the set's effective (defaulted) configuration.
func (s *Set) Config() Config { return s.cfg }

// For returns the breaker for a function name (nil if unknown, or if the
// set itself is nil — breakers disabled).
func (s *Set) For(name string) *Breaker {
	if s == nil {
		return nil
	}
	return s.m[name]
}

// RecordFault counts one out-of-band failure (watchdog flag) against a
// function's breaker. Shaped to plug directly into pool.Config.OnWatchdog.
func (s *Set) RecordFault(name string) {
	if b := s.For(name); b != nil {
		b.RecordFault(time.Now())
	}
}

// NotClosed returns the names of functions whose breaker is currently
// open or half-open, sorted for stable output — the /readyz view.
func (s *Set) NotClosed() []string {
	if s == nil {
		return nil
	}
	var out []string
	for name, b := range s.m {
		if b.State() != Closed {
			out = append(out, name)
		}
	}
	slices.Sort(out)
	return out
}
