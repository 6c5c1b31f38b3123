// Package trace is the live runtime's always-on, allocation-free
// per-invocation tracing layer. Every request carries a Span embedded by
// value in the pool's recycled request struct; the runtime stamps it with
// monotonic nanoseconds at each lifecycle stage (edge parse, admission
// verdict, queue wait, PD init, execution, nested-call waits, state-tier
// ops, teardown, response write) and publishes the completed span into a
// per-executor ring buffer. Publication is one uncontended mutex per
// finishing executor covering the ring-slot memcpy plus the per-stage
// log-bucket histogram increments — no allocation, no shared cache-line
// RMW storm, and no torn reads for /tracez readers.
//
// Retention is tail-based: each shard keeps its most recent spans, a
// global table keeps the slowest-N per function (gated by a per-function
// atomic duration floor so the hot path pays one atomic load), and every
// errored / shed / canceled / watchdog-flagged span lands in a dedicated
// incident ring. A flight recorder freezes the last spans plus queue/PD
// stats whenever a breaker trips, a shed burst fires, or the watchdog
// flags a request.
package trace

import (
	"cmp"
	"math/bits"
	"math/rand/v2"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// Stage indexes one slot of a span's per-stage duration array — the live
// decomposition of the paper's Figure 4 invocation flow.
type Stage int

const (
	// StageParse is the edge's work before the runtime sees the request:
	// request-line/header parsing and the body read into the pooled
	// invoke buffer. Zero for requests arriving through the net/http
	// gateway or Pool.Invoke directly.
	StageParse Stage = iota
	// StageAdmit is the breaker check plus the admission-controller
	// verdict (edge path only).
	StageAdmit
	// StageQueue is submission -> executor dequeue: the orchestrator's
	// external (or internal) queue plus the JBSQ-bounded executor queue,
	// including any PD-stall requeues.
	StageQueue
	// StageInit is dequeue -> function entry: PD cget plus the ArgBuf
	// pmove (code is global-RX, so there is no per-invocation code copy).
	StageInit
	// StageExec is time the function body runs inside its PD (excludes
	// suspended waits; includes state-tier time, reported separately as
	// StageState).
	StageExec
	// StageWait is time suspended on nested calls (cexit -> center).
	StageWait
	// StageState is the summed duration of shared-state operations
	// (Get/Take/Put/Delete) — a subset of StageExec, broken out.
	StageState
	// StageTeardown is output write-back, ArgBuf pmove to the runtime
	// domain, state-handle release, and PD cput.
	StageTeardown
	// StageResp is the edge's response write (writev) back to the socket.
	StageResp

	// NumStages sizes the per-span duration array.
	NumStages = int(StageResp) + 1
)

// stageNames are the wire names used by /tracez and /metrics.
var stageNames = [NumStages]string{
	"parse", "admit", "queue", "init", "exec", "wait", "state", "teardown", "resp",
}

// Name returns the stage's wire name.
func (s Stage) Name() string {
	if s < 0 || int(s) >= NumStages {
		return "unknown"
	}
	return stageNames[s]
}

// Outcome classifies how an invocation ended. Stored as a small enum, not
// an error string, so publishing an errored span allocates nothing.
type Outcome uint8

const (
	OutcomeOK        Outcome = iota
	OutcomeError             // body returned an error
	OutcomePanicked          // body panicked (pool.ErrPanicked)
	OutcomeCanceled          // caller abandoned / parent orphaned
	OutcomeExpired           // deadline exceeded
	OutcomeShed              // tiered PD shedding refused it (pool.ErrDegraded)
	OutcomeSaturated         // external queue full (pool.ErrSaturated)
	OutcomeRefused           // edge refusal: unknown fn, breaker open, admission, draining
)

var outcomeNames = [...]string{
	"ok", "error", "panicked", "canceled", "expired", "shed", "saturated", "refused",
}

// Name returns the outcome's wire name.
func (o Outcome) Name() string {
	if int(o) >= len(outcomeNames) {
		return "unknown"
	}
	return outcomeNames[o]
}

// Span is one invocation's trace record. It is embedded by value in the
// pool's recycled request struct (and in the edge's per-connection state
// for refused requests), stamped in place, and published by memcpy into a
// shard ring — no per-span allocation, no ownership to leak.
//
// All timestamps are nanoseconds on the owning Recorder's monotonic clock
// (Recorder.Now); Stages holds per-stage durations. StageState overlaps
// StageExec (it is a break-out, not a sibling); the remaining stages are
// disjoint, and their sum may fall short of EndNS-StartNS when a request
// died between stamps (the gap is reported as "other" by /tracez).
type Span struct {
	ID       uint64 // assigned lazily: at publish, or at first child Async
	ParentID uint64 // parent invocation's ID for nested calls, else 0
	FuncID   int32  // router.Func.ID; -1 when unknown (pre-lookup refusals)
	Shard    int32  // publishing shard (finishing executor)
	Outcome  Outcome
	Flagged  bool // ExecTimeout watchdog flagged this invocation
	External bool
	StartNS  int64
	EndNS    int64
	Children int32 // nested calls issued
	StateOps int32 // state-tier operations performed
	Stages   [NumStages]int64
}

// Dur returns the span's total duration in nanoseconds.
func (s *Span) Dur() int64 { return s.EndNS - s.StartNS }

const (
	ringCap  = 256 // per-shard recent-span ring (power of two)
	errCap   = 128 // global errored/shed/canceled/watchdog ring (power of two)
	slowK    = 4   // slowest spans retained per function
	nBuckets = 40  // log2(ns) stage-histogram buckets: covers ~18 minutes

	flightCap     = 8                      // frozen incidents retained
	flightTraces  = 32                     // spans frozen per incident
	tripCooldown  = 2 * time.Second        // per-trigger-class incident rate limit
	shedWindow    = int64(1 * time.Second) // shed-burst detection window, ns
	shedBurst     = 32                     // sheds within the window that freeze an incident
	publishedBase = uint64(1) << 63        // namespace for publish-assigned span IDs
)

// shard is one executor's slice of the recorder: a recent-span ring plus
// per-stage log-bucket histograms, all guarded by one mutex that is
// uncontended in steady state (one finishing executor, or the one edge
// connection that carried the request, publishes here at a time).
type shard struct {
	_  [64]byte // keep neighbouring shards off this line
	mu sync.Mutex
	n  uint64 // spans ever published here
	// seq feeds publish-assigned span IDs: top bit set, shard in the next
	// 15 bits, per-shard sequence below — disjoint from NextID's range.
	seq     uint64
	ring    [ringCap]Span
	count   [NumStages]uint64
	sum     [NumStages]int64
	buckets [NumStages][nBuckets]uint32
	_       [64]byte
}

// funcSlow retains the slowest-K spans for one function. floor is the
// admission gate the hot path checks with a single atomic load: once the
// table is full it holds the smallest retained duration, so only spans
// that would actually displace an entry take the slow mutex.
type funcSlow struct {
	floor atomic.Int64
	n     int // guarded by Recorder.slowMu
	spans [slowK]Span
}

// FlightStats is the runtime gauge snapshot frozen into an incident —
// queue depths, PD/credit supply, admission limit, breaker states. The
// server wires a snapshot function (SetFlightStats); a bare pool freezes
// traces only.
type FlightStats struct {
	ExtQueue     int      `json:"ext_queue"`
	IntQueue     int      `json:"int_queue"`
	ExecQueue    int      `json:"exec_queue"`
	FreePDs      int      `json:"free_pds"`
	LivePDs      int      `json:"live_pds"`
	Inflight     int64    `json:"inflight"`
	AdmitLimit   int      `json:"admit_limit"`
	Shed         uint64   `json:"shed"`
	Rejected     uint64   `json:"rejected"`
	OpenBreakers []string `json:"open_breakers,omitempty"`
}

// Incident is one frozen flight-recorder snapshot.
type Incident struct {
	Seq      uint64
	Reason   string
	Wall     time.Time
	AtNS     int64
	Stats    FlightStats
	HasStats bool
	Traces   []Span // most recent spans across all shards, newest first
}

// Recorder owns the tracing plane for one pool: the clock epoch, the
// per-executor shards, retention, and the flight recorder.
type Recorder struct {
	epoch   time.Time
	tsc     bool  // TSC fast clock active (see clock_amd64.go)
	epochNS int64 // creation stamp on the process TSC clock (tsc only)
	shards  []*shard

	// funcs/names index per-function retention by router.Func.ID. Set
	// once by InitFuncs before traffic starts; read-only afterwards.
	funcs []*funcSlow
	names []string

	_   [56]byte
	ids atomic.Uint64 // explicit span IDs (nested-call linkage)
	_   [56]byte

	slowMu sync.Mutex // guards every funcSlow.spans/n

	errMu   sync.Mutex
	errN    uint64
	errRing [errCap]Span

	// Shed-burst detection: a coarse 1-second window of NoteShed calls.
	shedWinStart atomic.Int64
	shedWinCount atomic.Int64

	flightMu  sync.Mutex
	flightSeq uint64
	incidents []Incident       // newest last, at most flightCap
	lastTrip  map[string]int64 // per-trigger-class rate limit, ns
	statsFn   func() FlightStats
}

// NewRecorder builds a recorder with one shard per executor.
func NewRecorder(shards int) *Recorder {
	if shards < 1 {
		shards = 1
	}
	initFastClock()
	r := &Recorder{
		epoch:    time.Now(),
		lastTrip: make(map[string]int64),
	}
	if tscEnabled {
		r.tsc = true
		r.epochNS = tscNow()
	}
	r.shards = make([]*shard, shards)
	for i := range r.shards {
		r.shards[i] = &shard{}
	}
	return r
}

// InitFuncs registers the function names indexed by router.Func.ID. Must
// be called before traffic starts (pool.Start does).
func (r *Recorder) InitFuncs(names []string) {
	r.names = names
	r.funcs = make([]*funcSlow, len(names))
	for i := range r.funcs {
		r.funcs[i] = &funcSlow{}
	}
}

// SetFlightStats wires the gauge snapshot frozen into incidents. Must be
// set before traffic starts. The function is called from trigger sites
// that may hold executor or breaker locks: it must only read atomics or
// take locks that are never held while publishing/tripping (queue-depth
// and table counters qualify).
func (r *Recorder) SetFlightStats(fn func() FlightStats) { r.statsFn = fn }

// Now returns nanoseconds on the recorder's monotonic clock: the
// calibrated TSC fast path (~10 ns) where the kernel vouches for the TSC,
// else the runtime clock (see clock_amd64.go). Alloc-free.
func (r *Recorder) Now() int64 {
	if r.tsc {
		return tscNow() - r.epochNS
	}
	return time.Since(r.epoch).Nanoseconds()
}

// Wall converts a recorder timestamp back to wall time (export only).
// Anchored on the current instant — not the epoch — so TSC calibration
// error scales with how old the trace is, not how long the process has
// been up.
func (r *Recorder) Wall(ns int64) time.Time {
	return time.Now().Add(time.Duration(ns - r.Now()))
}

// NextID allocates an explicit span ID — taken lazily, only when a parent
// first needs linkable identity (its first Async), so the plain hot path
// pays no shared-counter RMW.
func (r *Recorder) NextID() uint64 { return r.ids.Add(1) }

// FuncName resolves a span's FuncID (export paths).
func (r *Recorder) FuncName(id int32) string {
	if id < 0 || int(id) >= len(r.names) {
		return "?"
	}
	return r.names[id]
}

// bucketOf maps a positive duration to its log2 bucket index.
func bucketOf(d int64) int {
	b := bits.Len64(uint64(d)) - 1
	if b >= nBuckets {
		b = nBuckets - 1
	}
	return b
}

// bucketUpperNS is the inclusive upper bound of bucket i.
func bucketUpperNS(i int) int64 { return (int64(1) << (uint(i) + 1)) - 1 }

// Publish records a completed span: memcpy into the shard ring, bump the
// per-stage histograms, then run the (atomically gated) retention checks.
// shardIdx is the finishing executor; out-of-range (sweeper finishes,
// edge refusals) spreads randomly. s is copied; the caller keeps ownership
// of the struct and may recycle it immediately. Allocation-free.
func (r *Recorder) Publish(shardIdx int, s *Span) {
	if shardIdx < 0 || shardIdx >= len(r.shards) {
		shardIdx = rand.IntN(len(r.shards))
	}
	s.Shard = int32(shardIdx)
	sh := r.shards[shardIdx]
	sh.mu.Lock()
	if s.ID == 0 {
		sh.seq++
		s.ID = publishedBase | uint64(shardIdx)<<48 | sh.seq
	}
	sh.ring[sh.n&(ringCap-1)] = *s
	sh.n++
	for st := 0; st < NumStages; st++ {
		d := s.Stages[st]
		if d <= 0 {
			continue
		}
		sh.count[st]++
		sh.sum[st] += d
		sh.buckets[st][bucketOf(d)]++
	}
	sh.mu.Unlock()

	if fid := int(s.FuncID); fid >= 0 && fid < len(r.funcs) {
		fs := r.funcs[fid]
		if d := s.Dur(); d > fs.floor.Load() {
			r.insertSlow(fs, s, d)
		}
	}
	if s.Outcome != OutcomeOK || s.Flagged {
		r.errMu.Lock()
		r.errRing[r.errN&(errCap-1)] = *s
		r.errN++
		r.errMu.Unlock()
	}
}

// insertSlow admits a span into a function's slowest-K table (rare: the
// floor gate already filtered it).
func (r *Recorder) insertSlow(fs *funcSlow, s *Span, d int64) {
	r.slowMu.Lock()
	if fs.n < slowK {
		fs.spans[fs.n] = *s
		fs.n++
		if fs.n == slowK {
			fs.floor.Store(fs.minDur())
		}
		r.slowMu.Unlock()
		return
	}
	mi, md := 0, fs.spans[0].Dur()
	for i := 1; i < slowK; i++ {
		if di := fs.spans[i].Dur(); di < md {
			mi, md = i, di
		}
	}
	if d > md {
		fs.spans[mi] = *s
		fs.floor.Store(fs.minDur())
	}
	r.slowMu.Unlock()
}

// minDur returns the smallest retained duration (slowMu held, table full).
func (fs *funcSlow) minDur() int64 {
	m := fs.spans[0].Dur()
	for i := 1; i < slowK; i++ {
		if d := fs.spans[i].Dur(); d < m {
			m = d
		}
	}
	return m
}

// NoteShed counts one tiered-shedding refusal toward burst detection: a
// shedBurst-sized run inside a one-second window freezes an incident.
// Called on the pool's shed path — a few atomics, no locks.
func (r *Recorder) NoteShed() {
	now := r.Now()
	ws := r.shedWinStart.Load()
	if now-ws > shedWindow {
		if r.shedWinStart.CompareAndSwap(ws, now) {
			r.shedWinCount.Store(1)
			return
		}
	}
	if r.shedWinCount.Add(1) == shedBurst {
		r.Trip("shed", "shed_burst")
	}
}

// TripBreaker freezes an incident for a circuit-breaker trip. Called with
// the breaker's lock held — the capture only reads atomics/queue gauges
// and takes trace-internal locks (see SetFlightStats).
func (r *Recorder) TripBreaker(fn string) { r.Trip("breaker", "breaker_trip:"+fn) }

// TripWatchdog freezes an incident for a watchdog-flagged invocation.
func (r *Recorder) TripWatchdog(fn string) { r.Trip("watchdog", "watchdog:"+fn) }

// Trip freezes a flight-recorder incident: the most recent spans across
// all shards plus the runtime gauge snapshot. Rate-limited per trigger
// class (the first trip of a storm is the interesting one); bounded at
// flightCap retained incidents. Allocates — trips are rare by design.
func (r *Recorder) Trip(class, reason string) {
	now := r.Now()
	r.flightMu.Lock()
	if last, ok := r.lastTrip[class]; ok && now-last < tripCooldown.Nanoseconds() {
		r.flightMu.Unlock()
		return
	}
	r.lastTrip[class] = now
	r.flightSeq++
	inc := Incident{
		Seq:    r.flightSeq,
		Reason: reason,
		Wall:   r.Wall(now),
		AtNS:   now,
		Traces: r.recentSpans(flightTraces),
	}
	if r.statsFn != nil {
		inc.Stats = r.statsFn()
		inc.HasStats = true
	}
	r.incidents = append(r.incidents, inc)
	if len(r.incidents) > flightCap {
		r.incidents = r.incidents[len(r.incidents)-flightCap:]
	}
	r.flightMu.Unlock()
}

// Incidents returns the retained flight-recorder snapshots, newest first.
func (r *Recorder) Incidents() []Incident {
	r.flightMu.Lock()
	out := make([]Incident, len(r.incidents))
	for i := range r.incidents {
		out[i] = r.incidents[len(r.incidents)-1-i]
	}
	r.flightMu.Unlock()
	return out
}

// recentSpans copies the newest k spans across all shards, newest first.
func (r *Recorder) recentSpans(k int) []Span {
	all := make([]Span, 0, ringCap*len(r.shards))
	for _, sh := range r.shards {
		sh.mu.Lock()
		n := sh.n
		cnt := int(n)
		if cnt > ringCap {
			cnt = ringCap
		}
		for i := 0; i < cnt; i++ {
			all = append(all, sh.ring[(n-1-uint64(i))&(ringCap-1)])
		}
		sh.mu.Unlock()
	}
	slices.SortFunc(all, func(a, b Span) int { return cmp.Compare(b.EndNS, a.EndNS) })
	if len(all) > k {
		all = all[:k]
	}
	return all
}

// StageHist is one stage's merged latency histogram (export).
type StageHist struct {
	Stage   string
	Count   uint64
	SumNS   int64
	Buckets [nBuckets]uint64 // raw per-bucket counts; bucket i upper bound bucketUpperNS(i)
}

// NumStageBuckets exposes the bucket count for exporters.
const NumStageBuckets = nBuckets

// StageBucketUpperNS exposes bucket bounds for exporters.
func StageBucketUpperNS(i int) int64 { return bucketUpperNS(i) }

// StageHists merges every shard's per-stage histograms.
func (r *Recorder) StageHists() [NumStages]StageHist {
	var out [NumStages]StageHist
	for st := 0; st < NumStages; st++ {
		out[st].Stage = Stage(st).Name()
	}
	for _, sh := range r.shards {
		sh.mu.Lock()
		for st := 0; st < NumStages; st++ {
			out[st].Count += sh.count[st]
			out[st].SumNS += sh.sum[st]
			for b := 0; b < nBuckets; b++ {
				out[st].Buckets[b] += uint64(sh.buckets[st][b])
			}
		}
		sh.mu.Unlock()
	}
	return out
}

// quantileNS estimates a quantile from a log-bucket histogram (upper
// bound of the bucket holding the q-th sample).
func (h *StageHist) quantileNS(q float64) int64 {
	if h.Count == 0 {
		return 0
	}
	target := uint64(q * float64(h.Count))
	if target >= h.Count {
		target = h.Count - 1
	}
	var cum uint64
	for i := 0; i < nBuckets; i++ {
		cum += h.Buckets[i]
		if cum > target {
			return bucketUpperNS(i)
		}
	}
	return bucketUpperNS(nBuckets - 1)
}
