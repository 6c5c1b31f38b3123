package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"math/rand"
	"os"
	"runtime"
	"sync/atomic"
	"time"

	"jord/internal/metrics"
	"jord/internal/server/pool"
	"jord/internal/server/router"
	"jord/internal/server/state"
	"jord/internal/workloads"
)

// allocGateMax is the allocs/op ceiling for the snapshot read scenarios:
// nominally zero, with headroom only for whole-process noise (background GC
// bookkeeping), the same magnitude BENCH_live.json records for the 0-alloc
// invoke path. CI fails past it.
const allocGateMax = 0.5

// stateResult is one scenario's row in BENCH_state.json.
type stateResult struct {
	Name        string `json:"name"`
	Description string `json:"description"`
	Requests    int    `json:"requests"`
	Workers     int    `json:"workers"`

	ThroughputRPS float64 `json:"throughput_rps"`
	P50Us         float64 `json:"p50_us"`
	P99Us         float64 `json:"p99_us"`
	P999Us        float64 `json:"p999_us"`
	MeanUs        float64 `json:"mean_us"`

	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`

	// CopiedBytesPerOp is what crossed a store boundary by value, per
	// request: always 0 for the shared-state tier (snapshots are aliases),
	// the full value size for the copying baseline.
	CopiedBytesPerOp float64 `json:"copied_bytes_per_op"`

	// TakeConflicts counts requests re-issued because a Take found the key
	// held (state.ErrTaken): a neighbour descheduled mid-update, which a
	// box with fewer cores than workers produces. Latency spans the retries.
	TakeConflicts uint64 `json:"take_conflicts"`

	// Store counters over the measured window (absent for baseline-only
	// scenarios).
	State *state.Stats `json:"state,omitempty"`
}

// stateReport is the whole BENCH_state.json document.
type stateReport struct {
	reportHead

	Scenarios []stateResult `json:"scenarios"`

	// Comparison is the headline criterion: snapshot reads vs the
	// copy-per-request baseline on the same read stream.
	Comparison struct {
		SharedReadCopiedPerOp   float64 `json:"shared_read_copied_bytes_per_op"`
		BaselineReadCopiedPerOp float64 `json:"baseline_read_copied_bytes_per_op"`
		SharedAvoidedPerOp      float64 `json:"shared_copy_bytes_avoided_per_op"`
		ReductionOK             bool    `json:"reduction_at_least_2x"`
	} `json:"comparison"`
}

// stateRig is one scenario's fresh runtime: pool + store (+ the copying
// baseline's counters when its functions are registered).
type stateRig struct {
	p    *pool.Pool
	st   *state.Store
	copy *workloads.CopyStats
}

func newStateRig(promoteAfter int, register func(*router.Registry, *stateRig)) *stateRig {
	r := &stateRig{}
	reg := router.New()
	register(reg, r)
	r.p = pool.New(pool.Config{JBSQBound: 4}, reg)
	st, err := state.New(state.Config{PromoteAfter: promoteAfter}, r.p.Table())
	if err != nil {
		log.Fatal(err)
	}
	r.st = st
	r.p.SetState(st)
	r.p.Start()
	return r
}

func (r *stateRig) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := r.p.Drain(ctx); err != nil {
		log.Fatalf("drain: %v", err)
	}
	if err := r.st.VerifyIdle(); err != nil {
		log.Fatalf("store not idle after drain: %v", err)
	}
	if err := r.st.Close(); err != nil {
		log.Fatalf("store close: %v", err)
	}
	if tab := r.p.Table(); tab.LivePDs() != 0 || tab.Faults() != 0 {
		log.Fatalf("pool not clean after load: live_pds=%d faults=%d", tab.LivePDs(), tab.Faults())
	}
}

// runStateScenario measures a request stream where each worker draws its
// (function, payload) per iteration — the state analogue of
// runLiveScenario, generalized for mixed workloads.
func runStateScenario(r *stateRig, name, desc string, requests, workers int,
	pick func(w, i int) (fn string, payload []byte)) stateResult {
	ctx := context.Background()
	// invoke re-issues a request whose Take lost the race for its key and
	// counts it; every other error stays the caller's.
	var conflicts atomic.Uint64
	invoke := func(fn string, payload []byte) error {
		for {
			_, err := r.p.Invoke(ctx, fn, payload)
			if !errors.Is(err, state.ErrTaken) {
				return err
			}
			conflicts.Add(1)
		}
	}

	warm := requests / 10
	if warm > 2000 {
		warm = 2000
	}
	for i := 0; i < warm; i++ {
		fn, payload := pick(0, i)
		if err := invoke(fn, payload); err != nil {
			log.Fatalf("%s warmup: %v", name, err)
		}
	}
	conflicts.Store(0)

	statsBefore := r.st.StatsSnapshot()
	var copiedBefore uint64
	if r.copy != nil {
		copiedBefore = r.copy.ReadBytes.Load() + r.copy.WriteBytes.Load()
	}

	var hist metrics.ShardedHistogram
	hist.SetShards(workers)
	errCh := make(chan error, workers)
	perWork := requests / workers

	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)

	start := time.Now()
	for w := 0; w < workers; w++ {
		go func(w int) {
			for i := 0; i < perWork; i++ {
				fn, payload := pick(w, i)
				t0 := time.Now()
				if err := invoke(fn, payload); err != nil {
					errCh <- fmt.Errorf("%s(%s): %w", fn, payload, err)
					return
				}
				hist.RecordShard(w, time.Since(t0).Nanoseconds())
			}
			errCh <- nil
		}(w)
	}
	for w := 0; w < workers; w++ {
		if err := <-errCh; err != nil {
			log.Fatalf("%s: %v", name, err)
		}
	}
	elapsed := time.Since(start)

	var after runtime.MemStats
	runtime.ReadMemStats(&after)

	n := perWork * workers
	snap := hist.Snapshot()

	statsAfter := r.st.StatsSnapshot()
	window := diffStats(statsBefore, statsAfter)

	var copiedPerOp float64
	if r.copy != nil {
		copiedPerOp = float64(r.copy.ReadBytes.Load()+r.copy.WriteBytes.Load()-copiedBefore) / float64(n)
	}

	return stateResult{
		Name:          name,
		Description:   desc,
		Requests:      n,
		Workers:       workers,
		ThroughputRPS: float64(n) / elapsed.Seconds(),
		P50Us:         float64(snap.P50) / 1e3,
		P99Us:         float64(snap.P99) / 1e3,
		P999Us:        float64(snap.P999) / 1e3,
		MeanUs:        snap.Mean / 1e3,
		AllocsPerOp:   float64(after.Mallocs-before.Mallocs) / float64(n),
		BytesPerOp:    float64(after.TotalAlloc-before.TotalAlloc) / float64(n),

		CopiedBytesPerOp: copiedPerOp,
		TakeConflicts:    conflicts.Load(),
		State:            &window,
	}
}

// diffStats returns the counter deltas over a measurement window (gauges —
// entries, bytes, outstanding — keep their end-of-window values).
func diffStats(a, b state.Stats) state.Stats {
	return state.Stats{
		Entries:          b.Entries,
		Bytes:            b.Bytes,
		Outstanding:      b.Outstanding,
		Gets:             b.Gets - a.Gets,
		FastGets:         b.FastGets - a.FastGets,
		StaleGets:        b.StaleGets - a.StaleGets,
		Takes:            b.Takes - a.Takes,
		Commits:          b.Commits - a.Commits,
		Discards:         b.Discards - a.Discards,
		Puts:             b.Puts - a.Puts,
		Creates:          b.Creates - a.Creates,
		Deletes:          b.Deletes - a.Deletes,
		Promotions:       b.Promotions - a.Promotions,
		Demotions:        b.Demotions - a.Demotions,
		CopyBytesAvoided: b.CopyBytesAvoided - a.CopyBytesAvoided,
		DegradedRefusals: b.DegradedRefusals - a.DegradedRefusals,
		CapacityRefusals: b.CapacityRefusals - a.CapacityRefusals,
	}
}

// socialPick returns a deterministic weighted social-mix draw for one
// variant prefix: 60% timeline / 25% post / 10% follow / 5% profile over a
// small skewed user set, seeded per worker.
func socialPick(prefix string, workers int) func(w, i int) (string, []byte) {
	rngs := make([]*rand.Rand, workers)
	zipfs := make([]*rand.Zipf, workers)
	for w := range rngs {
		rngs[w] = rand.New(rand.NewSource(int64(w + 1)))
		zipfs[w] = rand.NewZipf(rngs[w], 1.2, 1, 15)
	}
	return func(w, i int) (string, []byte) {
		rng, zipf := rngs[w], zipfs[w]
		u := fmt.Sprintf("u%d", zipf.Uint64())
		switch r := rng.Float64(); {
		case r < 0.60:
			return prefix + "timeline", []byte(u)
		case r < 0.85:
			return prefix + "post", []byte(fmt.Sprintf("%s musing %d on shared state", u, i))
		case r < 0.95:
			return prefix + "follow", []byte(fmt.Sprintf("%s u%d", u, rng.Intn(16)))
		default:
			return prefix + "profile", []byte(u)
		}
	}
}

// runState benchmarks the shared-state tier in-process and writes
// BENCH_state.json. It exits nonzero if the snapshot read path allocates
// (the 0-allocs/op gate) or the copy-reduction criterion fails.
func runState(out string, requests, workers int) {
	report := stateReport{reportHead: newReportHead("jordbench -state")}

	blob := make([]byte, 4096)
	for i := range blob {
		blob[i] = byte(i)
	}

	// getBody registers a reader of the 4 KiB blob via the shared tier.
	getBody := func(reg *router.Registry, _ *stateRig) {
		reg.MustRegister("get4k", func(ctx router.Ctx) ([]byte, error) {
			sn, err := ctx.StateGet(router.StateGlobal, "blob")
			if err != nil {
				return nil, err
			}
			if len(sn.Bytes()) != len(blob) {
				return nil, fmt.Errorf("bad blob length %d", len(sn.Bytes()))
			}
			sn.Release()
			return nil, nil
		})
	}
	seedBlob := func(r *stateRig) {
		if _, err := r.p.Invoke(context.Background(), "seed", nil); err != nil {
			log.Fatalf("seeding blob: %v", err)
		}
	}
	seedBody := func(reg *router.Registry) {
		reg.MustRegister("seed", func(ctx router.Ctx) ([]byte, error) {
			_, err := ctx.StatePut(router.StateGlobal, "blob", blob)
			return nil, err
		})
	}
	fixed := func(fn string) func(int, int) (string, []byte) {
		return func(int, int) (string, []byte) { return fn, nil }
	}

	// 1. Granted snapshot path: pcopy R per reader PD, zero copies.
	r := newStateRig(-1, func(reg *router.Registry, rg *stateRig) { getBody(reg, rg); seedBody(reg) })
	seedBlob(r)
	res := runStateScenario(r, "state_get",
		"4 KiB snapshot read, promotion off: pcopy R grant per reader PD, zero-copy alias",
		requests, workers, fixed("get4k"))
	r.close()
	report.Scenarios = append(report.Scenarios, res)

	// 2. Global-RO fast path: G bit set, one atomic load per snapshot.
	r = newStateRig(8, func(reg *router.Registry, rg *stateRig) { getBody(reg, rg); seedBody(reg) })
	seedBlob(r)
	res = runStateScenario(r, "state_get_global_ro",
		"4 KiB snapshot read of a promoted key: VTE G bit, no PDs, no copies, no locks",
		requests, workers, fixed("get4k"))
	if res.State.FastGets == 0 {
		log.Fatalf("state_get_global_ro: key never promoted (fast_gets = 0)")
	}
	r.close()
	report.Scenarios = append(report.Scenarios, res)

	// 3. Exclusive-ownership read-modify-write: pmove out, commit, pmove back.
	r = newStateRig(-1, func(reg *router.Registry, _ *stateRig) {
		reg.MustRegister("bump", func(ctx router.Ctx) ([]byte, error) {
			tx, err := ctx.StateTake(router.StateGlobal, "ctr")
			if err != nil {
				return nil, err
			}
			n := uint64(0)
			if b := tx.Bytes(); len(b) == 8 {
				for _, c := range b {
					n = n<<8 | uint64(c)
				}
			}
			n++
			buf := make([]byte, 8)
			for i := 7; i >= 0; i-- {
				buf[i] = byte(n)
				n >>= 8
			}
			_, err = tx.Commit(buf)
			return nil, err
		})
	})
	res = runStateScenario(r, "state_rmw",
		"take/commit counter increment: pmove RW ownership out and back per request",
		requests, workers, func(w, i int) (string, []byte) { return "bump", nil })
	r.close()
	report.Scenarios = append(report.Scenarios, res)

	// 4 & 5. The social mix, shared state vs copy-per-request baseline.
	socialReqs := requests / 2 // post fan-out makes these heavier per request
	r = newStateRig(8, func(reg *router.Registry, _ *stateRig) { workloads.RegisterSocialLive(reg) })
	shared := runStateScenario(r, "social_shared",
		"social-network mix (60r/25p/10f/5p) over the shared-state tier",
		socialReqs, workers, socialPick("social.", workers))
	r.close()
	report.Scenarios = append(report.Scenarios, shared)

	r = newStateRig(-1, func(reg *router.Registry, rg *stateRig) {
		rg.copy = workloads.RegisterSocialCopy(reg)
	})
	baseline := runStateScenario(r, "social_copy",
		"identical mix over the copy-per-request baseline store (memcpy both ways)",
		socialReqs, workers, socialPick("socialcopy.", workers))
	r.close()
	report.Scenarios = append(report.Scenarios, baseline)

	// Headline comparison: bytes copied across the store boundary on the
	// read stream. The shared tier hands out aliases, so its number is zero
	// by construction; the criterion requires at least a 2x reduction.
	report.Comparison.SharedReadCopiedPerOp = 0
	report.Comparison.BaselineReadCopiedPerOp = baseline.CopiedBytesPerOp
	report.Comparison.SharedAvoidedPerOp =
		float64(shared.State.CopyBytesAvoided) / float64(shared.Requests)
	report.Comparison.ReductionOK =
		baseline.CopiedBytesPerOp >= 2*report.Comparison.SharedReadCopiedPerOp &&
			baseline.CopiedBytesPerOp > 0

	for _, sc := range report.Scenarios {
		log.Printf("%-20s %9.0f req/s  p50 %6.1fus  p99 %6.1fus  %6.2f allocs/op  %8.0f copied B/op",
			sc.Name, sc.ThroughputRPS, sc.P50Us, sc.P99Us, sc.AllocsPerOp, sc.CopiedBytesPerOp)
	}

	writeReport(out, report)

	// Regression gates (CI smoke): the snapshot read path must stay
	// allocation-free, and the copy reduction must hold.
	failed := false
	for _, sc := range report.Scenarios {
		if (sc.Name == "state_get" || sc.Name == "state_get_global_ro") && sc.AllocsPerOp > allocGateMax {
			log.Printf("FAIL: %s allocates %.3f/op (gate %.1f)", sc.Name, sc.AllocsPerOp, allocGateMax)
			failed = true
		}
	}
	if !report.Comparison.ReductionOK {
		log.Printf("FAIL: copy reduction criterion: baseline %.0f B/op vs shared %.0f B/op",
			report.Comparison.BaselineReadCopiedPerOp, report.Comparison.SharedReadCopiedPerOp)
		failed = true
	}
	if failed {
		os.Exit(1)
	}
}
