package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"math/rand"
	"strconv"
	"sync/atomic"
	"time"

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
	result

	// CopiedBytesPerOp is what crossed a store boundary by value, per
	// request: always 0 for the shared-state tier (snapshots are aliases),
	// the full value size for the copying baseline.
	CopiedBytesPerOp float64 `json:"copied_bytes_per_op"`

	// TakeConflicts counts requests re-issued because a Take found the key
	// held (state.ErrTaken): a neighbour descheduled mid-update, which a
	// box with fewer cores than clients produces. Latency spans the retries.
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

// copied is the bytes the copying baseline has moved across its store
// boundary so far (0 without it).
func (r *stateRig) copied() uint64 {
	if r.copy == nil {
		return 0
	}
	return r.copy.ReadBytes.Load() + r.copy.WriteBytes.Load()
}

// runStateScenario measures a request stream where each client draws its
// (function, payload) per request from pick. A request whose Take lost
// the race for its key is re-issued and counted; every other error is
// fatal. The counters cover the measured window only.
func runStateScenario(r *stateRig, name, desc string, requests, clients int,
	pick func(client, i int) (fn string, payload []byte)) stateResult {
	var conflicts atomic.Uint64
	do := func(c, i int) error {
		fn, payload := pick(c, i)
		for {
			_, err := r.p.Invoke(context.Background(), fn, payload)
			if !errors.Is(err, state.ErrTaken) {
				if err != nil {
					return fmt.Errorf("%s(%s): %w", fn, payload, err)
				}
				return nil
			}
			conflicts.Add(1)
		}
	}

	if _, err := run(warmup(requests), clients, do); err != nil {
		log.Fatalf("%s warmup: %v", name, err)
	}
	conflicts.Store(0)
	statsBefore, copiedBefore := r.st.StatsSnapshot(), r.copied()

	res, err := run(requests, clients, do)
	if err != nil {
		log.Fatalf("%s: %v", name, err)
	}
	window := diffStats(statsBefore, r.st.StatsSnapshot())
	return stateResult{
		Name:             name,
		Description:      desc,
		result:           res,
		CopiedBytesPerOp: float64(r.copied()-copiedBefore) / float64(res.Requests),
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
// small skewed user set, seeded per client. The draw allocates nothing, so
// allocs_per_op counts the runtime's allocations, not the generator's:
// the function names are built once, and each client's payload is rebuilt
// in place in its own buffer. That is safe because Invoke returns before
// the client draws again and the social bodies copy what they keep.
func socialPick(prefix string, clients int) func(c, i int) (string, []byte) {
	timeline, post, follow, profile := prefix+"timeline", prefix+"post", prefix+"follow", prefix+"profile"
	rngs := make([]*rand.Rand, clients)
	zipfs := make([]*rand.Zipf, clients)
	bufs := make([][]byte, clients)
	for c := range rngs {
		rngs[c] = rand.New(rand.NewSource(int64(c + 1)))
		zipfs[c] = rand.NewZipf(rngs[c], 1.2, 1, 15)
	}
	return func(c, i int) (string, []byte) {
		rng, zipf := rngs[c], zipfs[c]
		b := strconv.AppendUint(append(bufs[c][:0], 'u'), zipf.Uint64(), 10)
		fn := profile
		switch r := rng.Float64(); {
		case r < 0.60:
			fn = timeline
		case r < 0.85:
			fn = post
			b = strconv.AppendInt(append(b, " musing "...), int64(i), 10)
			b = append(b, " on shared state"...)
		case r < 0.95:
			fn = follow
			b = strconv.AppendInt(append(b, " u"...), int64(rng.Intn(16)), 10)
		}
		bufs[c] = b
		return fn, b
	}
}

// runState benchmarks the shared-state tier in-process and writes
// BENCH_state.json. It returns false if gate is set and a gate failed.
func runState(out string, requests, clients int, gate bool) bool {
	report := stateReport{reportHead: newReportHead("jordbench -mode state")}

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
		requests, clients, fixed("get4k"))
	r.close()
	report.Scenarios = append(report.Scenarios, res)

	// 2. Global-RO fast path: G bit set, one atomic load per snapshot.
	r = newStateRig(8, func(reg *router.Registry, rg *stateRig) { getBody(reg, rg); seedBody(reg) })
	seedBlob(r)
	res = runStateScenario(r, "state_get_global_ro",
		"4 KiB snapshot read of a promoted key: VTE G bit, no PDs, no copies, no locks",
		requests, clients, fixed("get4k"))
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
		requests, clients, func(w, i int) (string, []byte) { return "bump", nil })
	r.close()
	report.Scenarios = append(report.Scenarios, res)

	// 4 & 5. The social mix, shared state vs copy-per-request baseline.
	socialReqs := requests / 2 // post fan-out makes these heavier per request
	r = newStateRig(8, func(reg *router.Registry, _ *stateRig) { workloads.RegisterSocialLive(reg) })
	shared := runStateScenario(r, "social_shared",
		"social-network mix (60r/25p/10f/5p) over the shared-state tier",
		socialReqs, clients, socialPick("social.", clients))
	r.close()
	report.Scenarios = append(report.Scenarios, shared)

	r = newStateRig(-1, func(reg *router.Registry, rg *stateRig) {
		rg.copy = workloads.RegisterSocialCopy(reg)
	})
	baseline := runStateScenario(r, "social_copy",
		"identical mix over the copy-per-request baseline store (memcpy both ways)",
		socialReqs, clients, socialPick("socialcopy.", clients))
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

	return !gate || checkStateGates(report)
}

// checkStateGates evaluates the CI smoke gates: the snapshot read paths
// must stay allocation-free and the copy reduction must hold. It returns
// true when both pass, logging each verdict.
func checkStateGates(report stateReport) bool {
	ok := true
	for _, sc := range report.Scenarios {
		if sc.Name != "state_get" && sc.Name != "state_get_global_ro" {
			continue
		}
		if sc.AllocsPerOp > allocGateMax {
			log.Printf("GATE FAIL: %s allocates %.3f/op (limit %.1f)", sc.Name, sc.AllocsPerOp, allocGateMax)
			ok = false
		} else {
			log.Printf("gate ok: %s %.3f allocs/op (limit %.1f)", sc.Name, sc.AllocsPerOp, allocGateMax)
		}
	}
	if !report.Comparison.ReductionOK {
		log.Printf("GATE FAIL: copy reduction criterion: baseline %.0f B/op vs shared %.0f B/op",
			report.Comparison.BaselineReadCopiedPerOp, report.Comparison.SharedReadCopiedPerOp)
		ok = false
	} else {
		log.Printf("gate ok: copy reduction: baseline %.0f B/op vs shared %.0f B/op",
			report.Comparison.BaselineReadCopiedPerOp, report.Comparison.SharedReadCopiedPerOp)
	}
	return ok
}
