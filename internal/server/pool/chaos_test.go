// Fault-injection chaos suite: drives the live pool's public API with the
// faultfn vocabulary — panicking bodies, fire-and-forget Asyncs, stuck
// sleepers, abandoning callers, deep nesting, PD pressure — and then
// proves the request-lifecycle invariants hold once the dust settles:
// after Drain, zero live PDs (every PD accounted for exactly once across
// the free lists), zero leaked goroutines, and zero recycled-object
// aliasing (every validated result matched its payload).
//
// The suite is seeded and all per-job randomness is drawn on one
// goroutine, so a failing mix replays. Run it the way CI does:
//
//	go test -race -short -run 'TestChaos' ./internal/server/pool
package pool_test

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"jord/internal/server/pool"
	"jord/internal/server/router"
	"jord/internal/server/state"
)

// chaosJob is one pre-rolled invocation: which fault body, its payload,
// how patient the caller is, and whether the caller walks away mid-flight.
type chaosJob struct {
	fn        string
	payload   []byte
	deadline  time.Duration
	abandonAt time.Duration // 0 = caller waits the deadline out
}

func TestChaosMixedFaults(t *testing.T) {
	iters := 400
	if testing.Short() {
		iters = 100
	}
	const workers = 8
	baseline := runtime.NumGoroutine()

	reg := router.New()
	registerFaults(reg)
	// Small PD space (but above the worst case of `workers` concurrent
	// depth-6 chains, 7 PDs each, so suspended holders can always make
	// progress), fast sweep, tight watchdog: every lifecycle mechanism
	// added for this suite is hot.
	p := pool.New(pool.Config{
		Executors:        4,
		Orchestrators:    2,
		JBSQBound:        2,
		ExternalQueueCap: 64,
		NumPDs:           64,
		SweepInterval:    time.Millisecond,
		ExecTimeout:      10 * time.Millisecond,
	}, reg)
	p.Start()

	rng := rand.New(rand.NewSource(20250806))
	names := faultNames()

	var (
		mu       sync.Mutex
		failures []string
	)
	fail := func(format string, args ...any) {
		mu.Lock()
		failures = append(failures, fmt.Sprintf(format, args...))
		mu.Unlock()
	}

	jobs := make(chan chaosJob)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				ctx, cancel := context.WithTimeout(context.Background(), j.deadline)
				if j.abandonAt > 0 {
					time.AfterFunc(j.abandonAt, cancel)
				}
				got, err := p.Invoke(ctx, j.fn, j.payload)
				cancel()
				switch {
				case err != nil && strings.Contains(err.Error(), "aliasing"):
					// A validating body saw someone else's bytes: the exact
					// recycled-object corruption this suite exists to catch.
					fail("%s(%v): %v", j.fn, j.payload, err)
				case err == nil && (j.fn == "echo" || j.fn == "fan") && !bytes.Equal(got, j.payload):
					fail("%s(%v) = %v: result corrupted", j.fn, j.payload, got)
				}
				// Every other error is an expected storm product: deadlines,
				// abandons, panics-turned-500s, saturation.
			}
		}()
	}

	for i := 0; i < iters; i++ {
		var j chaosJob
		// Weight the validating bodies up so aliasing has dense coverage.
		if rng.Intn(3) == 0 {
			j.fn = []string{"echo", "fan"}[rng.Intn(2)]
		} else {
			j.fn = names[rng.Intn(len(names))]
		}
		j.payload = make([]byte, rng.Intn(7))
		for k := range j.payload {
			j.payload[k] = byte(rng.Intn(25)) // sleeps ≤ 24ms, chains ≤ depth 6
		}
		j.deadline = time.Duration(5+rng.Intn(40)) * time.Millisecond
		if rng.Intn(4) == 0 {
			j.abandonAt = time.Duration(1+rng.Intn(8)) * time.Millisecond
		}
		jobs <- j
	}
	close(jobs)
	wg.Wait()

	// Deterministic tail: guarantee each lifecycle path fired at least once
	// no matter how the random mix above played out.
	if _, err := p.Invoke(context.Background(), "forget", []byte{3}); err != nil {
		t.Errorf("forget: %v", err)
	}
	if _, err := p.Invoke(context.Background(), "forgetboom", []byte{3}); err == nil ||
		!strings.Contains(err.Error(), "forgetboom") {
		t.Errorf("forgetboom should surface its panic, got %v", err)
	}
	if _, err := p.Invoke(context.Background(), "stuck", []byte{40}); err != nil {
		t.Errorf("stuck: %v", err)
	}

	drainAndVerify(t, p, baseline)

	st := p.Stats()
	if st.Completed.Load() == 0 {
		t.Error("chaos run completed nothing")
	}
	if st.Orphaned.Load() == 0 {
		t.Error("orphan reaping never fired (forget ran above)")
	}
	if st.Watchdog.Load() == 0 {
		t.Error("watchdog never flagged the stuck body")
	}

	mu.Lock()
	defer mu.Unlock()
	for _, f := range failures {
		t.Error(f)
	}
}

// TestChaosStateful runs the storm against a pool with the shared-state
// tier attached, mixing the stateful fault bodies (panics with open
// transactions and held snapshots, rude sleepers that return with a tx
// open, snapshot pile-ups that are never released) with the lifecycle
// faults, under tight deadlines and abandoning callers. The settle-down
// invariant is the one ISSUE 6 demands: after Drain the store has zero
// outstanding handles, zero taken keys, and zero grants besides its own
// resident ownership — every state-held PD grant the bodies leaked was
// mopped up by invocation teardown.
func TestChaosStateful(t *testing.T) {
	iters := 400
	if testing.Short() {
		iters = 100
	}
	const workers = 8
	baseline := runtime.NumGoroutine()

	reg := router.New()
	registerFaults(reg)
	p := pool.New(pool.Config{
		Executors:        4,
		Orchestrators:    2,
		JBSQBound:        2,
		ExternalQueueCap: 64,
		NumPDs:           64,
		SweepInterval:    time.Millisecond,
		ExecTimeout:      10 * time.Millisecond,
	}, reg)
	// Low promotion threshold so the storm crosses the global-RO
	// promote/demote boundary constantly, with readers in flight.
	st, err := state.New(state.Config{PromoteAfter: 4}, p.Table())
	if err != nil {
		t.Fatal(err)
	}
	p.SetState(st)
	p.Start()

	rng := rand.New(rand.NewSource(20250807))
	stateful := []string{"stateboom", "statestuck", "stateforget", "staterw"}
	names := faultNames()

	var (
		mu       sync.Mutex
		failures []string
	)
	fail := func(format string, args ...any) {
		mu.Lock()
		failures = append(failures, fmt.Sprintf(format, args...))
		mu.Unlock()
	}

	jobs := make(chan chaosJob)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				ctx, cancel := context.WithTimeout(context.Background(), j.deadline)
				if j.abandonAt > 0 {
					time.AfterFunc(j.abandonAt, cancel)
				}
				_, err := p.Invoke(ctx, j.fn, j.payload)
				cancel()
				if err != nil && strings.Contains(err.Error(), "aliasing") {
					// staterw (or a validating lifecycle body) read someone
					// else's bytes through the state tier.
					fail("%s(%v): %v", j.fn, j.payload, err)
				}
			}
		}()
	}

	for i := 0; i < iters; i++ {
		var j chaosJob
		// Half the mix is stateful so every teardown path (discard open tx,
		// release piled-up grants, both under panic and under kill) gets
		// dense coverage; the other half keeps the lifecycle storm alive
		// around it.
		if rng.Intn(2) == 0 {
			j.fn = stateful[rng.Intn(len(stateful))]
		} else {
			j.fn = names[rng.Intn(len(names))]
		}
		j.payload = make([]byte, 1+rng.Intn(6))
		for k := range j.payload {
			j.payload[k] = byte(rng.Intn(25))
		}
		j.deadline = time.Duration(5+rng.Intn(40)) * time.Millisecond
		if rng.Intn(4) == 0 {
			j.abandonAt = time.Duration(1+rng.Intn(8)) * time.Millisecond
		}
		jobs <- j
	}
	close(jobs)
	wg.Wait()

	// Deterministic tail: each stateful teardown path fires at least once
	// regardless of how the random mix played out.
	if _, err := p.Invoke(context.Background(), "stateboom", []byte{1}); err == nil ||
		!strings.Contains(err.Error(), "stateboom") {
		t.Errorf("stateboom should surface its panic, got %v", err)
	}
	if _, err := p.Invoke(context.Background(), "statestuck", []byte{2, 40}); err != nil &&
		!strings.Contains(err.Error(), "taken") {
		t.Errorf("statestuck: %v", err)
	}
	if _, err := p.Invoke(context.Background(), "stateforget", []byte{3}); err != nil {
		t.Errorf("stateforget: %v", err)
	}
	if got, err := p.Invoke(context.Background(), "staterw", []byte{4}); err != nil {
		t.Errorf("staterw: %v", err)
	} else if !bytes.Equal(got, []byte{4}) {
		t.Errorf("staterw = %v, want [4]", got)
	}

	drainAndVerify(t, p, baseline, func() error {
		if err := st.VerifyIdle(); err != nil {
			return fmt.Errorf("state store not idle after drain: %w", err)
		}
		return st.Close()
	})

	ss := st.StatsSnapshot()
	if ss.Takes == 0 || ss.Gets == 0 {
		t.Errorf("stateful mix never hit the store: %+v", ss)
	}
	if ss.Discards == 0 {
		t.Error("teardown never discarded an open transaction (stateboom/statestuck ran above)")
	}
	if ss.Outstanding != 0 {
		t.Errorf("%d state handles outstanding after drain", ss.Outstanding)
	}

	mu.Lock()
	defer mu.Unlock()
	for _, f := range failures {
		t.Error(f)
	}
}

// TestChaosPDStarvation hammers a PD space sized barely above the depth-1
// progress guarantee (reserve rule, pool.Config.PDReserve) with
// validating fan-outs and abandoning callers, so every invocation fights
// through the cget stall/wake path while results must still come back
// uncorrupted.
func TestChaosPDStarvation(t *testing.T) {
	rounds := 50
	if testing.Short() {
		rounds = 15
	}
	const workers = 8
	baseline := runtime.NumGoroutine()

	reg := router.New()
	registerFaults(reg)
	p := pool.New(pool.Config{
		Executors:     4,
		Orchestrators: 1,
		NumPDs:        6,
		SweepInterval: time.Millisecond,
	}, reg)
	p.Start()

	var wg sync.WaitGroup
	errs := make(chan error, workers*rounds)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			payload := []byte{byte(w), byte(w + 1), byte(w + 2), byte(w + 3)}
			for i := 0; i < rounds; i++ {
				ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
				got, err := p.Invoke(ctx, "fan", payload)
				cancel()
				if err != nil {
					errs <- fmt.Errorf("worker %d round %d: %w", w, i, err)
					return
				}
				if !bytes.Equal(got, payload) {
					errs <- fmt.Errorf("worker %d round %d: fan = %v, want %v", w, i, got, payload)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	drainAndVerify(t, p, baseline)
}

// drainAndVerify shuts the pool down and asserts the post-drain
// invariants: Drain converges, the PD table is exactly idle (free count
// equals capacity and every PD sits on exactly one free list), and the
// process goroutine count returns to its pre-pool baseline. Any post
// hooks run between Drain and the table check — a store rig uses them to
// verify and close its state tier, whose resident PD would otherwise
// (correctly) fail the idle check.
func drainAndVerify(t *testing.T, p *pool.Pool, baseline int, post ...func() error) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := p.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	for _, fn := range post {
		if err := fn(); err != nil {
			t.Error(err)
		}
	}
	if err := p.Table().VerifyIdle(); err != nil {
		t.Errorf("PD table not idle after drain: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	var n int
	for time.Now().Before(deadline) {
		// Slack of 3 over baseline: runtime-internal goroutines (timer
		// scavenger, race runtime) come and go independent of the pool.
		if n = runtime.NumGoroutine(); n <= baseline+3 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	t.Errorf("goroutines leaked: %d live vs %d baseline\n%s", n, baseline, buf)
}
