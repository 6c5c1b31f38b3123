// The fault vocabulary: a registry of deliberately misbehaving live
// function bodies that the chaos tests (chaos_test.go) drive the runtime
// with. jordd registers none of these bodies.
// Each body exercises one request-lifecycle hazard the runtime must
// survive: panics mid-flight, fire-and-forget Asyncs whose children
// outlive their parent, bodies that stall past every deadline, fan-outs
// that amplify cancellation, and nesting deep enough to exhaust the PD
// space.
//
// Bodies are deterministic given their payload: all randomness lives in
// the driver, which encodes the behavior it wants in the bytes it sends.
// Every validating body checks its own results and reports corruption as
// an error, so recycled-object aliasing shows up as test failures rather
// than silent wrong answers.

package pool_test

import (
	"bytes"
	"errors"
	"fmt"
	"time"

	"jord/internal/server/pool"
	"jord/internal/server/router"
	"jord/internal/server/state"
)

// maxFaultSleep caps every sleeping body so a chaos run cannot wedge on one
// absurd payload.
const maxFaultSleep = 250 * time.Millisecond

// sleepFor decodes a payload byte into a bounded sleep duration.
func sleepFor(b byte) time.Duration {
	d := time.Duration(b) * time.Millisecond
	if d > maxFaultSleep {
		d = maxFaultSleep
	}
	return d
}

// registerFaults deploys the whole fault vocabulary onto a registry:
//
//	echo         returns the payload unchanged (the aliasing canary).
//	boom         panics immediately.
//	slow         sleeps payload[0] milliseconds, then echoes.
//	stuck        like slow, but ignores cancellation entirely — the body
//	             the ExecTimeout watchdog exists for.
//	poll         sleeps in 1ms slices, honoring ctx.Err — the cooperative
//	             citizen that unwinds promptly when canceled.
//	selectdone   like poll, but blocks on ctx.Done instead of polling.
//	forget       Asyncs payload[0]%4+1 echo children and returns WITHOUT
//	             Wait — the orphan factory.
//	forgetboom   Asyncs children, then panics with them in flight.
//	fan          Asyncs one echo child per payload byte, Waits for all,
//	             and validates every result (detects cross-request
//	             corruption); returns the concatenation.
//	chain        recurses payload[0] levels deep (bounded by 6), one PD
//	             per level — the PD-pressure generator.
//
// The stateful vocabulary abuses the shared-state tier, leaving handles
// for the runtime's teardown to mop up (on a pool without a store they
// degrade to no-ops, so the vocabulary stays usable everywhere):
//
//	stateboom    creates a key, holds a read snapshot of it and exclusive
//	             ownership of a second key, then panics with both live —
//	             teardown must release the grant and discard the tx.
//	statestuck   takes exclusive ownership and sleeps without honoring
//	             cancellation, then returns with the transaction OPEN —
//	             the watchdog flags it, teardown rolls it back.
//	stateforget  piles up unreleased snapshots (including double-gets of
//	             one key) plus an un-Waited child, then returns — holds
//	             and orphan both fall to the runtime.
//	staterw      the validating stateful citizen: put/get round trip with
//	             version checks; corruption reports as an "aliasing" error.
//
// The names are what the chaos tests index into.
func registerFaults(reg *router.Registry) {
	reg.MustRegister("echo", func(ctx router.Ctx) ([]byte, error) {
		return ctx.Payload(), nil
	})

	reg.MustRegister("boom", func(ctx router.Ctx) ([]byte, error) {
		panic("faultfn: boom")
	})

	reg.MustRegister("slow", func(ctx router.Ctx) ([]byte, error) {
		p := ctx.Payload()
		if len(p) > 0 {
			time.Sleep(sleepFor(p[0]))
		}
		return p, nil
	})

	reg.MustRegister("stuck", func(ctx router.Ctx) ([]byte, error) {
		p := ctx.Payload()
		if len(p) > 0 {
			time.Sleep(sleepFor(p[0])) // no Err check: deliberately rude
		}
		return p, nil
	})

	reg.MustRegister("poll", func(ctx router.Ctx) ([]byte, error) {
		p := ctx.Payload()
		var total time.Duration
		if len(p) > 0 {
			total = sleepFor(p[0])
		}
		for done := time.Duration(0); done < total; done += time.Millisecond {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			time.Sleep(time.Millisecond)
		}
		return p, nil
	})

	reg.MustRegister("selectdone", func(ctx router.Ctx) ([]byte, error) {
		p := ctx.Payload()
		var total time.Duration
		if len(p) > 0 {
			total = sleepFor(p[0])
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(total):
			return p, nil
		}
	})

	forget := func(ctx router.Ctx, thenPanic bool) ([]byte, error) {
		p := ctx.Payload()
		n := 1
		if len(p) > 0 {
			n = int(p[0])%4 + 1
		}
		for i := 0; i < n; i++ {
			// Children copy the parent payload plus a lane byte; a short
			// sleep keeps them in flight past the parent's return.
			child := append(append([]byte(nil), p...), byte(i), 5)
			if _, err := ctx.Async("slow", child); err != nil {
				return nil, err
			}
		}
		if thenPanic {
			panic(fmt.Sprintf("faultfn: forgetboom with %d children in flight", n))
		}
		return []byte("forgot"), nil // no Wait: the runtime must reap
	}
	reg.MustRegister("forget", func(ctx router.Ctx) ([]byte, error) {
		return forget(ctx, false)
	})
	reg.MustRegister("forgetboom", func(ctx router.Ctx) ([]byte, error) {
		return forget(ctx, true)
	})

	reg.MustRegister("fan", func(ctx router.Ctx) ([]byte, error) {
		p := ctx.Payload()
		cookies := make([]router.Cookie, len(p))
		for i := range p {
			ck, err := ctx.Async("echo", []byte{p[i]})
			if err != nil {
				return nil, err
			}
			cookies[i] = ck
		}
		out := make([]byte, 0, len(p))
		for i, ck := range cookies {
			b, err := ctx.Wait(ck)
			if err != nil {
				return nil, err
			}
			if len(b) != 1 || b[0] != p[i] {
				return nil, fmt.Errorf("faultfn: fan lane %d got %q, want %q (aliasing?)", i, b, []byte{p[i]})
			}
			out = append(out, b...)
		}
		if !bytes.Equal(out, p) {
			return nil, fmt.Errorf("faultfn: fan got %q, want %q (aliasing?)", out, p)
		}
		return out, nil
	})

	reg.MustRegister("chain", func(ctx router.Ctx) ([]byte, error) {
		p := ctx.Payload()
		depth := 0
		if len(p) > 0 {
			depth = int(p[0]) % 7
		}
		if depth == 0 {
			return []byte{'*'}, nil
		}
		b, err := ctx.Call("chain", []byte{byte(depth - 1)})
		if err != nil {
			return nil, err
		}
		return append(b, '*'), nil
	})

	reg.MustRegister("stateboom", func(ctx router.Ctx) ([]byte, error) {
		p := ctx.Payload()
		k := laneKey("boom", p)
		if _, err := ctx.StatePut(router.StateGlobal, k, p); err != nil {
			if errors.Is(err, pool.ErrNoState) {
				return []byte("nostate"), nil
			}
			return nil, err
		}
		// Snapshot held (never released) and exclusive ownership open
		// (never committed) across the panic: teardown owns both.
		if _, err := ctx.StateGet(router.StateGlobal, k); err != nil {
			return nil, err
		}
		if _, err := ctx.StateTake(router.StateGlobal, k+":tx"); err != nil && !errors.Is(err, state.ErrTaken) {
			return nil, err
		}
		panic("faultfn: stateboom with state handles live")
	})

	reg.MustRegister("statestuck", func(ctx router.Ctx) ([]byte, error) {
		p := ctx.Payload()
		tx, err := ctx.StateTake(router.StateGlobal, laneKey("stuck", p))
		if err != nil {
			if errors.Is(err, pool.ErrNoState) || errors.Is(err, state.ErrTaken) {
				return []byte("contended"), nil
			}
			return nil, err
		}
		_ = tx // deliberately neither Commit nor Discard
		if len(p) > 1 {
			time.Sleep(sleepFor(p[1])) // no Err check: deliberately rude
		}
		return p, nil // transaction still open: teardown rolls it back
	})

	reg.MustRegister("stateforget", func(ctx router.Ctx) ([]byte, error) {
		p := ctx.Payload()
		k := laneKey("forget", p)
		if _, err := ctx.StatePut(router.StateGlobal, k, p); err != nil {
			if errors.Is(err, pool.ErrNoState) {
				return []byte("nostate"), nil
			}
			return nil, err
		}
		// Double-gets pile refcounts onto one read grant; none released.
		for i := 0; i < 3; i++ {
			if _, err := ctx.StateGet(router.StateGlobal, k); err != nil {
				return nil, err
			}
		}
		child := append(append([]byte(nil), p...), 5)
		if _, err := ctx.Async("slow", child); err != nil {
			return nil, err
		}
		return []byte("forgot"), nil // holds and orphan both fall to the runtime
	})

	reg.MustRegister("staterw", func(ctx router.Ctx) ([]byte, error) {
		p := ctx.Payload()
		k := laneKey("rw", p)
		ver, err := ctx.StatePut(router.StateGlobal, k, p)
		if err != nil {
			if errors.Is(err, pool.ErrNoState) {
				return []byte("nostate"), nil
			}
			return nil, err
		}
		sn, err := ctx.StateGet(router.StateGlobal, k)
		if err != nil {
			return nil, err
		}
		defer sn.Release()
		// Versions are monotonic per key; a concurrent staterw on the same
		// lane may have published past ours, but never behind it.
		if sn.Version() < ver {
			return nil, fmt.Errorf("faultfn: staterw read version %d after writing %d", sn.Version(), ver)
		}
		if sn.Version() == ver && !bytes.Equal(sn.Bytes(), p) {
			return nil, fmt.Errorf("faultfn: staterw got %q, want %q (aliasing?)", sn.Bytes(), p)
		}
		return append([]byte(nil), sn.Bytes()...), nil
	})
}

// laneKey derives a contention lane from the payload's first byte so
// concurrent invocations collide on a small shared keyspace.
func laneKey(prefix string, p []byte) string {
	lane := byte(0)
	if len(p) > 0 {
		lane = p[0] % 8
	}
	return fmt.Sprintf("%s:%d", prefix, lane)
}

// faultNames lists the registered fault vocabulary in a stable order (the
// chaos driver indexes into it).
func faultNames() []string {
	return []string{
		"echo", "boom", "slow", "stuck", "poll", "selectdone",
		"forget", "forgetboom", "fan", "chain",
		"stateboom", "statestuck", "stateforget", "staterw",
	}
}
