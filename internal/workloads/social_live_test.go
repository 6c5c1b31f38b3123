package workloads

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"jord/internal/server/pool"
	"jord/internal/server/router"
	"jord/internal/server/state"
)

// startSocialPool boots an in-process pool with the shared-state store,
// both social variants and any extra functions registered; cleanup drains
// and checks nothing leaked.
func startSocialPool(t testing.TB, promoteAfter int, extra ...func(*router.Registry)) (*pool.Pool, *state.Store) {
	t.Helper()
	reg := router.New()
	RegisterSocialLive(reg)
	RegisterSocialCopy(reg)
	for _, register := range extra {
		register(reg)
	}
	p := pool.New(pool.Config{Executors: 4, Orchestrators: 1}, reg)
	st, err := state.New(state.Config{PromoteAfter: promoteAfter}, p.Table())
	if err != nil {
		t.Fatal(err)
	}
	p.SetState(st)
	p.Start()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		defer cancel()
		if err := p.Drain(ctx); err != nil {
			t.Errorf("drain: %v", err)
		}
		if err := st.VerifyIdle(); err != nil {
			t.Errorf("state after drain: %v", err)
		}
		if err := st.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
		if err := p.Table().VerifyIdle(); err != nil {
			t.Errorf("table after close: %v", err)
		}
		if n := p.Table().Faults(); n != 0 {
			t.Errorf("%d isolation faults", n)
		}
	})
	return p, st
}

// TestSocialLiveFlow drives the follow/post/timeline graph end to end on
// both variants and checks they produce identical application behavior.
func TestSocialLiveFlow(t *testing.T) {
	p, st := startSocialPool(t, 4)
	ctx := context.Background()

	for _, prefix := range []string{"social.", "socialcopy."} {
		call := func(fn, payload string) string {
			t.Helper()
			out, err := p.Invoke(ctx, prefix+fn, []byte(payload))
			if err != nil {
				t.Fatalf("%s%s(%q): %v", prefix, fn, payload, err)
			}
			return string(out)
		}
		// bob and carol follow alice; alice posts twice.
		call("follow", "bob alice")
		call("follow", "carol alice")
		id1 := call("post", "alice hello world")
		id2 := call("post", "alice second post")
		if id1 != "alice/1" || id2 != "alice/2" {
			t.Fatalf("%s post ids = %q, %q", prefix, id1, id2)
		}
		// Both followers see both posts, newest first.
		for _, reader := range []string{"bob", "carol"} {
			feed := call("timeline", reader)
			lines := strings.Split(strings.TrimRight(feed, "\n"), "\n")
			if len(lines) != 2 ||
				!strings.HasPrefix(lines[0], "alice/2 ") ||
				!strings.HasPrefix(lines[1], "alice/1 ") {
				t.Fatalf("%s timeline(%s) = %q", prefix, reader, feed)
			}
		}
		if got := call("read", id1); got != "hello world" {
			t.Fatalf("%s read(%s) = %q", prefix, id1, got)
		}
		if got := call("profile", "alice"); !strings.Contains(got, "name=alice") {
			t.Fatalf("%s profile(alice) = %q", prefix, got)
		}
	}

	// The shared variant really went through the store: snapshots were
	// zero-copy and exclusive RMWs really took ownership.
	stats := st.StatsSnapshot()
	if stats.Gets == 0 || stats.Takes == 0 || stats.Commits == 0 || stats.CopyBytesAvoided == 0 {
		t.Fatalf("shared variant did not exercise the store: %+v", stats)
	}
}

// TestStateGetInvokeZeroAlloc holds a state read through Pool.Invoke, with
// tracing on, to the invoke path's zero-allocation bound on both read
// paths: granted (promotion off: a pcopy R grant to the reader's PD, and
// Release's pmove back) and promoted (the VTE G bit: one atomic load). The
// body reads a 4 KiB global key, checks its length and releases it.
func TestStateGetInvokeZeroAlloc(t *testing.T) {
	if race {
		t.Skip("race instrumentation allocates")
	}
	blob := make([]byte, 4096)
	for i := range blob {
		blob[i] = byte(i)
	}
	for _, tc := range []struct {
		name         string
		promoteAfter int
	}{
		{"granted", -1},
		{"promoted", 8},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, st := startSocialPool(t, tc.promoteAfter, func(reg *router.Registry) {
				reg.MustRegister("seed", func(ctx router.Ctx) ([]byte, error) {
					_, err := ctx.StatePut(router.StateGlobal, "blob", blob)
					return nil, err
				})
				reg.MustRegister("get4k", func(ctx router.Ctx) ([]byte, error) {
					sn, err := ctx.StateGet(router.StateGlobal, "blob")
					if err != nil {
						return nil, err
					}
					n := len(sn.Bytes())
					sn.Release()
					if n != len(blob) {
						return nil, fmt.Errorf("blob length %d, want %d", n, len(blob))
					}
					return nil, nil
				})
			})
			if p.Trace() == nil {
				t.Fatal("tracing must be on for this bound")
			}
			ctx := context.Background()
			invoke := func(fn string) {
				if _, err := p.Invoke(ctx, fn, nil); err != nil {
					t.Fatal(err)
				}
			}
			invoke("seed")
			for i := 0; i < 2000; i++ { // warm every pool and ring
				invoke("get4k")
			}

			const n = 5000
			fastBefore := st.StatsSnapshot().FastGets
			runtime.GC()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < n; i++ {
				invoke("get4k")
			}
			runtime.ReadMemStats(&after)
			perOp := float64(after.Mallocs-before.Mallocs) / n
			fast := st.StatsSnapshot().FastGets - fastBefore
			t.Logf("allocs/op with tracing: %.4f; fast gets %d of %d", perOp, fast, n)
			if perOp > 0.01 {
				t.Fatalf("state read through invoke allocates %.4f/op (want <= 0.01)", perOp)
			}
			if promoted := tc.promoteAfter > 0; promoted != (fast > 0) {
				t.Fatalf("fast gets = %d over %d reads with PromoteAfter %d", fast, n, tc.promoteAfter)
			}
		})
	}
}

// TestSocialLiveConcurrent hammers one hot author from concurrent posters
// and readers under -race: contended Take retries, fan-out RMWs, and hot
// post/profile reads crossing the promotion threshold. Every post takes
// its id from the author's counter by Take/Commit, so two posts answered
// with one id would be a lost update.
func TestSocialLiveConcurrent(t *testing.T) {
	p, st := startSocialPool(t, 8)
	ctx := context.Background()

	// A small follower graph around the hot author.
	for i := 0; i < 4; i++ {
		fan := fmt.Sprintf("fan%d", i)
		if _, err := p.Invoke(ctx, "social.follow", []byte(fan+" star")); err != nil {
			t.Fatal(err)
		}
	}

	const posters, readers, rounds = 2, 6, 50
	var wg sync.WaitGroup
	errs := make(chan error, posters+readers)
	ids := make(chan string, posters*rounds)
	for i := 0; i < posters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for n := 0; n < rounds; n++ {
				post := []byte(fmt.Sprintf("star post %d from %d", n, i))
				id, err := p.Invoke(ctx, "social.post", post)
				// A take that lost all of its bounded retries to the other
				// poster answers ErrTaken by design; the caller posts again.
				for errors.Is(err, state.ErrTaken) {
					id, err = p.Invoke(ctx, "social.post", post)
				}
				if err != nil {
					errs <- fmt.Errorf("post: %w", err)
					return
				}
				ids <- string(id)
			}
		}(i)
	}
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			fan := fmt.Sprintf("fan%d", i%4)
			for n := 0; n < rounds; n++ {
				if _, err := p.Invoke(ctx, "social.timeline", []byte(fan)); err != nil {
					errs <- fmt.Errorf("timeline: %w", err)
					return
				}
				if _, err := p.Invoke(ctx, "social.profile", []byte("star")); err != nil {
					errs <- fmt.Errorf("profile: %w", err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	close(ids)
	seen := map[string]bool{}
	for id := range ids {
		if seen[id] {
			t.Fatalf("post id %q answered twice", id)
		}
		seen[id] = true
	}

	stats := st.StatsSnapshot()
	if stats.Commits < posters*rounds {
		t.Fatalf("commits = %d, want >= %d", stats.Commits, posters*rounds)
	}
	if stats.Promotions == 0 {
		t.Fatalf("no promotion under hot-profile read load: %+v", stats)
	}
}

// TestSocialBehaviourPinned runs one seeded request sequence over both
// stores, then reads back every key it can have touched, and compares a
// digest of the responses, the stored bytes and the store's operation
// counters with the digest the same bodies produced when they split the
// stored lists with strings.Fields. Payloads include tabs, runs of spaces and non-ASCII space, so
// the digest also pins how odd user names split.
func TestSocialBehaviourPinned(t *testing.T) {
	const want = "9155aa5161e25b5294041b942e376b2d3b34cb4720f48b8d340080e1d6d7585e"
	copies := &countingStore{copyStore: &copyStore{m: make(map[string][]byte)}}
	p, st := startSocialPool(t, 4, func(reg *router.Registry) {
		registerSocialBodies(reg, "pinned.", copies)
		// dump reads back each newline-separated key of its payload.
		reg.MustRegister("dump", func(ctx router.Ctx) ([]byte, error) {
			var out []byte
			for _, k := range strings.Split(string(ctx.Payload()), "\n") {
				sn, err := ctx.StateGet(router.StateGlobal, k)
				if errors.Is(err, state.ErrNotFound) {
					out = append(out, k+" -\n"...)
					continue
				}
				if err != nil {
					return nil, err
				}
				out = fmt.Appendf(out, "%s %q\n", k, sn.Bytes())
				sn.Release()
			}
			return out, nil
		})
	})
	ctx := context.Background()
	users := []string{"u0", "u1", "u2", "u3", "u4", "u5", "u6", "u7", "a b", "a", "b", "x y", "x", "t\tu"}
	rng := rand.New(rand.NewSource(36))
	var ops []string
	for i := 0; i < 600; i++ {
		u, v := users[rng.Intn(len(users))], users[rng.Intn(len(users))]
		switch r := rng.Intn(20); {
		case r < 6:
			ops = append(ops, "follow", u+" "+v)
		case r < 11:
			ops = append(ops, "post", fmt.Sprintf("%s  post %d\tfrom  %s ", u, i, u))
		case r < 16:
			ops = append(ops, "timeline", " "+u)
		case r < 18:
			ops = append(ops, "read", fmt.Sprintf("%s/%d", u, rng.Intn(8)))
		case r < 19:
			ops = append(ops, "profile", u)
		default:
			ops = append(ops, "follow", u) // one field: an error
		}
	}
	var keys []string
	for _, u := range users {
		for _, k := range []string{"sg:flw:", "sg:fan:", "cnt:", "tl:", "prof:"} {
			keys = append(keys, k+u)
		}
		for n := 1; n <= 64; n++ {
			keys = append(keys, fmt.Sprintf("post:%s/%d", u, n))
		}
	}

	h := sha256.New()
	for _, prefix := range []string{"social.", "pinned."} {
		for i := 0; i < len(ops); i += 2 {
			out, err := p.Invoke(ctx, prefix+ops[i], []byte(ops[i+1]))
			fmt.Fprintf(h, "%s(%q) = %q, %v\n", ops[i], ops[i+1], out, err)
		}
	}
	dump, err := p.Invoke(ctx, "dump", []byte(strings.Join(keys, "\n")))
	if err != nil {
		t.Fatal(err)
	}
	h.Write(dump)
	var copied []string
	for _, k := range keys {
		if v, ok := copies.m[k]; ok {
			copied = append(copied, fmt.Sprintf("%s %q", k, v))
		}
	}
	fmt.Fprintf(h, "%s\n", strings.Join(copied, "\n"))
	s := st.StatsSnapshot()
	s.Outstanding = 0 // teardown releases may trail the last response
	counters := fmt.Sprintf("%+v copy read %d write %d", s, copies.readBytes.Load(), copies.writeBytes.Load())
	fmt.Fprintf(h, "%s\n", counters)
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("social behaviour digest %s, want %s (counters: %s)", got, want, counters)
	}
}

// countingStore is the copying baseline with the bytes that cross its
// boundary counted: copied out by a read or by an update's copy of the old
// value, copied in by a write or by an update's commit.
type countingStore struct {
	*copyStore
	readBytes, writeBytes atomic.Uint64
}

func (s *countingStore) read(ctx router.Ctx, key string) ([]byte, bool, router.StateSnap, error) {
	v, ok, sn, err := s.copyStore.read(ctx, key)
	s.readBytes.Add(uint64(len(v)))
	return v, ok, sn, err
}

func (s *countingStore) write(ctx router.Ctx, key string, val []byte) error {
	s.writeBytes.Add(uint64(len(val)))
	return s.copyStore.write(ctx, key, val)
}

func (s *countingStore) update(ctx router.Ctx, key, arg string, f func(old []byte, arg string) []byte) ([]byte, error) {
	return s.copyStore.update(ctx, key, arg, func(old []byte, arg string) []byte {
		s.readBytes.Add(uint64(len(old)))
		next := f(old, arg)
		s.writeBytes.Add(uint64(len(next)))
		return next
	})
}
