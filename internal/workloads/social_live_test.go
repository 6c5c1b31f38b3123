package workloads

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"jord/internal/server/pool"
	"jord/internal/server/router"
	"jord/internal/server/state"
)

// startSocialPool boots an in-process pool with the shared-state store and
// both social variants registered; cleanup drains and checks nothing leaked.
func startSocialPool(t *testing.T, promoteAfter int) (*pool.Pool, *state.Store) {
	t.Helper()
	reg := router.New()
	RegisterSocialLive(reg)
	RegisterSocialCopy(reg)
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

// TestSocialLiveConcurrent hammers one hot author from concurrent posters
// and readers under -race: contended Take retries, fan-out RMWs, and hot
// post/profile reads crossing the promotion threshold.
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
	for i := 0; i < posters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for n := 0; n < rounds; n++ {
				post := []byte(fmt.Sprintf("star post %d from %d", n, i))
				_, err := p.Invoke(ctx, "social.post", post)
				// A take that lost all of its bounded retries to the other
				// poster answers ErrTaken by design; the caller posts again.
				for errors.Is(err, state.ErrTaken) {
					_, err = p.Invoke(ctx, "social.post", post)
				}
				if err != nil {
					errs <- fmt.Errorf("post: %w", err)
					return
				}
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

	stats := st.StatsSnapshot()
	if stats.Commits < posters*rounds {
		t.Fatalf("commits = %d, want >= %d", stats.Commits, posters*rounds)
	}
	if stats.Promotions == 0 {
		t.Fatalf("no promotion under hot-profile read load: %+v", stats)
	}
}
