package main

import (
	"fmt"
	"math/rand"
	"testing"
)

// socialPick draws the same requests as formatting each one would, and
// allocates nothing per draw, so allocs_per_op in BENCH_state.json is the
// runtime's own.
func TestSocialPickDrawsWithoutAllocating(t *testing.T) {
	const clients, draws = 3, 3000
	pick := socialPick("social.", clients)
	for c := 0; c < clients; c++ {
		rng := rand.New(rand.NewSource(int64(c + 1)))
		zipf := rand.NewZipf(rng, 1.2, 1, 15)
		for i := c; i < draws; i += clients {
			u := fmt.Sprintf("u%d", zipf.Uint64())
			var fn, payload string
			switch r := rng.Float64(); {
			case r < 0.60:
				fn, payload = "social.timeline", u
			case r < 0.85:
				fn, payload = "social.post", fmt.Sprintf("%s musing %d on shared state", u, i)
			case r < 0.95:
				fn, payload = "social.follow", fmt.Sprintf("%s u%d", u, rng.Intn(16))
			default:
				fn, payload = "social.profile", u
			}
			gotFn, got := pick(c, i)
			if gotFn != fn || string(got) != payload {
				t.Fatalf("client %d draw %d: %s %q, want %s %q", c, i, gotFn, got, fn, payload)
			}
		}
	}
	i := 0
	if n := testing.AllocsPerRun(1000, func() { pick(0, 1_000_000+i); i++ }); n != 0 {
		t.Fatalf("socialPick allocates %.2f per draw", n)
	}
}
