package main

import (
	"fmt"
	"math/rand"
)

// socialMix draws the stateful social-network operation stream: 60%
// social.timeline reads, 25% social.post, 10% social.follow, 5%
// social.profile, over a Zipf-skewed population of users. One rng drives
// every draw, so a seeded run is reproducible.
type socialMix struct {
	rng   *rand.Rand
	zipf  *rand.Zipf
	users int
}

func newSocialMix(rng *rand.Rand, users int) *socialMix {
	return &socialMix{
		rng:   rng,
		zipf:  rand.NewZipf(rng, 1.2, 1, uint64(users-1)),
		users: users,
	}
}

func (m *socialMix) user() string {
	return fmt.Sprintf("u%d", m.zipf.Uint64())
}

// draw picks the next (function, payload) pair. Follows are always
// between DISTINCT users: the follower redraws flat until the pair
// differs (the old "redraw flat once" could re-collide — rng.Intn can
// return the same user again — so self-follows still reached
// social.follow). With users >= 2 (enforced at flag parse) the loop
// terminates with probability 1 and in ~users/(users-1) expected draws.
func (m *socialMix) draw() (fn, payload string) {
	u := m.user()
	switch r := m.rng.Float64(); {
	case r < 0.60:
		return "social.timeline", u
	case r < 0.85:
		return "social.post", fmt.Sprintf("%s musing %d about single-address-space serverless", u, m.rng.Intn(1_000_000))
	case r < 0.95:
		v := m.user()
		for v == u {
			v = fmt.Sprintf("u%d", m.rng.Intn(m.users))
		}
		return "social.follow", u + " " + v
	default:
		return "social.profile", u
	}
}
