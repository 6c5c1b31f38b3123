package jbsq

import (
	"math"
	"math/rand/v2"
	"testing"
)

// shortestThenBound is the scan the three call sites used to carry: find
// the shortest queue (ties to the first probed), then refuse it if it sits
// at the uniform bound.
func shortestThenBound(depths []int64, start int, bound int64) int {
	best, bestLen := -1, int64(math.MaxInt64)
	for k := range depths {
		i := (start + k) % len(depths)
		if depths[i] < bestLen {
			best, bestLen = i, depths[i]
		}
	}
	if best >= 0 && bestLen >= bound {
		return -1
	}
	return best
}

// TestPickMatchesShortestThenBound holds Pick equal to the old loop on
// random depths, with a uniform bound and with the bound bypassed.
func TestPickMatchesShortestThenBound(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for iter := 0; iter < 20000; iter++ {
		n := rng.IntN(9)
		depths := make([]int64, n)
		for i := range depths {
			depths[i] = rng.Int64N(6)
		}
		start := rng.IntN(64)
		bound := 1 + rng.Int64N(5)
		if iter%4 == 0 {
			bound = math.MaxInt64 // internal requests: no bound
		}
		probes := 0
		got := Pick(n, start, func(i int) (int64, int64, bool) {
			probes++
			return depths[i], bound, true
		})
		if want := shortestThenBound(depths, start, bound); got != want {
			t.Fatalf("depths %v start %d bound %d: Pick = %d, old loop = %d", depths, start, bound, got, want)
		}
		if probes != n {
			t.Fatalf("depths %v: %d probes, want one per member", depths, probes)
		}
	}
}

// TestPickPerMemberBoundsAndExclusions checks Pick's contract where the
// old loop has no counterpart: every member has its own bound and some are
// excluded.
func TestPickPerMemberBoundsAndExclusions(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	for iter := 0; iter < 20000; iter++ {
		n := 1 + rng.IntN(8)
		depths, bounds, ok := make([]int64, n), make([]int64, n), make([]bool, n)
		for i := range depths {
			depths[i], bounds[i], ok[i] = rng.Int64N(6), rng.Int64N(7), rng.IntN(4) != 0
		}
		start := rng.IntN(n)
		var order []int
		got := Pick(n, start, func(i int) (int64, int64, bool) {
			order = append(order, i)
			return depths[i], bounds[i], ok[i]
		})
		eligible := func(i int) bool { return ok[i] && depths[i] < bounds[i] }
		for k, i := range order {
			if i != (start+k)%n {
				t.Fatalf("probe %d hit member %d, want %d", k, i, (start+k)%n)
			}
		}
		if got < 0 {
			for i := range depths {
				if eligible(i) {
					t.Fatalf("depths %v bounds %v ok %v: -1 with member %d eligible", depths, bounds, ok, i)
				}
			}
			continue
		}
		if !eligible(got) {
			t.Fatalf("depths %v bounds %v ok %v: picked ineligible member %d", depths, bounds, ok, got)
		}
		probedFirst := true // until the scan reaches got
		for _, i := range order {
			if i == got {
				probedFirst = false
			}
			if !eligible(i) {
				continue
			}
			if depths[i] < depths[got] {
				t.Fatalf("depths %v bounds %v ok %v: picked %d, member %d is shallower", depths, bounds, ok, got, i)
			}
			if depths[i] == depths[got] && probedFirst {
				t.Fatalf("depths %v start %d: tie went to %d, member %d was probed first", depths, start, got, i)
			}
		}
	}
}
