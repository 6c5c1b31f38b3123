// Package jbsq is Jord's dispatch policy, Join-Bounded-Shortest-Queue
// (§3.3): send work to the shortest queue that is still below its bound.
// The simulator's orchestrators, the live pool's orchestrators and the
// cluster dispatcher all place through Pick; each supplies only its depth
// source and where its scan starts.
package jbsq

import "math"

// Pick probes members start, start+1, ... (mod n), each exactly once, and
// returns the shallowest member below its own bound, or -1 if there is
// none. depth reports member i's queue depth d and bound; ok false
// excludes the member. Ties go to the member probed first. Pick is small
// enough to inline, and so is a depth literal passed to it.
func Pick(n, start int, depth func(i int) (d, bound int64, ok bool)) int {
	best, bestD := -1, int64(math.MaxInt64)
	for k := 0; k < n; k++ {
		i := (start + k) % n
		if d, bound, ok := depth(i); ok && d < bound && d < bestD {
			best, bestD = i, d
		}
	}
	return best
}
