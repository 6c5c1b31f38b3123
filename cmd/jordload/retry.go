package main

import (
	"errors"
	"math"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// backoffDelay computes one retry's wait: base * 2^attempt * jitter,
// clamped to max. The doubling runs in float64 and stops the moment it
// crosses max, so a large -retries value can never shift past 62 bits the
// way `int(1)<<attempt` did — that overflow produced a zero or negative
// delay and turned "backoff" into a hot retry loop against a server that
// was already telling us to go away.
func backoffDelay(base time.Duration, attempt int, jitter float64, max time.Duration) time.Duration {
	if base <= 0 {
		base = time.Millisecond
	}
	if max <= 0 {
		max = 30 * time.Second
	}
	if jitter <= 0 {
		jitter = 1
	}
	f := float64(base) * jitter
	for i := 0; i < attempt && f < float64(max); i++ {
		f *= 2
	}
	if f > float64(max) {
		f = float64(max)
	}
	d := time.Duration(f)
	if d < time.Millisecond {
		d = time.Millisecond
	}
	return d
}

// parseRetryAfter reads a Retry-After header in either RFC 9110 §10.2.3
// form: delta-seconds ("7") or an HTTP-date ("Fri, 08 Aug 2026 17:00:00
// GMT"). Plain Atoi dropped every date-form hint on the floor, silently
// discarding the server's backoff guidance. The returned hint is raw but
// never negative — delta-seconds too large for a Duration saturate rather
// than wrap — and callers cap it (at the request timeout) so a bogus or
// far-future header cannot stall a worker goroutine.
func parseRetryAfter(v string, now time.Time) (time.Duration, bool) {
	v = strings.TrimSpace(v)
	if v == "" {
		return 0, false
	}
	if secs, err := strconv.ParseInt(v, 10, 64); err == nil || errors.Is(err, strconv.ErrRange) {
		if secs < 0 {
			return 0, false
		}
		return time.Duration(min(secs, math.MaxInt64/int64(time.Second))) * time.Second, true
	}
	if t, err := http.ParseTime(v); err == nil {
		d := t.Sub(now)
		if d < 0 {
			d = 0
		}
		return d, true
	}
	return 0, false
}

// retryDelay combines the jittered exponential backoff with the server's
// Retry-After hint: never sooner than the hint, never longer than cap.
func retryDelay(base time.Duration, attempt int, jitter float64, retryAfter string, now time.Time, cap time.Duration) time.Duration {
	delay := backoffDelay(base, attempt, jitter, cap)
	if hint, ok := parseRetryAfter(retryAfter, now); ok {
		if cap > 0 && hint > cap {
			hint = cap
		}
		if hint > delay {
			delay = hint
		}
	}
	return delay
}
