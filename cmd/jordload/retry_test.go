package main

import (
	"testing"
	"time"
)

// TestBackoffDelayNeverNonPositive is the regression test for the
// unguarded `int(1)<<attempt`: past 62 the shift wrapped to zero or
// negative, collapsing the backoff into a hot retry loop. Every attempt
// number — including absurd -retries settings — must yield a positive,
// clamped delay.
func TestBackoffDelayNeverNonPositive(t *testing.T) {
	const max = 5 * time.Second
	for _, attempt := range []int{0, 1, 10, 31, 62, 63, 64, 100, 1 << 20} {
		d := backoffDelay(20*time.Millisecond, attempt, 1.0, max)
		if d <= 0 {
			t.Fatalf("attempt %d: delay %v <= 0 (overflowed shift)", attempt, d)
		}
		if d > max {
			t.Fatalf("attempt %d: delay %v exceeds cap %v", attempt, d, max)
		}
	}
}

func TestBackoffDelayGrowsThenClamps(t *testing.T) {
	base := 20 * time.Millisecond
	max := 10 * time.Second
	if got := backoffDelay(base, 0, 1.0, max); got != base {
		t.Fatalf("attempt 0 = %v, want %v", got, base)
	}
	if got := backoffDelay(base, 3, 1.0, max); got != 8*base {
		t.Fatalf("attempt 3 = %v, want %v", got, 8*base)
	}
	// 20ms * 2^10 = ~20.5s > max: clamp.
	if got := backoffDelay(base, 10, 1.0, max); got != max {
		t.Fatalf("attempt 10 = %v, want clamp to %v", got, max)
	}
	// Jitter scales below the clamp.
	lo := backoffDelay(base, 2, 0.5, max)
	hi := backoffDelay(base, 2, 1.5, max)
	if lo >= hi {
		t.Fatalf("jitter not applied: lo %v >= hi %v", lo, hi)
	}
}

func TestParseRetryAfterDeltaSeconds(t *testing.T) {
	now := time.Now()
	d, ok := parseRetryAfter("7", now)
	if !ok || d != 7*time.Second {
		t.Fatalf("delta-seconds: got (%v, %v), want (7s, true)", d, ok)
	}
	if _, ok := parseRetryAfter("-3", now); ok {
		t.Fatal("negative delta-seconds should be rejected")
	}
	if _, ok := parseRetryAfter("", now); ok {
		t.Fatal("empty header should be rejected")
	}
	if _, ok := parseRetryAfter("soon", now); ok {
		t.Fatal("garbage should be rejected")
	}
}

// TestParseRetryAfterHTTPDate is the regression test for the
// Atoi-only parse: RFC 9110 §10.2.3 allows an HTTP-date, and servers
// that send one were silently ignored.
func TestParseRetryAfterHTTPDate(t *testing.T) {
	now := time.Date(2026, 8, 8, 17, 0, 0, 0, time.UTC)
	hdr := now.Add(42 * time.Second).UTC().Format(time.RFC1123)
	// RFC1123 formats UTC as "UTC"; the wire format wants "GMT".
	hdr = hdr[:len(hdr)-3] + "GMT"
	d, ok := parseRetryAfter(hdr, now)
	if !ok {
		t.Fatalf("HTTP-date %q not parsed", hdr)
	}
	if d != 42*time.Second {
		t.Fatalf("HTTP-date hint = %v, want 42s", d)
	}
	// A date in the past means "retry now", not a negative wait.
	past := now.Add(-time.Hour).UTC().Format(time.RFC1123)
	past = past[:len(past)-3] + "GMT"
	if d, ok := parseRetryAfter(past, now); !ok || d != 0 {
		t.Fatalf("past HTTP-date = (%v, %v), want (0, true)", d, ok)
	}
}

// TestRetryDelayCapsBogusHint: a far-future HTTP-date (or huge
// delta-seconds) must not park the goroutine past the request timeout.
func TestRetryDelayCapsBogusHint(t *testing.T) {
	now := time.Now()
	cap := 5 * time.Second
	d := retryDelay(20*time.Millisecond, 0, 1.0, "86400", now, cap)
	if d != cap {
		t.Fatalf("huge delta-seconds hint: delay %v, want cap %v", d, cap)
	}
	far := now.Add(48 * time.Hour).UTC().Format(time.RFC1123)
	far = far[:len(far)-3] + "GMT"
	d = retryDelay(20*time.Millisecond, 0, 1.0, far, now, cap)
	if d != cap {
		t.Fatalf("far-future HTTP-date hint: delay %v, want cap %v", d, cap)
	}
	// Delta-seconds past what a Duration holds saturate instead of wrapping
	// negative, which once let the backoff win over the cap.
	for _, huge := range []string{"10000000000", "99999999999999999999"} {
		if d := retryDelay(10*time.Millisecond, 0, 1.0, huge, now, cap); d != cap {
			t.Fatalf("%s-second hint: delay %v, want cap %v", huge, d, cap)
		}
	}
	// And the hint still wins over a smaller backoff when reasonable.
	d = retryDelay(20*time.Millisecond, 0, 1.0, "2", now, cap)
	if d != 2*time.Second {
		t.Fatalf("reasonable hint: delay %v, want 2s", d)
	}
}

// FuzzParseRetryAfter: no header value panics the parser, an accepted hint
// is never negative, and the delay built from it stays between the
// backoff and the cap.
func FuzzParseRetryAfter(f *testing.F) {
	for _, v := range []string{"7", "-3", "", "soon", "+5", "10000000000", "99999999999999999999",
		"Fri, 08 Aug 2026 17:00:00 GMT", "Sun, 06 Nov 1994 08:49:37 GMT", "Fri, 31 Dec 9999 23:59:59 GMT"} {
		f.Add(v)
	}
	now := time.Date(2026, 8, 8, 17, 0, 0, 0, time.UTC)
	const base, cap = 10 * time.Millisecond, 5 * time.Second
	f.Fuzz(func(t *testing.T, v string) {
		if d, ok := parseRetryAfter(v, now); ok && d < 0 {
			t.Fatalf("parseRetryAfter(%q) = %v, true: negative hint", v, d)
		}
		backoff := backoffDelay(base, 0, 1.0, cap)
		if d := retryDelay(base, 0, 1.0, v, now, cap); d < backoff || d > cap {
			t.Fatalf("retryDelay with %q = %v, want within [%v, %v]", v, d, backoff, cap)
		}
	})
}
