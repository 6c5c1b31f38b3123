package chaos

import (
	"bufio"
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"
)

func testServer(t *testing.T, hits *atomic.Int64) (addr string) {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/invoke/") {
			hits.Add(1)
		}
		io.Copy(io.Discard, r.Body)
		w.Write([]byte("response-body-0123456789"))
	}))
	t.Cleanup(srv.Close)
	return strings.TrimPrefix(srv.URL, "http://")
}

// invoke sends one request the way the relay does — head and payload as
// two writes, then reads — and returns the body.
func invoke(c net.Conn, br *bufio.Reader) (string, error) {
	for _, part := range []string{"POST /invoke/echo HTTP/1.1\r\nHost: x\r\nContent-Length: 7\r\n\r\n", "payload"} {
		if _, err := c.Write([]byte(part)); err != nil {
			return "", err
		}
	}
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		return "", err
	}
	body, err := io.ReadAll(resp.Body)
	return string(body), err
}

// dialInvoke opens a connection through d and runs one request on it.
func dialInvoke(d *Dialer, addr string) (net.Conn, *bufio.Reader, string, error) {
	c, err := d.Dial(context.Background(), addr)
	if err != nil {
		return nil, nil, "", err
	}
	br := bufio.NewReader(c)
	body, err := invoke(c, br)
	return c, br, body, err
}

func wantOpErr(t *testing.T, err error, op string, errno syscall.Errno) {
	t.Helper()
	var oe *net.OpError
	if !errors.As(err, &oe) || oe.Op != op || !errors.Is(oe.Err, errno) {
		t.Fatalf("want %s %v OpError, got %v", op, errno, err)
	}
}

func TestRefusedNeverReachesWorker(t *testing.T) {
	var hits atomic.Int64
	addr := testServer(t, &hits)
	_, _, _, err := dialInvoke(New(nil, 1, &Rule{Fault: FaultRefused}), addr)
	wantOpErr(t, err, "dial", syscall.ECONNREFUSED)
	if hits.Load() != 0 {
		t.Fatal("refused request must not reach the worker")
	}
}

// TestRefusedOnPooledConn: a refusal drawn by a request riding a
// kept-alive connection resets that connection and refuses the dial that
// follows — one firing, and the worker sees neither.
func TestRefusedOnPooledConn(t *testing.T) {
	var hits atomic.Int64
	addr := testServer(t, &hits)
	d := New(nil, 1)
	c, br, _, err := dialInvoke(d, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// The schedule starts once the connection is open and idle.
	rule := &Rule{Fault: FaultRefused, Count: 1}
	d.rules = append(d.rules, rule)

	_, err = invoke(c, br)
	wantOpErr(t, err, "write", syscall.ECONNRESET)
	_, err = d.Dial(context.Background(), addr)
	wantOpErr(t, err, "dial", syscall.ECONNREFUSED)
	if hits.Load() != 1 || rule.Fired() != 1 {
		t.Fatalf("hits=%d fired=%d: want only the opening request's hit, and one firing", hits.Load(), rule.Fired())
	}
	c2, _, _, err := dialInvoke(d, addr)
	if err != nil {
		t.Fatalf("the dial after the refused one should pass: %v", err)
	}
	c2.Close()
}

func TestResetBeforeWriteNeverReachesWorker(t *testing.T) {
	var hits atomic.Int64
	addr := testServer(t, &hits)
	_, _, _, err := dialInvoke(New(nil, 1, &Rule{Fault: FaultResetBeforeWrite}), addr)
	wantOpErr(t, err, "write", syscall.ECONNRESET)
	if hits.Load() != 0 {
		t.Fatal("reset-before-write must not reach the worker")
	}
}

func TestResetAfterWriteExecutesWorker(t *testing.T) {
	var hits atomic.Int64
	addr := testServer(t, &hits)
	_, _, _, err := dialInvoke(New(nil, 1, &Rule{Fault: FaultResetAfterWrite}), addr)
	wantOpErr(t, err, "read", syscall.ECONNRESET)
	if hits.Load() != 1 {
		t.Fatalf("reset-after-write must execute the worker once, hits=%d", hits.Load())
	}
}

func TestResetMidBodyTruncates(t *testing.T) {
	var hits atomic.Int64
	addr := testServer(t, &hits)
	_, _, body, err := dialInvoke(New(nil, 1, &Rule{Fault: FaultResetMidBody, MidBody: 5}), addr)
	wantOpErr(t, err, "read", syscall.ECONNRESET)
	if body != "respo" {
		t.Fatalf("delivered %q before the reset, want 5 bytes", body)
	}
	if hits.Load() != 1 {
		t.Fatal("mid-body reset still executes the worker")
	}
}

// TestStallBlocksUntilDeadline: a stalled write ends when the deadline
// passes — set beforehand or moved into the past from another goroutine,
// the way the relay cancels — or when the connection is closed.
func TestStallBlocksUntilDeadline(t *testing.T) {
	var hits atomic.Int64
	addr := testServer(t, &hits)
	d := New(nil, 1, &Rule{Fault: FaultStall})
	for name, unblock := range map[string]func(net.Conn){
		"deadline": func(net.Conn) {},
		"kick":     func(c net.Conn) { c.SetDeadline(time.Unix(1, 0)) },
		"close":    func(c net.Conn) { c.Close() },
	} {
		c, err := d.Dial(context.Background(), addr)
		if err != nil {
			t.Fatal(err)
		}
		wait := 50 * time.Millisecond
		if name == "deadline" {
			c.SetDeadline(time.Now().Add(wait))
		} else {
			c.SetDeadline(time.Now().Add(time.Minute))
			time.AfterFunc(wait, func() { unblock(c) })
		}
		start := time.Now()
		_, err = c.Write([]byte("POST /invoke/echo HTTP/1.1\r\n"))
		c.Close()
		want := os.ErrDeadlineExceeded
		if name == "close" {
			want = net.ErrClosed
		}
		if !errors.Is(err, want) {
			t.Fatalf("%s: want %v, got %v", name, want, err)
		}
		if time.Since(start) < wait-10*time.Millisecond {
			t.Fatalf("%s: stall returned after %v", name, time.Since(start))
		}
	}
	if hits.Load() != 0 {
		t.Fatal("stalled request must not reach the worker")
	}
}

func TestLatencyDelaysThenForwards(t *testing.T) {
	var hits atomic.Int64
	addr := testServer(t, &hits)
	d := New(nil, 1, &Rule{Fault: FaultLatency, Latency: 60 * time.Millisecond})
	start := time.Now()
	c, _, _, err := dialInvoke(d, addr)
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	if d := time.Since(start); d < 55*time.Millisecond {
		t.Fatalf("latency fault returned in %v, want >= 60ms", d)
	}
	if hits.Load() != 1 {
		t.Fatal("latency fault must still execute")
	}
}

// TestCountCapPerRequest: a rule is charged once per request — also for
// requests that share one kept-alive connection — and stops at its cap.
func TestCountCapPerRequest(t *testing.T) {
	var hits atomic.Int64
	addr := testServer(t, &hits)
	rule := &Rule{Fault: FaultLatency, Latency: time.Millisecond, Count: 2}
	d := New(nil, 1, rule)
	c, br, _, err := dialInvoke(d, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 3; i++ {
		if _, err := invoke(c, br); err != nil {
			t.Fatal(err)
		}
	}
	if rule.Fired() != 2 || d.Injected() != 2 || hits.Load() != 4 {
		t.Fatalf("fired=%d injected=%d hits=%d want 2/2/4", rule.Fired(), d.Injected(), hits.Load())
	}
}

func TestWorkerTargeting(t *testing.T) {
	var hitsA, hitsB atomic.Int64
	addrA := testServer(t, &hitsA)
	addrB := testServer(t, &hitsB)
	d := New(nil, 1, &Rule{Worker: addrA, Fault: FaultRefused})

	if _, _, _, err := dialInvoke(d, addrA); err == nil {
		t.Fatal("worker A should be refused")
	}
	c, _, _, err := dialInvoke(d, addrB)
	if err != nil {
		t.Fatalf("worker B should be untouched: %v", err)
	}
	c.Close()
	if hitsA.Load() != 0 || hitsB.Load() != 1 {
		t.Fatalf("hitsA=%d hitsB=%d want 0/1", hitsA.Load(), hitsB.Load())
	}
}

// TestProbabilityDeterministic: the same seed, rules and request order
// against the same host replay the same faults.
func TestProbabilityDeterministic(t *testing.T) {
	var hits atomic.Int64
	addr := testServer(t, &hits)
	run := func() (pattern string) {
		d := New(nil, 42, &Rule{Fault: FaultRefused, P: 0.5})
		for i := 0; i < 40; i++ {
			c, _, _, err := dialInvoke(d, addr)
			if err != nil {
				pattern += "x"
				continue
			}
			pattern += "."
			c.Close()
		}
		return pattern
	}
	first := run()
	if n := strings.Count(first, "x"); n == 0 || n == 40 {
		t.Fatalf("p=0.5 fired %d/40 — roll not applied", n)
	}
	if second := run(); second != first {
		t.Fatalf("same seed, different faults:\n%s\n%s", first, second)
	}
}

func TestParseSpec(t *testing.T) {
	rules, err := ParseSpec("refused:0.1, 127.0.0.1:9011=stall x1,reset-after-write")
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) != 3 {
		t.Fatalf("got %d rules, want 3", len(rules))
	}
	if rules[0].Fault != FaultRefused || rules[0].P != 0.1 || rules[0].Worker != "" {
		t.Fatalf("rule 0: %+v", rules[0])
	}
	if rules[1].Fault != FaultStall || rules[1].Worker != "127.0.0.1:9011" || rules[1].Count != 1 {
		t.Fatalf("rule 1: %+v", rules[1])
	}
	if rules[2].Fault != FaultResetAfterWrite || rules[2].Count != 0 {
		t.Fatalf("rule 2: %+v", rules[2])
	}

	// x0 and x-1 once parsed as Count <= 0, which the dialer reads as
	// "unlimited": the opposite of what was asked. NaN slipped past the
	// range check.
	for _, bad := range []string{"", "nosuch", "refused:1.5", "refused:zero", "refused:NaN",
		"stall x0", "stall x-1", "stall x00", "127.0.0.1:1=refused:0.5x0"} {
		if _, err := ParseSpec(bad); err == nil {
			t.Fatalf("ParseSpec(%q) should fail", bad)
		}
	}
}

// countSuffix matches a clause that ends in an xN count cap.
var countSuffix = regexp.MustCompile(`x[0-9]+$`)

// FuzzParseSpec holds ParseSpec to its contract on arbitrary input: it
// never panics, every rule it accepts names a known fault with P in [0,1]
// and Count >= 0, and a clause ending in x<digits> yields Count >= 1 or
// an error.
func FuzzParseSpec(f *testing.F) {
	for _, seed := range []string{
		"refused:0.1, 127.0.0.1:9011=stall x1,reset-after-write",
		"latency:0.2x3", "stall x0", "stall x-1", "reset-mid-body:1",
		"a=b=c", "refused:NaN", "x1", ",,", "stall:0x1p-1",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		rules, err := ParseSpec(spec)
		if err != nil {
			return
		}
		var clauses []string
		for _, c := range strings.Split(spec, ",") {
			if c = strings.TrimSpace(c); c != "" {
				clauses = append(clauses, c)
			}
		}
		if len(rules) != len(clauses) {
			t.Fatalf("%q: %d rules from %d clauses", spec, len(rules), len(clauses))
		}
		for i, r := range rules {
			if _, ok := faultNames[r.Fault]; !ok {
				t.Fatalf("%q: rule %d has unknown fault %d", spec, i, r.Fault)
			}
			if !(r.P >= 0 && r.P <= 1) {
				t.Fatalf("%q: rule %d has P %v outside [0,1]", spec, i, r.P)
			}
			if r.Count < 0 {
				t.Fatalf("%q: rule %d has Count %d", spec, i, r.Count)
			}
			if countSuffix.MatchString(clauses[i]) && r.Count < 1 {
				t.Fatalf("%q: clause %q ends in a count but rule %d has Count %d", spec, clauses[i], i, r.Count)
			}
		}
	})
}
