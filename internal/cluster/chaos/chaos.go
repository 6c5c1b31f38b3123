// Package chaos is a deterministic fault-injection layer for the cluster
// dispatcher's worker connections. It wraps the relay's dial function
// (cluster.Config.Dial) and hands back connections that, per a seeded
// schedule, fail the way a real cluster's do: connections refused, resets
// before or after the request is written, resets mid-response-body,
// latency spikes, and black-hole stalls. The relay knows nothing of it;
// the faults reach it as the errors its own reads, writes and dials
// return. Health polls use no relay connection, so they are never
// faulted and /readyz verdicts stay truthful.
//
// One fault is drawn per request: at the dial for a request that opens a
// connection, at the first write after a read for one that rides a
// kept-alive connection (the relay never pipelines).
//
// Determinism: each target host draws from its own rand.Rand seeded by
// Seed ^ hash(host), so a given (seed, rule set, request order) replays
// the same faults — a failing chaos test reproduces.
package chaos

import (
	"context"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// Fault enumerates the injectable failure modes.
type Fault int

const (
	// FaultRefused synthesizes a dial-time "connection refused": the
	// request never leaves the dispatcher. Always safe to retry. A request
	// that would have ridden a pooled connection finds it reset and the
	// dial that follows refused — what a dead worker looks like.
	FaultRefused Fault = iota
	// FaultResetBeforeWrite synthesizes a connection reset while writing
	// the request: the worker never received a complete request, so it
	// never invoked. Safe to retry.
	FaultResetBeforeWrite
	// FaultResetAfterWrite lets the request through (the worker EXECUTES
	// the function), waits for the response to start arriving, then drops
	// it and reports a read-side reset. Retrying without an idempotency
	// key double-executes.
	FaultResetAfterWrite
	// FaultResetMidBody lets the request through but cuts the response
	// body off partway with a reset. The worker executed.
	FaultResetMidBody
	// FaultLatency delays the request by the rule's Latency, then sends
	// it normally.
	FaultLatency
	// FaultStall black-holes the request: the write blocks until the
	// connection's deadline passes or it is closed, as against a peer that
	// went silent. The worker never sees the request.
	FaultStall
)

var faultNames = map[Fault]string{
	FaultRefused:          "refused",
	FaultResetBeforeWrite: "reset-before-write",
	FaultResetAfterWrite:  "reset-after-write",
	FaultResetMidBody:     "reset-mid-body",
	FaultLatency:          "latency",
	FaultStall:            "stall",
}

func (f Fault) String() string {
	if s, ok := faultNames[f]; ok {
		return s
	}
	return fmt.Sprintf("fault(%d)", int(f))
}

// Rule injects one fault class against one worker (or all of them).
type Rule struct {
	// Worker selects the target by host:port; "" or "*" matches every
	// worker.
	Worker string
	Fault  Fault
	// P is the per-request injection probability; 0 means 1.0 (always).
	P float64
	// Count caps how many times the rule fires; 0 = unlimited.
	Count int
	// Latency is the injected delay for FaultLatency (default 100ms).
	Latency time.Duration
	// MidBody is how many response-body bytes to deliver before the reset
	// for FaultResetMidBody (default 1).
	MidBody int

	fired atomic.Int64
}

func (r *Rule) matches(host string) bool {
	return r.Worker == "" || r.Worker == "*" || r.Worker == host
}

// Fired reports how many times the rule has injected its fault.
func (r *Rule) Fired() int64 { return r.fired.Load() }

// DialFunc opens a connection to a worker; cluster.Config.Dial has this
// shape.
type DialFunc func(ctx context.Context, addr string) (net.Conn, error)

// Dialer wraps a base dial function with the fault schedule.
type Dialer struct {
	base  DialFunc
	rules []*Rule
	seed  int64

	mu   sync.Mutex
	rnds map[string]*rand.Rand
	// owed counts, per worker, refusals drawn by requests on pooled
	// connections and still to be served to the dial that follows.
	owed map[string]int

	injected atomic.Int64
}

// New builds a fault-injecting dialer over base (nil = plain TCP).
func New(base DialFunc, seed int64, rules ...*Rule) *Dialer {
	if base == nil {
		base = func(ctx context.Context, addr string) (net.Conn, error) {
			var nd net.Dialer
			return nd.DialContext(ctx, "tcp", addr)
		}
	}
	return &Dialer{
		base:  base,
		rules: rules,
		seed:  seed,
		rnds:  make(map[string]*rand.Rand),
		owed:  make(map[string]int),
	}
}

// Injected reports the total number of faults injected.
func (d *Dialer) Injected() int64 { return d.injected.Load() }

// pick returns the first matching rule that rolls a hit, consuming one of
// its Count charges.
func (d *Dialer) pick(host string) *Rule {
	for _, r := range d.rules {
		if !r.matches(host) {
			continue
		}
		p := r.P
		if p <= 0 {
			p = 1.0
		}
		if p < 1.0 {
			d.mu.Lock()
			rnd := d.rnds[host]
			if rnd == nil {
				h := fnv.New64a()
				io.WriteString(h, host)
				rnd = rand.New(rand.NewSource(d.seed ^ int64(h.Sum64())))
				d.rnds[host] = rnd
			}
			roll := rnd.Float64()
			d.mu.Unlock()
			if roll >= p {
				continue
			}
		}
		if r.Count > 0 {
			if n := r.fired.Add(1); n > int64(r.Count) {
				r.fired.Add(-1)
				continue
			}
		} else {
			r.fired.Add(1)
		}
		d.injected.Add(1)
		return r
	}
	return nil
}

func refused() error {
	return &net.OpError{Op: "dial", Net: "tcp", Err: syscall.ECONNREFUSED}
}

func reset(op string) error {
	return &net.OpError{Op: op, Net: "tcp", Err: syscall.ECONNRESET}
}

// Dial draws the fault for the request this connection is opened for.
func (d *Dialer) Dial(ctx context.Context, addr string) (net.Conn, error) {
	d.mu.Lock()
	owed := d.owed[addr] > 0
	if owed {
		d.owed[addr]--
	}
	d.mu.Unlock()
	if owed {
		return nil, refused()
	}
	r := d.pick(addr)
	if r != nil && r.Fault == FaultRefused {
		return nil, refused()
	}
	c, err := d.base(ctx, addr)
	if err != nil {
		return nil, err
	}
	return &conn{Conn: c, d: d, host: addr, fault: r, drawn: true}, nil
}

// conn is one worker connection under the schedule. The relay drives a
// connection from one goroutine at a time; only SetDeadline and Close
// arrive from others, and mu covers what they touch.
type conn struct {
	net.Conn
	d    *Dialer
	host string

	fault    *Rule // in force for the request in progress
	drawn    bool  // fault already holds the next request's draw (made at dial)
	writing  bool  // a request has begun and no response byte was read yet
	headSeen int   // mid-body: how much of the blank line ending the head has matched
	bodyLeft int   // mid-body: body bytes still to deliver

	mu       sync.Mutex
	deadline time.Time
	closed   bool
}

func (c *conn) SetDeadline(t time.Time) error {
	c.mu.Lock()
	c.deadline = t
	c.mu.Unlock()
	return c.Conn.SetDeadline(t)
}

func (c *conn) Close() error {
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
	return c.Conn.Close()
}

// wait blocks for d (d < 0: for good), ending early with the error a
// blocked socket write would return when the deadline passes or the
// connection is closed. It polls: a drill can afford the millisecond.
func (c *conn) wait(d time.Duration) error {
	for end := time.Now().Add(d); d < 0 || time.Now().Before(end); time.Sleep(time.Millisecond) {
		c.mu.Lock()
		deadline, closed := c.deadline, c.closed
		c.mu.Unlock()
		if closed {
			return &net.OpError{Op: "write", Net: "tcp", Err: net.ErrClosed}
		}
		if !deadline.IsZero() && !time.Now().Before(deadline) {
			return &net.OpError{Op: "write", Net: "tcp", Err: os.ErrDeadlineExceeded}
		}
	}
	return nil
}

func (c *conn) Write(p []byte) (int, error) {
	if !c.writing {
		c.writing = true
		if !c.drawn {
			c.fault = c.d.pick(c.host)
		}
		c.drawn = false
		if r := c.fault; r != nil {
			switch r.Fault {
			case FaultRefused:
				c.d.mu.Lock()
				c.d.owed[c.host]++
				c.d.mu.Unlock()
				c.Conn.Close()
				return 0, reset("write")
			case FaultResetBeforeWrite:
				c.Conn.Close()
				return 0, reset("write")
			case FaultLatency:
				d := r.Latency
				if d <= 0 {
					d = 100 * time.Millisecond
				}
				if err := c.wait(d); err != nil {
					return 0, err
				}
			case FaultStall:
				return 0, c.wait(-1)
			case FaultResetMidBody:
				c.headSeen = 0
				if c.bodyLeft = r.MidBody; c.bodyLeft <= 0 {
					c.bodyLeft = 1
				}
			}
		}
	}
	return c.Conn.Write(p)
}

func (c *conn) Read(p []byte) (int, error) {
	c.writing = false
	if c.fault == nil {
		return c.Conn.Read(p)
	}
	switch c.fault.Fault {
	case FaultResetAfterWrite:
		// The first response byte proves the worker ran the function.
		if _, err := c.Conn.Read(p); err != nil {
			return 0, err
		}
		c.Conn.Close()
		return 0, reset("read")
	case FaultResetMidBody:
		if c.bodyLeft == 0 {
			c.Conn.Close()
			return 0, reset("read")
		}
		n, err := c.Conn.Read(p)
		// Find where the head ends in what arrived, then count the body.
		keep := 0
		for keep < n && c.bodyLeft > 0 {
			b := p[keep]
			keep++
			switch {
			case c.headSeen == 4:
				c.bodyLeft--
			case b == "\r\n\r\n"[c.headSeen]:
				c.headSeen++
			case b == '\r':
				c.headSeen = 1
			default:
				c.headSeen = 0
			}
		}
		return keep, err
	}
	return c.Conn.Read(p)
}

// ParseSpec parses a comma-separated fault schedule, one rule per clause:
//
//	[worker=]fault[:p][xN]
//
// fault is one of refused, reset-before-write, reset-after-write,
// reset-mid-body, latency (a 100ms delay), stall. p is the injection
// probability in (0, 1] (default 1.0); xN caps the rule at N ≥ 1
// firings. Examples:
//
//	refused:0.1                      10% of requests to any worker refused
//	127.0.0.1:9011=stall x1          first request to that worker stalls
//	reset-after-write:0.05,latency:0.2
func ParseSpec(spec string) ([]*Rule, error) {
	var rules []*Rule
	for _, clause := range strings.Split(spec, ",") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		r := &Rule{}
		// The worker address may itself contain ':' (host:port), so split
		// on the LAST '=' for the worker part.
		if i := strings.LastIndex(clause, "="); i >= 0 {
			r.Worker = strings.TrimSpace(clause[:i])
			clause = strings.TrimSpace(clause[i+1:])
		}
		// Trailing xN count cap. Count 0 would mean "unlimited", so a cap
		// below one is an error, not a silent opposite.
		if i := strings.LastIndex(clause, "x"); i > 0 {
			if n, err := strconv.Atoi(clause[i+1:]); err == nil {
				if n < 1 {
					return nil, fmt.Errorf("chaos: count %q in %q must be at least 1", clause[i:], spec)
				}
				r.Count = n
				clause = strings.TrimSpace(clause[:i])
			}
		}
		name := clause
		if i := strings.IndexByte(clause, ':'); i >= 0 {
			name = clause[:i]
			p, err := strconv.ParseFloat(clause[i+1:], 64)
			if err != nil || !(p > 0 && p <= 1) { // the negation also rejects NaN
				return nil, fmt.Errorf("chaos: bad probability %q in %q", clause[i+1:], spec)
			}
			r.P = p
		}
		found := false
		for f, s := range faultNames {
			if s == name {
				r.Fault = f
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("chaos: unknown fault %q (want one of refused, reset-before-write, reset-after-write, reset-mid-body, latency, stall)", name)
		}
		rules = append(rules, r)
	}
	if len(rules) == 0 {
		return nil, fmt.Errorf("chaos: empty spec")
	}
	return rules, nil
}
