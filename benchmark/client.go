package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
	"runtime"
	"strconv"
	"sync"
	"syscall"
	"time"

	"jord/internal/server/gateway"
	"jord/internal/server/pool"
)

// numClients is how many connections (and, in a closed loop, generator
// goroutines) drive a workload: min(nproc, 4), so the generator never
// oversubscribes the box it shares with the program.
func numClients() int {
	if n := runtime.NumCPU(); n < 4 {
		return n
	}
	return 4
}

// transport carries one request at a time to the program and returns the
// response body, valid until the next call. id is non-zero on traced runs.
type transport interface {
	do(o *op, id uint64) ([]byte, error)
	close()
}

// httpTransport is a raw keep-alive HTTP/1.1 client: prebuilt bytes out,
// ReadSlice-parsed response in, no allocation per request — so the
// generator's own cost (client.floor_us) stays small and steady.
type httpTransport struct {
	conn net.Conn
	br   *bufio.Reader
	wbuf []byte
	body []byte
	// keyed stamps a unique idempotency key on every request (iso rows).
	keyed bool
	seq   uint64
}

func dialHTTP(addr string) (*httpTransport, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &httpTransport{conn: c, br: bufio.NewReaderSize(c, 64<<10), wbuf: make([]byte, 0, 2048)}, nil
}

func (t *httpTransport) close() { t.conn.Close() }

var clPrefix = []byte("Content-Length:")

func (t *httpTransport) do(o *op, id uint64) ([]byte, error) {
	b := append(t.wbuf[:0], "POST /invoke/"...)
	b = append(b, o.fn...)
	b = append(b, " HTTP/1.1\r\nHost: bench\r\n"...)
	n := len(o.payload)
	if id != 0 {
		b = append(b, benchIDHeader+": "...)
		b = append(appendID(b, id), "\r\n"...)
		n += idPrefixLen
	}
	if t.keyed {
		t.seq++
		b = append(b, gateway.IdempotencyKeyHeader+": bench-"...)
		b = append(strconv.AppendUint(b, t.seq, 10), "\r\n"...)
	}
	b = append(b, "Content-Length: "...)
	b = append(strconv.AppendInt(b, int64(n), 10), "\r\n\r\n"...)
	if id != 0 {
		b = append(appendID(b, id), ' ')
	}
	b = append(b, o.payload...)
	t.wbuf = b
	if _, err := t.conn.Write(b); err != nil {
		return nil, err
	}

	line, err := t.br.ReadSlice('\n')
	if err != nil {
		return nil, err
	}
	if len(line) < 12 {
		return nil, fmt.Errorf("short status line %q", line)
	}
	// line is volatile (the next ReadSlice overwrites it): keep the code as a number.
	status := int(line[9]-'0')*100 + int(line[10]-'0')*10 + int(line[11]-'0')
	cl := -1
	for {
		line, err = t.br.ReadSlice('\n')
		if err != nil {
			return nil, err
		}
		if len(line) <= 2 {
			break
		}
		if len(line) > len(clPrefix) && bytes.EqualFold(line[:len(clPrefix)], clPrefix) {
			cl = 0
			for _, ch := range bytes.TrimSpace(line[len(clPrefix):]) {
				if ch < '0' || ch > '9' {
					return nil, fmt.Errorf("bad content-length %q", line)
				}
				cl = cl*10 + int(ch-'0')
			}
		}
	}
	if cl < 0 {
		return nil, fmt.Errorf("response without content-length")
	}
	if cap(t.body) < cl {
		t.body = make([]byte, cl)
	}
	t.body = t.body[:cl]
	if _, err := io.ReadFull(t.br, t.body); err != nil {
		return nil, err
	}
	if status != 200 {
		return nil, statusError(fmt.Sprintf("status %d: %s", status, bytes.TrimSpace(t.body)))
	}
	return t.body, nil
}

// statusError is a refusal or failure the program answered in good order:
// the connection is still in step, unlike after a transport error.
type statusError string

func (e statusError) Error() string { return string(e) }

// poolTransport calls Pool.Invoke in process (pool_graph: no sockets).
type poolTransport struct {
	p   *pool.Pool
	buf []byte
}

func (t *poolTransport) close() {}

func (t *poolTransport) do(o *op, id uint64) ([]byte, error) {
	payload := o.payload
	if id != 0 {
		t.buf = append(append(appendID(t.buf[:0], id), ' '), payload...)
		payload = t.buf
	}
	return t.p.Invoke(context.Background(), o.fn, payload)
}

func (r *rig) dial() (transport, error) {
	if r.pool != nil {
		return &poolTransport{p: r.pool}, nil
	}
	return dialHTTP(r.addr)
}

// window accumulates one client's share of one window of a phase.
type window struct {
	attempted int
	correct   int
	sloOK     int
	late      int
	waitNS    int64   // summed send-minus-due (open loop)
	lat       []int64 // ns, correct responses only
}

func (w *window) merge(o *window) {
	w.attempted += o.attempted
	w.correct += o.correct
	w.sloOK += o.sloOK
	w.late += o.late
	w.waitNS += o.waitNS
	w.lat = append(w.lat, o.lat...)
}

// phase is one measured stretch of load.
type phase struct {
	name     string
	windows  []window
	cpuUS    []float64 // process user+sys CPU spent in each window
	wall     time.Duration
	wrong    int      // responses that arrived in good order but were not the right answer
	firstErr error    // first failed or wrong response, for the report
	posts    []string // ids the correct social.post responses returned
}

func (p *phase) totals() (attempted, correct int) {
	for i := range p.windows {
		attempted += p.windows[i].attempted
		correct += p.windows[i].correct
	}
	return
}

// lateness sums how many sends were late and how long sends waited past
// their due times.
func (p *phase) lateness() (late int, waitNS int64) {
	for i := range p.windows {
		late += p.windows[i].late
		waitNS += p.windows[i].waitNS
	}
	return
}

// client is one connection and the request stream sent on it: a goroutine
// of its own in a closed loop, a turn of the pacer's in an open one.
type client struct {
	idx      int
	gen      *generator
	arrivals *rand.Rand // draws the open loop's inter-arrival gaps (the pacer uses client 0's)
	tp       transport
	seq      uint64
	phaseResult
}

// phaseResult is what a client books during one phase.
type phaseResult struct {
	windows  []window
	wrong    int
	firstErr error
	posts    []string
}

// loadSpec says how a phase offers load.
type loadSpec struct {
	name   string
	dur    time.Duration
	open   bool    // open loop at rate; otherwise closed loop
	rate   float64 // requests per second over all clients
	sloNS  int64
	traced *tracer // non-nil: send ids and record client.request spans
	record bool    // keep windows and sample CPU (false for warm-up)
}

// lateAfterNS is how long after its due time a send counts as late.
const lateAfterNS = int64(time.Millisecond)

// runPhase offers load for spec.dur and merges the windows.
//
// In a closed loop every client is a goroutine that sends its next request
// when the previous response has arrived.
//
// In an open loop one pacing goroutine sends on a Poisson schedule at
// spec.rate whatever the program does, request i on connection i mod n with
// that client's generator, and a request's latency runs from the moment it
// was due, so a stall is charged to every request it delays. The pacer
// waits for a due time by polling the clock and yielding to the scheduler
// (spinUntil), never in the kernel: see spinUntil for why.
func runPhase(clients []*client, spec loadSpec) *phase {
	numWindows := closedWindows
	if spec.open {
		numWindows = openWindows
	}
	ph := &phase{name: spec.name, windows: make([]window, numWindows), cpuUS: make([]float64, numWindows)}
	start := nowNS() + int64(2*time.Millisecond)
	end := start + int64(spec.dur)
	winNS := int64(spec.dur) / int64(numWindows)

	var helpers sync.WaitGroup
	if spec.record {
		helpers.Add(1)
		go func() {
			defer helpers.Done()
			prev := 0.0
			for i := 0; i <= numWindows; i++ {
				sleepUntil(start + int64(i)*winNS)
				cpu := processCPUus()
				if i > 0 {
					ph.cpuUS[i-1] = cpu - prev
				}
				prev = cpu
			}
		}()
	}

	// issue sends one request, checks the response and books it.
	issue := func(c *client, o *op, due, sent int64) {
		var id uint64
		if spec.traced != nil {
			c.seq++
			id = uint64(c.idx+1)<<48 | c.seq
		}
		resp, err := c.tp.do(o, id)
		done := nowNS()
		ok := false
		var postID string
		if err == nil {
			if ok, postID = o.check(resp); !ok {
				c.wrong++
				err = statusError(fmt.Sprintf("%s: wrong response %q", o.fn, truncate(resp, 80)))
			}
		}
		if err != nil && c.firstErr == nil {
			c.firstErr = err
		}
		if postID != "" {
			c.posts = append(c.posts, postID)
		}
		if spec.traced != nil {
			spec.traced.add(span{id: id, kind: kClient, start: due, end: done, aux: sent, worker: -1})
		}
		if spec.record {
			// A closed-loop request belongs to the window it
			// completed in, an open-loop one to the window it was due in.
			at := done
			if spec.open {
				at = due
			}
			wi := int((at - start) / winNS)
			if wi >= numWindows {
				wi = numWindows - 1
			}
			w := &c.windows[wi]
			w.attempted++
			w.waitNS += sent - due
			if sent-due > lateAfterNS {
				w.late++
			}
			if ok {
				w.correct++
				w.lat = append(w.lat, done-due)
				if done-due <= spec.sloNS {
					w.sloOK++
				}
			}
		}
		if _, inStep := err.(statusError); err != nil && !inStep {
			// The connection may be out of step after a transport
			// error; a fresh one keeps the rest of the phase honest.
			if ht, isHTTP := c.tp.(*httpTransport); isHTTP {
				if nt, derr := dialHTTP(ht.conn.RemoteAddr().String()); derr == nil {
					ht.close()
					c.tp = nt
				}
			}
		}
	}

	for _, c := range clients {
		c.phaseResult = phaseResult{windows: make([]window, numWindows)}
	}
	var wg sync.WaitGroup
	if spec.open {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var o op
			arrivals := clients[0].arrivals
			gap := 1e9 / spec.rate // mean ns between sends
			due := start
			for i := 0; ; i++ {
				c := clients[i%len(clients)]
				c.gen.next(&o)
				if due += int64(arrivals.ExpFloat64() * gap); due >= end {
					return
				}
				spinUntil(due)
				issue(c, &o, due, nowNS())
			}
		}()
	} else {
		for _, c := range clients {
			wg.Add(1)
			go func(c *client) {
				defer wg.Done()
				var o op
				sleepUntil(start)
				for {
					c.gen.next(&o)
					sent := nowNS()
					if sent >= end {
						return
					}
					issue(c, &o, sent, sent)
				}
			}(c)
		}
	}
	wg.Wait()
	ph.wall = time.Duration(nowNS() - start)
	helpers.Wait()
	for _, c := range clients {
		for wi := range c.windows {
			ph.windows[wi].merge(&c.windows[wi])
		}
		ph.wrong += c.wrong
		if ph.firstErr == nil {
			ph.firstErr = c.firstErr
		}
		ph.posts = append(ph.posts, c.posts...)
	}
	return ph
}

func truncate(b []byte, n int) []byte {
	if len(b) > n {
		return b[:n]
	}
	return b
}

// spinUntil returns once the benchmark clock has reached at. It polls the
// clock and yields to the Go scheduler between polls; it never sleeps in
// the kernel.
//
// A kernel timer is the obvious way to wait, and on this kind of box the
// wrong one. In a two-core virtual machine a timer wake-up (timerfd through
// the netpoller, or a blocking read) comes 14-17 us late after a 50 us
// sleep and 33 us late (p90 80 us) after a 1 ms sleep — the cost of the
// virtualised timer interrupt and of leaving the halted state, which
// depends on what the host is doing, not on the program. Timed from the due
// time, that overshoot was half of edge_echo's p50 and moved it by a
// quarter from one set of ten runs to the next.
//
// Polling costs a core, which the open loop has to spare: it holds the one
// scheduler thread (GOMAXPROCS=1) only between requests, when nothing is
// in flight, so the program loses nothing to it — timers and background
// goroutines still run at every yield, and the netpoller is polled whenever
// the pacer parks on a response. With the wait gone the thread never halts
// during an open loop, and p50_us repeats as closely as rps does. The
// price: a thread that is never idle gives the collector no idle time to
// mark in, so a cycle of the allocating workloads lasts longer than under a
// generator that sleeps (README, "The pacer never sleeps").
func spinUntil(at int64) {
	for nowNS() < at {
		runtime.Gosched()
	}
}

func sleepUntil(t int64) {
	if d := t - nowNS(); d > 0 {
		time.Sleep(time.Duration(d))
	}
}

// processCPUus is the process's user+system CPU time so far, from getrusage.
func processCPUus() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec)*1e6 + float64(t.Usec) }
	return tv(ru.Utime) + tv(ru.Stime)
}

func newClients(r *rig, seed int64, n int) ([]*client, error) {
	clients := make([]*client, n)
	for i := range clients {
		tp, err := r.dial()
		if err != nil {
			closeClients(clients)
			return nil, err
		}
		clients[i] = &client{
			idx: i, gen: newGenerator(r.w, seed, i, n), tp: tp,
			arrivals: rand.New(rand.NewSource(seed*31 + int64(i)*104729 + 5)),
		}
	}
	return clients, nil
}

func closeClients(clients []*client) {
	for _, c := range clients {
		if c != nil {
			c.tp.close()
		}
	}
}
