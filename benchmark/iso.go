package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"time"

	"jord/internal/cluster"
	"jord/internal/server/admission"
	"jord/internal/server/breaker"
	"jord/internal/server/gateway"
	"jord/internal/server/pool"
	"jord/internal/server/router"
	"jord/internal/server/state"
)

// The "iso" rows: each drives ONE layer alone with one client in a closed
// loop, so the end-to-end figure of a workload can be read as a sum of
// layers (ROADMAP item 1's table). They do not depend on the workload.

// isoRTT times f call by call for d and returns the median in ns and the
// process-wide heap allocations per call.
func isoRTT(d time.Duration, f func() error) (medNS, allocs float64, err error) {
	for i := 0; i < 50; i++ { // warm caches, pools and connections
		if err := f(); err != nil {
			return 0, 0, err
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	lat := make([]int64, 0, 1<<14)
	for end := nowNS() + int64(d); ; {
		t0 := nowNS()
		if t0 >= end {
			break
		}
		if err := f(); err != nil {
			return 0, 0, err
		}
		lat = append(lat, nowNS()-t0)
	}
	runtime.ReadMemStats(&after)
	slices.Sort(lat)
	return percentile(lat, 0.5), float64(after.Mallocs-before.Mallocs) / float64(len(lat)), nil
}

// isoBatch times f in batches of 1000 calls (f is too short to time call
// by call) and returns the median batch's ns per call and allocations per call.
func isoBatch(d time.Duration, f func()) (nsPerOp, allocs float64) {
	const batch = 1000
	for i := 0; i < batch; i++ {
		f()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var per []float64
	for end := nowNS() + int64(d); nowNS() < end || len(per) < 3; {
		t0 := nowNS()
		for i := 0; i < batch; i++ {
			f()
		}
		per = append(per, float64(nowNS()-t0)/batch)
	}
	runtime.ReadMemStats(&after)
	return median(per), float64(after.Mallocs-before.Mallocs) / float64(len(per)*batch)
}

// stubServer answers every request on a loopback socket with a canned 200
// that carries the request body back, without touching the program: the
// socket the generator's own floor is measured against, and the stand-in
// worker behind the dispatcher.
type stubServer struct {
	ln net.Listener

	mu    sync.Mutex
	conns map[net.Conn]struct{}
	wg    sync.WaitGroup
}

func startStub() (*stubServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &stubServer{ln: ln, conns: make(map[net.Conn]struct{})}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			s.mu.Lock()
			s.conns[c] = struct{}{}
			s.mu.Unlock()
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				s.serve(c)
			}()
		}
	}()
	return s, nil
}

func (s *stubServer) addr() string { return s.ln.Addr().String() }

// stop closes the listener and every connection (the dispatcher keeps
// idle ones open) and waits for the serving goroutines.
func (s *stubServer) stop() {
	s.ln.Close()
	s.mu.Lock()
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
}

func (s *stubServer) serve(c net.Conn) {
	defer func() {
		c.Close()
		s.mu.Lock()
		delete(s.conns, c)
		s.mu.Unlock()
	}()
	br := bufio.NewReaderSize(c, 64<<10)
	var head, body, out []byte
	for {
		head = head[:0]
		for {
			line, err := br.ReadSlice('\n')
			if err != nil {
				return
			}
			head = append(head, line...)
			if len(line) <= 2 {
				break
			}
		}
		n := contentLength(head)
		if cap(body) < n {
			body = make([]byte, n)
		}
		body = body[:n]
		if _, err := io.ReadFull(br, body); err != nil {
			return
		}
		out = append(out[:0], "HTTP/1.1 200 OK\r\nContent-Type: application/octet-stream\r\nContent-Length: "...)
		out = append(strconv.AppendInt(out, int64(len(body)), 10), "\r\n\r\n"...)
		out = append(out, body...)
		if _, err := c.Write(out); err != nil {
			return
		}
	}
}

// echoRow times 64 B or 64 KiB echoes from one client against addr.
func echoRow(d time.Duration, addr string, size int, keyed bool) (us, allocs float64, err error) {
	tp, err := dialHTTP(addr)
	if err != nil {
		return 0, 0, err
	}
	defer tp.close()
	tp.keyed = keyed
	payload := make([]byte, size)
	for i := range payload {
		payload[i] = byte('a' + i%26)
	}
	o := op{fn: "echo", kind: opEcho, payload: payload}
	ns, allocs, err := isoRTT(d, func() error {
		resp, err := tp.do(&o, 0)
		if err != nil {
			return err
		}
		if ok, _ := o.check(resp); !ok {
			return fmt.Errorf("wrong echo")
		}
		return nil
	})
	return ns / 1e3, allocs, err
}

// runIso measures every iso row, spending about d on each.
func runIso(d time.Duration) (map[string]float64, error) {
	m := make(map[string]float64)

	// client: the generator's transport against the canned socket.
	canned, err := startStub()
	if err != nil {
		return nil, err
	}
	m["client.floor_us"], _, err = echoRow(d, canned.addr(), echoBytes, false)
	canned.stop()
	if err != nil {
		return nil, fmt.Errorf("client floor: %w", err)
	}

	if err := isoCluster(d, m); err != nil {
		return nil, fmt.Errorf("cluster rows: %w", err)
	}
	if err := isoGateway(d, m); err != nil {
		return nil, fmt.Errorf("gateway rows: %w", err)
	}
	isoControls(d, m)
	if err := isoPool(d, m); err != nil {
		return nil, fmt.Errorf("pool rows: %w", err)
	}
	if err := isoState(d, m); err != nil {
		return nil, fmt.Errorf("state rows: %w", err)
	}
	return m, nil
}

// isoCluster: the dispatcher's relay alone, in front of a stub worker.
func isoCluster(d time.Duration, m map[string]float64) error {
	stub, err := startStub()
	if err != nil {
		return err
	}
	defer stub.stop()
	// No health polling: the stub has no /readyz, and a worker starts admittable.
	disp := cluster.New(cluster.Config{Workers: []string{stub.addr()}, HealthInterval: -1})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	front := &http.Server{Handler: disp.Handler()}
	go func() { _ = front.Serve(ln) }()
	defer front.Close()
	addr := ln.Addr().String()
	if m["cluster.relay_floor_us.64"], m["cluster.allocs_per_req"], err = echoRow(d, addr, 64, false); err != nil {
		return err
	}
	m["cluster.relay_floor_us.65536"], _, err = echoRow(d, addr, 65536, false)
	return err
}

// isoGateway: one worker's front ends alone — the edge keyless and keyed,
// the net/http handler — plus the dedup cache by itself.
func isoGateway(d time.Duration, m map[string]float64) error {
	w := &workload{name: "iso", rig: rigEdge}
	r := &rig{w: w}
	addr, err := r.startWorker(0)
	if err != nil {
		r.shutdown()
		return err
	}
	defer r.shutdown()
	if m["gateway.edge_keyless_us.64"], m["gateway.edge_keyless_allocs_per_req.64"], err = echoRow(d, addr, 64, false); err != nil {
		return err
	}
	if m["gateway.edge_keyless_us.65536"], m["gateway.edge_keyless_allocs_per_req.65536"], err = echoRow(d, addr, 65536, false); err != nil {
		return err
	}
	if m["gateway.edge_keyed_us.64"], m["gateway.edge_keyed_allocs_per_req.64"], err = echoRow(d, addr, 64, true); err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: r.daemons[0].Gateway().Handler()}
	go func() { _ = hs.Serve(ln) }()
	defer hs.Close()
	if m["gateway.http_us.64"], m["gateway.http_allocs_per_req.64"], err = echoRow(d, ln.Addr().String(), 64, false); err != nil {
		return err
	}

	dc := gateway.NewDedupCache(0)
	body := make([]byte, echoBytes)
	keys := make([]string, 1<<16)
	for i := range keys {
		keys[i] = "bench-" + strconv.Itoa(i)
	}
	i := 0
	ns, _ := isoBatch(d, func() {
		// 65536 keys over a 4096-entry cache: a key comes round again only
		// long after its eviction, so every Begin leads.
		if e, leader := dc.Begin(keys[i&(len(keys)-1)]); leader {
			dc.Commit(e, http.StatusOK, "application/octet-stream", body)
		}
		i++
	})
	m["gateway.dedup_us"] = ns / 1e3
	return nil
}

// isoControls: the admission controller and one breaker, as the edge
// calls them per request.
func isoControls(d time.Duration, m map[string]float64) {
	adm := admission.NewAdaptive(4*rigExecutors*rigJBSQBound, rigExecutors, 0, 0)
	m["admission.admit_ns"], _ = isoBatch(d, func() {
		if adm.TryAdmit() {
			adm.Release()
		}
	})
	brk := breaker.New(breaker.Config{})
	m["breaker.allow_ns"], _ = isoBatch(d, func() {
		now := time.Now()
		if probe, ok, _ := brk.Allow(now); ok {
			brk.Record(false, probe, now)
		}
	})
}

// isoPool: Pool.Invoke alone — echo, the nested chain and the fan-out.
func isoPool(d time.Duration, m map[string]float64) error {
	reg := router.New()
	registerGraph(reg)
	p := pool.New(poolConfig(), reg)
	p.Start()
	defer p.Drain(context.Background())
	ctx := context.Background()
	small, big := make([]byte, echoBytes), make([]byte, graphBytes)
	row := func(fn string, payload []byte) (float64, float64, error) {
		ns, allocs, err := isoRTT(d, func() error { _, err := p.Invoke(ctx, fn, payload); return err })
		return ns / 1e3, allocs, err
	}
	var err error
	if m["pool.invoke_us"], m["pool.allocs_per_invoke"], err = row("echo", small); err != nil {
		return err
	}
	if m["pool.chain_us"], _, err = row("chain", big); err != nil {
		return err
	}
	m["pool.fanout_us"], _, err = row("fanout", big)
	return err
}

// isoState: the store's entry points alone — a granted read, a read of a
// globally promoted key, and a take/commit read-modify-write.
func isoState(d time.Duration, m map[string]float64) error {
	tab := pool.NewTable(16)
	pd, err := tab.Cget()
	if err != nil {
		return err
	}
	defer tab.Cput(pd)
	val := make([]byte, 256)
	get := func(st *state.Store) func() {
		return func() {
			if sn, err := st.Get(pd, "", router.StateGlobal, "k"); err == nil {
				sn.ReleaseHold()
			}
		}
	}
	for _, row := range []struct {
		metric  string
		promote int
	}{{"state.get_ns", -1}, {"state.get_global_ro_ns", 1}} {
		st, err := state.New(state.Config{PromoteAfter: row.promote}, tab)
		if err != nil {
			return err
		}
		if _, err := st.Put(pd, "", router.StateGlobal, "k", val); err != nil {
			return err
		}
		m[row.metric], _ = isoBatch(d, get(st))
		if err := st.Close(); err != nil {
			return err
		}
	}
	st, err := state.New(state.Config{}, tab)
	if err != nil {
		return err
	}
	defer st.Close()
	m["state.rmw_ns"], m["state.rmw_allocs"] = isoBatch(d, func() {
		if tx, err := st.Take(pd, "", router.StateGlobal, "k"); err == nil {
			if _, err := tx.Commit(val); err != nil {
				tx.Discard()
			}
			tx.ReleaseHold()
		}
	})
	return nil
}
