package main

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"time"

	"jord/internal/cluster"
	"jord/internal/server"
	"jord/internal/server/pool"
	"jord/internal/server/router"
	"jord/internal/server/state"
	"jord/internal/workloads"
)

// rigConfig is recorded in every result file.
type rigConfig struct {
	Executors      int     `json:"executors_per_worker"`
	Orchestrators  int     `json:"orchestrators_per_worker"`
	JBSQBound      int     `json:"jbsq_bound"`
	ClusterWorkers int     `json:"cluster_workers"`
	Edge           bool    `json:"edge"`
	Defaults       string  `json:"defaults"`
	SocialUsers    int     `json:"social_users"`
	SocialZipfS    float64 `json:"social_zipf_s"`
	FollowsPerUser int     `json:"social_seeded_follows_per_user"`
	EchoBytes      int     `json:"echo_payload_bytes"`
	GraphBytes     int     `json:"graph_payload_bytes"`
}

func theRigConfig() rigConfig {
	return rigConfig{
		Executors: rigExecutors, Orchestrators: rigOrchestrators, JBSQBound: rigJBSQBound,
		ClusterWorkers: clusterWorkers, Edge: true,
		Defaults:    "admission, breakers, dedup cache, state cap/promotion, dispatcher bound/health/hedging: package defaults",
		SocialUsers: socialUsers, SocialZipfS: socialZipfS, FollowsPerUser: followsPerUser,
		EchoBytes: echoBytes, GraphBytes: graphBytes,
	}
}

// rig is the booted slice of the live stack one workload drives, all in
// this process on loopback TCP (as jordbench -cluster does).
type rig struct {
	w  *workload
	tr *tracer // nil on untraced runs

	daemons []*server.Daemon
	serveCh []chan error
	disp    *cluster.Dispatcher
	dispH   http.Handler // the dispatcher's handler, for /readyz and /statsz
	front   *http.Server
	pool    *pool.Pool // rigPool only

	addr        string // where clients connect ("" for rigPool)
	seededPosts int
}

// pools lists the worker pools of the rig.
func (r *rig) pools() []*pool.Pool {
	if r.pool != nil {
		return []*pool.Pool{r.pool}
	}
	var out []*pool.Pool
	for _, d := range r.daemons {
		out = append(out, d.Pool())
	}
	return out
}

func poolConfig() pool.Config {
	return pool.Config{Executors: rigExecutors, Orchestrators: rigOrchestrators, JBSQBound: rigJBSQBound}
}

func echoBody(ctx router.Ctx) ([]byte, error) { return ctx.Payload(), nil }

// registerGraph deploys the pool_graph functions: leaf digests its
// payload, chain calls one leaf, fanout runs two leaves asynchronously
// over the payload's halves and joins their digests.
func registerGraph(reg *router.Registry) {
	reg.MustRegister("echo", echoBody)
	reg.MustRegister("leaf", func(ctx router.Ctx) ([]byte, error) {
		return binary.BigEndian.AppendUint64(nil, fnv1a(ctx.Payload())), nil
	})
	reg.MustRegister("chain", func(ctx router.Ctx) ([]byte, error) {
		return ctx.Call("leaf", ctx.Payload())
	})
	reg.MustRegister("fanout", func(ctx router.Ctx) ([]byte, error) {
		p := ctx.Payload()
		h := len(p) / 2
		a, err := ctx.Async("leaf", p[:h])
		if err != nil {
			return nil, err
		}
		b, err := ctx.Async("leaf", p[h:])
		if err != nil {
			return nil, err
		}
		ra, err := ctx.Wait(a)
		if err != nil {
			return nil, err
		}
		out := append(make([]byte, 0, 16), ra...)
		rb, err := ctx.Wait(b)
		if err != nil {
			return nil, err
		}
		return append(out, rb...), nil
	})
}

// registerSocialChecks deploys the two read-only functions the post-run
// correctness check uses to look into the store the way a function does.
func registerSocialChecks(reg *router.Registry) {
	// bench.postcount: the sum of every user's post counter.
	reg.MustRegister("bench.postcount", func(ctx router.Ctx) ([]byte, error) {
		var total uint64
		key := make([]byte, 0, 16)
		for u := uint64(0); u < socialUsers; u++ {
			key = appendUser(append(key[:0], "cnt:"...), u)
			sn, err := ctx.StateGet(router.StateGlobal, string(key))
			if errors.Is(err, state.ErrNotFound) {
				continue
			}
			if err != nil {
				return nil, err
			}
			n, _ := strconv.ParseUint(string(sn.Bytes()), 10, 64)
			sn.Release()
			total += n
		}
		return strconv.AppendUint(nil, total, 10), nil
	})
	// bench.hasposts: how many of the newline-separated post ids are stored.
	reg.MustRegister("bench.hasposts", func(ctx router.Ctx) ([]byte, error) {
		found := 0
		for _, id := range strings.Fields(string(ctx.Payload())) {
			sn, err := ctx.StateGet(router.StateGlobal, "post:"+id)
			if errors.Is(err, state.ErrNotFound) {
				continue
			}
			if err != nil {
				return nil, err
			}
			sn.Release()
			found++
		}
		return strconv.AppendInt(nil, int64(found), 10), nil
	})
}

func bootRig(w *workload, tr *tracer, seed int64, clients int) (*rig, error) {
	r := &rig{w: w, tr: tr}
	if w.rig == rigPool {
		reg := router.New()
		registerGraph(reg)
		r.wrapBodies(reg, 0)
		r.pool = pool.New(poolConfig(), reg)
		r.pool.Start()
		return r, nil
	}
	n := 1
	if w.rig == rigCluster {
		n = clusterWorkers
	}
	var addrs []string
	for i := 0; i < n; i++ {
		addr, err := r.startWorker(i)
		if err != nil {
			r.shutdown()
			return nil, err
		}
		addrs = append(addrs, addr)
	}
	r.addr = addrs[0]
	if w.rig == rigCluster {
		if err := r.startDispatcher(addrs); err != nil {
			r.shutdown()
			return nil, err
		}
	}
	if w.social() {
		if err := r.seedSocial(seed, clients); err != nil {
			r.shutdown()
			return nil, err
		}
	}
	return r, nil
}

func (r *rig) wrapBodies(reg *router.Registry, worker int) {
	if r.tr == nil {
		return
	}
	for _, f := range reg.Funcs() {
		f.Body = r.tr.wrapBody(worker, f.Body)
	}
}

// startWorker boots one server.Daemon on a loopback listener and, on a
// traced run, puts the benchmark's wrappers around its listener, its
// bodies and its state backend before any request arrives.
func (r *rig) startWorker(idx int) (string, error) {
	d := server.New(server.Config{Pool: poolConfig(), Edge: true, RequestTimeout: 30 * time.Second})
	if r.w.social() {
		workloads.RegisterSocialLive(d.Reg)
		registerSocialChecks(d.Reg)
	} else {
		d.MustRegister("echo", echoBody)
	}
	r.wrapBodies(d.Reg, idx)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	if r.tr != nil {
		ln = r.tr.wrapListener(ln, idx)
	}
	ch := make(chan error, 1)
	go func() { ch <- d.Serve(ln) }()
	r.daemons = append(r.daemons, d)
	r.serveCh = append(r.serveCh, ch)
	for d.Addr() == "" {
		select {
		case err := <-ch:
			ch <- err
			return "", fmt.Errorf("worker %d stopped during start: %v", idx, err)
		default:
			runtime.Gosched()
		}
	}
	if st := d.State(); r.tr != nil && st != nil {
		d.Pool().SetState(r.tr.wrapState(st, idx))
	}
	return addr, nil
}

func (r *rig) startDispatcher(workers []string) error {
	r.disp = cluster.New(cluster.Config{Workers: workers, RequestTimeout: 30 * time.Second})
	r.disp.Start()
	r.dispH = r.disp.Handler()
	h := r.dispH
	if r.tr != nil {
		h = r.tr.wrapHandler(h)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	r.addr = ln.Addr().String()
	r.front = &http.Server{Handler: h}
	go func() { _ = r.front.Serve(ln) }()
	// Ready once the health loop has polled every worker (which also sizes
	// each worker's JBSQ bound from its /readyz document).
	deadline := time.Now().Add(5 * time.Second)
	for {
		var doc cluster.Readyz
		if err := r.dispatcherJSON("/readyz", &doc); err == nil && doc.ReadyWorkers == len(workers) {
			polled := 0
			for _, ws := range doc.WorkerState {
				if ws.WorkerReady && ws.Executors > 0 {
					polled++
				}
			}
			if polled == len(workers) {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("dispatcher: %d workers not ready within 5s", len(workers))
		}
		time.Sleep(time.Millisecond)
	}
}

// dispatcherJSON reads one of the dispatcher's JSON endpoints in process.
func (r *rig) dispatcherJSON(path string, out any) error {
	rec := httptest.NewRecorder()
	r.dispH.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	return json.Unmarshal(rec.Body.Bytes(), out)
}

// seedSocial fills the store before the first request: a profile and one
// post per user, and a follow graph drawn the way the mix draws follows
// (within each client's share of the users, see userDraw). Every draw
// comes from the run's seed.
func (r *rig) seedSocial(seed int64, clients int) error {
	p := r.daemons[0].Pool()
	rng := rand.New(rand.NewSource(seed*2654435761 + 17))
	draws := make([]*userDraw, clients)
	for c := range draws {
		draws[c] = newUserDraw(rng, c, clients)
	}
	ctx := context.Background()
	buf := make([]byte, 0, 64)
	for u := uint64(0); u < socialUsers; u++ {
		buf = appendUser(buf[:0], u)
		if _, err := p.Invoke(ctx, "social.profile", buf); err != nil {
			return fmt.Errorf("seeding profile: %w", err)
		}
	}
	for i := 0; i < socialUsers*followsPerUser; i++ {
		u, v := draws[i%clients].pair()
		buf = appendUser(append(appendUser(buf[:0], u), ' '), v)
		if _, err := p.Invoke(ctx, "social.follow", buf); err != nil {
			return fmt.Errorf("seeding follow: %w", err)
		}
	}
	for u := uint64(0); u < socialUsers; u++ {
		buf = append(appendUser(buf[:0], u), " first post"...)
		if _, err := p.Invoke(ctx, "social.post", buf); err != nil {
			return fmt.Errorf("seeding post: %w", err)
		}
		r.seededPosts++
	}
	return nil
}

// verifySocial is the social workloads' end-of-run check: post ids handed
// out are unique, every one of them is stored, and the store holds exactly
// the seeded posts plus one per correct social.post response (at least
// that many if some post failed part-way).
func (r *rig) verifySocial(ids []string, exact bool) error {
	seen := make(map[string]struct{}, len(ids))
	for _, id := range ids {
		if _, dup := seen[id]; dup {
			return fmt.Errorf("post id %s handed out twice", id)
		}
		seen[id] = struct{}{}
	}
	p := r.daemons[0].Pool()
	ctx := context.Background()
	out, err := p.Invoke(ctx, "bench.postcount", nil)
	if err != nil {
		return fmt.Errorf("bench.postcount: %w", err)
	}
	stored, _ := strconv.Atoi(string(out))
	want := r.seededPosts + len(ids)
	if stored < want || (exact && stored != want) {
		return fmt.Errorf("store holds %d posts, want %d (%d seeded + %d correct post responses)",
			stored, want, r.seededPosts, len(ids))
	}
	for lo := 0; lo < len(ids); lo += 2000 {
		hi := lo + 2000
		if hi > len(ids) {
			hi = len(ids)
		}
		out, err := p.Invoke(ctx, "bench.hasposts", []byte(strings.Join(ids[lo:hi], "\n")))
		if err != nil {
			return fmt.Errorf("bench.hasposts: %w", err)
		}
		if found, _ := strconv.Atoi(string(out)); found != hi-lo {
			return fmt.Errorf("%d of %d returned post ids are not stored", hi-lo-found, hi-lo)
		}
	}
	return nil
}

// shutdown stops the rig and runs the drain invariants every workload must
// leave behind: the pool drains, no protection domain stays live, the PD
// table and the state store verify idle. The first violation is returned.
func (r *rig) shutdown() error {
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	var first error
	note := func(what string, err error) {
		if err != nil && first == nil {
			first = fmt.Errorf("%s: %w", what, err)
		}
	}
	if r.front != nil {
		note("dispatcher front shutdown", r.front.Shutdown(ctx))
	}
	if r.disp != nil {
		r.disp.Stop()
	}
	for i, d := range r.daemons {
		gw := d.Gateway()
		if gw == nil {
			continue // never started
		}
		gw.SetDraining(true)
		note("edge shutdown", d.Edge().Shutdown(ctx))
		p, st := d.Pool(), d.State()
		note("pool drain", p.Drain(ctx))
		if st != nil {
			note("state store idle", st.VerifyIdle())
		}
		note("daemon shutdown", d.Shutdown(ctx))
		note("worker serve", <-r.serveCh[i])
		note("pd table", verifyTableIdle(p.Table()))
	}
	if r.pool != nil {
		note("pool drain", r.pool.Drain(ctx))
		note("pd table", verifyTableIdle(r.pool.Table()))
	}
	return first
}

func verifyTableIdle(tab *pool.Table) error {
	if n := tab.LivePDs(); n != 0 {
		return fmt.Errorf("%d protection domains still live after drain", n)
	}
	return tab.VerifyIdle()
}
