package core

import (
	"fmt"
	"math/rand/v2"

	"jord/internal/mem/vmatable"
	"jord/internal/sim/engine"
)

// ClusterConfig assembles multiple worker servers behind a front-end load
// balancer, all sharing one virtual timeline. It realizes the §3.3
// sentence the single-server evaluation leaves implicit: "For internal
// requests that cannot be served on the current worker server, the
// orchestrator sends them through the network to find another worker
// server for execution."
type ClusterConfig struct {
	Servers   int
	PerServer Config

	// NetworkRTTNS is the server-to-server RPC round trip (kernel-bypass
	// datacenter networking, ~10 us).
	NetworkRTTNS float64
	// NetworkBytesPerNS is the per-byte wire+NIC throughput for ArgBuf
	// payloads crossing servers (~12.5 GB/s per flow).
	NetworkBytesPerNS float64

	// SpillQueueThreshold forwards an internal request to another server
	// when every local executor's queue is at or beyond it (0 disables
	// spillover).
	SpillQueueThreshold int

	// SkewFirst, when positive, routes that fraction of external requests
	// to server 0 (the rest round-robin over the others) — an imbalanced
	// front-end that exercises the spillover path.
	SkewFirst float64

	Seed uint64
}

// DefaultClusterConfig is a 4-server cluster of the paper's 32-core
// machines.
func DefaultClusterConfig() ClusterConfig {
	return ClusterConfig{
		Servers:             4,
		PerServer:           DefaultConfig(),
		NetworkRTTNS:        10_000,
		NetworkBytesPerNS:   12.5,
		SpillQueueThreshold: 8,
		Seed:                1,
	}
}

// Cluster is a set of worker servers on one engine.
type Cluster struct {
	Cfg     ClusterConfig
	Eng     *engine.Engine
	Servers []*System

	rng    *rand.Rand
	nextLB int

	// Forwarded counts internal requests spilled to a remote server.
	Forwarded uint64
}

// NewCluster boots all servers. Workload functions must be registered
// identically on every server (use RegisterAll).
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	if cfg.Servers < 1 {
		return nil, fmt.Errorf("core: cluster needs at least one server")
	}
	c := &Cluster{
		Cfg: cfg,
		Eng: engine.New(),
		rng: rand.New(rand.NewPCG(cfg.Seed, 0xc1d4)),
	}
	for i := 0; i < cfg.Servers; i++ {
		s, err := newSystemOn(c.Eng, cfg.PerServer, i)
		if err != nil {
			return nil, err
		}
		s.cluster = c
		c.Servers = append(c.Servers, s)
	}
	return c, nil
}

// RegisterAll deploys a function on every server under the same FuncID.
func (c *Cluster) RegisterAll(name string, body func(*Ctx) error) (FuncID, error) {
	var id FuncID
	for i, s := range c.Servers {
		fid, err := s.Register(name, body)
		if err != nil {
			return 0, err
		}
		if i == 0 {
			id = fid
		} else if fid != id {
			return 0, fmt.Errorf("core: function ID skew across servers (%d vs %d)", fid, id)
		}
	}
	return id, nil
}

// Inject delivers an external request to a server: round robin, or skewed
// toward server 0 when the config says so.
func (c *Cluster) Inject(fn FuncID, blocks int) *Request {
	if c.Cfg.SkewFirst > 0 && c.rng.Float64() < c.Cfg.SkewFirst {
		return c.Servers[0].Inject(fn, blocks)
	}
	c.nextLB++
	if len(c.Servers) > 1 && c.Cfg.SkewFirst > 0 {
		return c.Servers[1+c.nextLB%(len(c.Servers)-1)].Inject(fn, blocks)
	}
	return c.Servers[c.nextLB%len(c.Servers)].Inject(fn, blocks)
}

// netLatency returns the one-way network latency for a payload.
func (c *Cluster) netLatency(bytes int) engine.Time {
	ns := c.Cfg.NetworkRTTNS/2 + float64(bytes)/c.Cfg.NetworkBytesPerNS
	return c.Servers[0].nsToCycles(ns)
}

// spillTarget picks the remote server for a forwarded request (round
// robin over the others).
func (c *Cluster) spillTarget(origin *System) *System {
	for {
		c.nextLB++
		t := c.Servers[c.nextLB%len(c.Servers)]
		if t != origin {
			return t
		}
	}
}

// forwardInternal ships an internal request to another server: the ArgBuf
// contents cross the wire (zero-copy holds only within an address space),
// and a fresh ArgBuf is staged on the remote side when the request is
// dispatched there. Called from the origin orchestrator's proc.
func (c *Cluster) forwardInternal(origin *Orchestrator, r *Request, p *engine.Proc) {
	target := c.spillTarget(origin.sys)
	c.Forwarded++

	bytes := r.Blocks * 64
	// Origin side: serialize out of the ArgBuf and hand to the NIC; the
	// local ArgBuf is dead after the send.
	sendCPU := origin.sys.IPC.Serialize(bytes) + origin.sys.IPC.ShmCopy(bytes)
	p.Delay(sendCPU)
	r.Trace.Comm += sendCPU
	if !origin.sys.Cfg.NightCore && r.ArgBufVA != 0 {
		lat, err := origin.sys.Lib.Munmap(origin.Core, vmatable.ExecutorPD, r.ArgBufVA)
		if err != nil {
			panic(fmt.Sprintf("core: freeing forwarded ArgBuf: %v", err))
		}
		p.Delay(lat)
		r.Trace.Alloc += lat
		// The parent must no longer tear this buffer down at its finish.
		r.parent.forgetOwnedBuf(r.ArgBufVA)
		r.ArgBufVA = 0
	}
	r.staged = false // the remote orchestrator stages a fresh buffer
	r.remoteHop = true

	wire := c.netLatency(bytes)
	tOrch := target.Orchs[int(r.ID)%len(target.Orchs)]
	origin.sys.Eng.Schedule(wire, func() {
		r.Producer = tOrch.Core
		tOrch.submitInternal(r)
	})
}

// completeRemote returns a finished forwarded request's results to the
// parent's server over the network, then resumes the parent. Called from
// the remote executor's proc, which pays the serialization CPU.
func (c *Cluster) completeRemote(e *Executor, r *Request, p *engine.Proc) {
	parent := r.parent
	bytes := r.Blocks * 64
	sendCPU := e.sys.IPC.Serialize(bytes) + e.sys.IPC.ShmCopy(bytes)
	p.Delay(sendCPU)
	r.Trace.Comm += sendCPU
	wire := c.netLatency(bytes)
	r.Producer = parent.exec.Core // collection is then server-local
	e.sys.Eng.Schedule(wire, func() {
		r.done = true
		if parent.waiting == r {
			parent.waiting = nil
			parent.exec.readyResume(parent)
		}
	})
}

// RunLoad drives the whole cluster open-loop and aggregates per-server
// results. Measurement windows are cluster-wide.
func (c *Cluster) RunLoad(spec LoadSpec) *Results {
	if spec.Measure == 0 {
		spec.Measure = 1
	}
	if spec.MaxVirtualSeconds == 0 {
		spec.MaxVirtualSeconds = 5
	}
	// The first server owns the window bookkeeping; Inject round-robins,
	// so divide the window across servers via a shared counter instead.
	for _, s := range c.Servers {
		s.stopWhenDone = false // the cluster stops the engine itself
		s.warmup = 0
		s.measureN = 0
	}
	var injected, outstanding uint64
	warmed := func() bool { return injected > spec.Warmup }
	doneInjecting := func() bool { return injected > spec.Warmup+spec.Measure }

	cyclesPerSec := c.Servers[0].M.Cfg.FreqGHz * 1e9
	meanGap := cyclesPerSec / spec.RPS
	rng := rand.New(rand.NewPCG(c.Cfg.Seed, 77))

	c.Eng.Spawn("cluster-loadgen", func(p *engine.Proc) {
		for {
			p.Delay(engine.Time(rng.ExpFloat64()*meanGap + 0.5))
			fn, blocks := spec.Root()
			injected++
			r := c.Inject(fn, blocks)
			if warmed() && !doneInjecting() {
				r.measured = true
				r.onComplete = func() {
					outstanding--
					if outstanding == 0 && doneInjecting() {
						c.Eng.Stop()
					}
				}
				outstanding++
			} else if doneInjecting() && outstanding == 0 {
				// The window may have drained before doneInjecting turned
				// true; re-check here so the run always terminates.
				c.Eng.Stop()
			}
		}
	})
	c.Eng.Run(engine.Time(spec.MaxVirtualSeconds * cyclesPerSec))
	c.Eng.Shutdown()

	// Aggregate.
	agg := &Results{PerFunc: map[FuncID]*FuncStats{}}
	for _, s := range c.Servers {
		agg.Latency.Merge(&s.Res.Latency)
		agg.ServiceTime.Merge(&s.Res.ServiceTime)
		agg.DispatchNS.Merge(&s.Res.DispatchNS)
		agg.Completed += s.Res.Completed
		agg.Failed += s.Res.Failed
		agg.AllInvocations += s.Res.AllInvocations
		if agg.FirstArrival == 0 || (s.Res.FirstArrival != 0 && s.Res.FirstArrival < agg.FirstArrival) {
			agg.FirstArrival = s.Res.FirstArrival
		}
		if s.Res.LastComplete > agg.LastComplete {
			agg.LastComplete = s.Res.LastComplete
		}
		for fn, fs := range s.Res.PerFunc {
			dst := agg.PerFunc[fn]
			if dst == nil {
				dst = &FuncStats{Name: fs.Name}
				agg.PerFunc[fn] = dst
			}
			dst.Count += fs.Count
			dst.Service += fs.Service
			dst.Dispatch += fs.Dispatch
			dst.Isolation += fs.Isolation
			dst.Alloc += fs.Alloc
			dst.Comm += fs.Comm
			dst.Exec += fs.Exec
			dst.Queue += fs.Queue
		}
	}
	return agg
}

// Close shuts down the shared engine.
func (c *Cluster) Close() { c.Eng.Shutdown() }
