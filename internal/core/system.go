package core

import (
	"fmt"
	"math/rand/v2"

	"jord/internal/ipc"
	"jord/internal/mem/vmatable"
	"jord/internal/metrics"
	"jord/internal/privlib"
	"jord/internal/sim/engine"
	"jord/internal/sim/memmodel"
	"jord/internal/sim/topo"
	"jord/internal/vlb"
)

// Config assembles one Jord worker server.
type Config struct {
	Machine topo.Config
	VLB     vlb.Config
	Variant privlib.Variant

	// NumOrchestrators is how many cores run orchestrators; the remaining
	// cores run executors. 0 picks one orchestrator per 8 cores
	// (minimum 1). Orchestrators and executors are pinned (§3.3/§3.4).
	NumOrchestrators int

	// PerSocketOrchestrators confines each orchestrator's executor group
	// to its own socket (the §6.3 mitigation). When false, executors are
	// split among orchestrators round-robin across the whole machine.
	PerSocketOrchestrators bool

	// JBSQBound is the queue-depth bound k of JBSQ(k).
	JBSQBound int

	// Dispatch selects the orchestrator's load-balancing policy. The
	// paper uses JBSQ (§3.3) and defers a policy comparison; the
	// alternatives here exist for that ablation.
	Dispatch DispatchPolicy

	// UnsafeNoInternalPriority disables both §3.3 deadlock-avoidance
	// mechanisms: internal (nested) requests no longer preempt external
	// ones and must respect the JBSQ bound like everyone else. Under
	// sustained external load the system livelocks — executors fill with
	// parents waiting for children that never dispatch. Exists only for
	// the ablation experiment.
	UnsafeNoInternalPriority bool

	// NightCore switches the runtime to the enhanced-NightCore baseline
	// (§5): same single address space, thread pinning, and JBSQ dispatch,
	// but every cross-function hop goes through OS pipes and SysV
	// shared-memory copies instead of PrivLib permission transfers, and
	// there is no in-process isolation.
	NightCore bool

	// StackBytes/HeapBytes size each invocation's private stack and heap.
	StackBytes, HeapBytes uint64

	// TimeSliceNS co-locates other tenants with Jord: once per slice the
	// OS context-switches each executor core, which saves/restores the
	// uatp/uatc/ucid CSRs (§4.4) and invalidates the core's VLBs —
	// cached user translations cannot outlive the address-space switch.
	// The disturbance Jord-specific code sees is the post-switch VLB
	// refill (cold walks). 0 disables interference — the paper's
	// dedicated-server methodology.
	TimeSliceNS float64

	Seed uint64
}

// DefaultConfig is the paper's 32-core evaluation setup.
func DefaultConfig() Config {
	return Config{
		Machine:                topo.QFlex32(),
		VLB:                    vlb.DefaultConfig(),
		Variant:                privlib.PlainList,
		NumOrchestrators:       0,
		PerSocketOrchestrators: true,
		JBSQBound:              4,
		StackBytes:             4096,
		HeapBytes:              1024,
		Seed:                   1,
	}
}

func (c *Config) normalize() {
	if c.NumOrchestrators <= 0 {
		// One orchestrator per 8 cores keeps dispatch off the critical
		// path at every workload's saturation point (the paper sizes
		// orchestrator groups "in proximity" without fixing a count).
		c.NumOrchestrators = c.Machine.TotalCores() / 8
		if c.NumOrchestrators < 1 {
			c.NumOrchestrators = 1
		}
	}
	if c.NumOrchestrators >= c.Machine.TotalCores() {
		c.NumOrchestrators = 1
	}
	if c.JBSQBound < 1 {
		c.JBSQBound = 1
	}
	if c.StackBytes == 0 {
		c.StackBytes = 4096
	}
	if c.HeapBytes == 0 {
		c.HeapBytes = 1024
	}
}

// System is one worker server: machine, PrivLib, orchestrators, executors,
// registry, and measurement state.
type System struct {
	Cfg Config
	Eng *engine.Engine
	M   *topo.Machine
	MM  *memmodel.Model
	Lib *privlib.Lib
	IPC ipc.Costs

	Orchs []*Orchestrator
	Execs []*Executor

	funcs []*FuncDef

	rng    *rand.Rand
	nextID uint64

	// Measurement window state (driven by the load generator).
	Res          Results
	extCount     uint64 // external requests injected so far
	warmup       uint64 // skip this many external requests
	measureN     uint64 // then measure this many
	outstanding  int    // measured external requests still in flight
	stopWhenDone bool

	tracer *Tracer

	// Cluster linkage (nil/0 for a standalone server).
	ServerID int
	cluster  *Cluster
}

// Results aggregates one run's measurements.
type Results struct {
	Latency     metrics.Histogram // external request latency (ns)
	ServiceTime metrics.Histogram // per-invocation service time (ns), all invocations
	DispatchNS  metrics.Histogram // per-dispatch orchestrator overhead (ns)

	Completed      uint64 // recorded external completions
	Failed         uint64 // completions whose root function returned an error
	AllInvocations uint64
	FirstArrival   engine.Time
	LastComplete   engine.Time

	PerFunc map[FuncID]*FuncStats
}

// FuncStats is the per-function breakdown accumulator (Figure 11).
type FuncStats struct {
	Name    string
	Count   uint64
	Service engine.Time
	Trace
}

// NewSystem builds and boots a worker server with its own engine.
func NewSystem(cfg Config) (*System, error) {
	return newSystemOn(engine.New(), cfg, 0)
}

// newSystemOn boots a worker server onto an existing engine (cluster use:
// all servers share one virtual timeline).
func newSystemOn(eng *engine.Engine, cfg Config, serverID int) (*System, error) {
	cfg.normalize()
	m, err := topo.NewMachine(cfg.Machine)
	if err != nil {
		return nil, err
	}
	lib, err := privlib.Boot(m, cfg.VLB, cfg.Variant)
	if err != nil {
		return nil, err
	}
	s := &System{
		Cfg:      cfg,
		Eng:      eng,
		M:        m,
		MM:       memmodel.New(m),
		Lib:      lib,
		IPC:      ipc.Costs{Cfg: cfg.Machine},
		ServerID: serverID,
		rng:      rand.New(rand.NewPCG(cfg.Seed+uint64(serverID)*0x51ab, 0x9e3779b97f4a7c15)),
	}
	s.Res.PerFunc = make(map[FuncID]*FuncStats)
	s.buildTopology()
	return s, nil
}

// buildTopology pins orchestrators and executors to cores and forms
// proximity groups.
func (s *System) buildTopology() {
	total := s.M.Cfg.TotalCores()
	nOrch := s.Cfg.NumOrchestrators

	// Spread orchestrator cores evenly; core IDs are row-major per socket,
	// so an even stride keeps them spatially spread.
	orchCores := make(map[topo.CoreID]bool, nOrch)
	stride := total / nOrch
	for i := 0; i < nOrch; i++ {
		orchCores[topo.CoreID(i*stride)] = true
	}

	for c := 0; c < total; c++ {
		id := topo.CoreID(c)
		if orchCores[id] {
			o := newOrchestrator(s, id)
			s.Orchs = append(s.Orchs, o)
		}
	}
	for c := 0; c < total; c++ {
		id := topo.CoreID(c)
		if orchCores[id] {
			continue
		}
		e := newExecutor(s, id)
		s.Execs = append(s.Execs, e)
		s.assignExecutor(e)
	}
}

// assignExecutor places an executor into the nearest eligible
// orchestrator's group.
func (s *System) assignExecutor(e *Executor) {
	var best *Orchestrator
	bestScore := 1 << 30
	for _, o := range s.Orchs {
		if s.Cfg.PerSocketOrchestrators && s.M.Socket(o.Core) != s.M.Socket(e.Core) {
			continue
		}
		// Balance group sizes first; break ties by mesh proximity so each
		// orchestrator ends up managing the executors nearest to it.
		score := len(o.group)*1000 + s.M.HopDist(o.Core, e.Core)
		if score < bestScore {
			bestScore = score
			best = o
		}
	}
	if best == nil {
		best = s.Orchs[0]
	}
	best.group = append(best.group, e)
	e.orch = best
}

// Register deploys a function: the runtime loads its code into an
// executable VMA owned by the executor domain, from which per-invocation
// PDs receive execute permission via pcopy.
func (s *System) Register(name string, body func(*Ctx) error) (FuncID, error) {
	codeVA, _, err := s.Lib.Mmap(0, vmatable.ExecutorPD, 4096, vmatable.PermRX)
	if err != nil {
		return 0, fmt.Errorf("core: registering %s: %w", name, err)
	}
	id := FuncID(len(s.funcs))
	s.funcs = append(s.funcs, &FuncDef{ID: id, Name: name, Body: body, codeVA: codeVA})
	s.Res.PerFunc[id] = &FuncStats{Name: name}
	return id, nil
}

// MustRegister is Register for static workload setup.
func (s *System) MustRegister(name string, body func(*Ctx) error) FuncID {
	id, err := s.Register(name, body)
	if err != nil {
		panic(err)
	}
	return id
}

// funcDef returns the definition for id.
func (s *System) funcDef(id FuncID) *FuncDef { return s.funcs[int(id)] }

// nsToCycles and cyclesToNS convert against the machine clock.
func (s *System) nsToCycles(ns float64) engine.Time { return s.M.Cfg.NSToCycles(ns) }
func (s *System) cyclesToNS(t engine.Time) float64  { return s.M.Cfg.CyclesToNS(t) }

// newRequest mints a request.
func (s *System) newRequest(fn FuncID, blocks int, external bool, parent *Continuation) *Request {
	s.nextID++
	return &Request{
		ID:       s.nextID,
		Fn:       fn,
		Blocks:   blocks,
		External: external,
		parent:   parent,
	}
}

// Inject delivers an external request to an orchestrator (round-robin by
// request ID), stamping its arrival. It is called from load-generator
// procs. Requests within the configured measurement window are marked
// measured; requests injected before (warmup) and after (pressure tail)
// are not.
func (s *System) Inject(fn FuncID, blocks int) *Request {
	r := s.newRequest(fn, blocks, true, nil)
	r.Arrival = s.Eng.Now()
	s.extCount++
	if s.cluster == nil &&
		s.extCount > s.warmup && (s.measureN == 0 || s.extCount <= s.warmup+s.measureN) {
		// Standalone window marking; a cluster marks requests itself.
		r.measured = true
		s.outstanding++
		if s.Res.FirstArrival == 0 {
			// The measured-rate window starts at the first measured
			// arrival, not at warmup.
			s.Res.FirstArrival = r.Arrival
		}
	}
	s.trace(EvArrive, r, 0, "")
	o := s.Orchs[int(r.ID)%len(s.Orchs)]
	o.submitExternal(r)
	return r
}

// completeExternal records one finished external request.
func (s *System) completeExternal(r *Request) {
	if !r.measured {
		return
	}
	lat := s.Eng.Now() - r.Arrival
	s.Res.Latency.Record(int64(s.cyclesToNS(lat)))
	s.Res.Completed++
	if s.Res.FirstArrival == 0 || r.Arrival < s.Res.FirstArrival {
		s.Res.FirstArrival = r.Arrival
	}
	if r.status != nil {
		s.Res.Failed++
	}
	if r.onComplete != nil {
		r.onComplete()
	}
	s.Res.LastComplete = s.Eng.Now()
	if s.cluster == nil {
		s.outstanding--
		if s.outstanding == 0 && s.stopWhenDone &&
			s.measureN > 0 && s.extCount >= s.warmup+s.measureN {
			s.Eng.Stop()
		}
	}
}

// recordInvocation folds one finished invocation (external or nested) into
// the service-time stats. Service time is the invocation's *busy* time —
// execution, isolation, communication, and dispatch — matching the paper's
// Figure 11, whose breakdown bars stack exactly to the service time;
// suspension and queueing delays appear in request latency (Figure 9) but
// not here.
func (s *System) recordInvocation(r *Request, wall engine.Time) {
	if !r.measured {
		return
	}
	_ = wall // wall time (incl. suspension) feeds latency, not service
	// Dispatch happens on the orchestrator before the invocation starts;
	// Figure 14 tracks it as its own series, so it stays out of service.
	service := r.Trace.Exec + r.Trace.Isolation + r.Trace.Alloc + r.Trace.Comm
	s.Res.AllInvocations++
	s.Res.ServiceTime.Record(int64(s.cyclesToNS(service)))
	fs := s.Res.PerFunc[r.Fn]
	fs.Count++
	fs.Service += service
	fs.Dispatch += r.Trace.Dispatch
	fs.Isolation += r.Trace.Isolation
	fs.Alloc += r.Trace.Alloc
	fs.Comm += r.Trace.Comm
	fs.Exec += r.Trace.Exec
	fs.Queue += r.Trace.Queue
}
