package experiments

import (
	"fmt"
	"strings"

	"jord/internal/core"
	"jord/internal/mem/va"
	"jord/internal/mem/vmatable"
	"jord/internal/sim/memmodel"
	"jord/internal/sim/topo"
	"jord/internal/vlb"
)

// Fig14Row is one system scale's measurements.
type Fig14Row struct {
	Scale               string
	Cores               int
	ServiceNS           float64 // average function service time
	ShootdownNS         float64 // average VLB shootdown latency
	DispatchNS          float64 // average dispatch latency (single orchestrator)
	DispatchPerSocketNS float64 // with the §6.3 per-socket mitigation (multi-orch)
}

// Fig14Result reproduces Figure 14: sensitivity of average function
// service time, VLB shootdown latency, and dispatch latency to system
// scale (16...256 cores, dual-socket). Dispatch is measured with a single
// orchestrator managing every executor — the configuration whose collapse
// motivates the paper's per-socket-orchestrator design implication — and,
// for contrast, with that mitigation applied.
type Fig14Result struct {
	Rows []Fig14Row
}

// RunFig14 measures each scale point at light fixed load (so latencies
// reflect hardware distance, not queueing).
func RunFig14(sc Scale, seed uint64) (*Fig14Result, error) {
	scales := []struct {
		name string
		cfg  topo.Config
	}{
		{"16-core", topo.Scale(16)},
		{"64-core", topo.Scale(64)},
		{"128-core", topo.Scale(128)},
		{"256-core", topo.Scale(256)},
		{"2-socket", topo.DualSocket256()},
	}
	spec := core.LoadSpec{RPS: 30_000, Warmup: sc.Warmup / 2, Measure: sc.Measure / 2}
	res := &Fig14Result{}
	for _, s := range scales {
		perSocket := config(Jord, seed)
		perSocket.Machine = s.cfg
		single := perSocket
		single.NumOrchestrators = 1
		single.PerSocketOrchestrators = false
		r, _, err := runPoint(single, "hipster", spec, nil)
		if err != nil {
			return nil, fmt.Errorf("fig14 %s: %w", s.name, err)
		}
		rPerSocket, _, err := runPoint(perSocket, "hipster", spec, nil)
		if err != nil {
			return nil, fmt.Errorf("fig14 %s: %w", s.name, err)
		}
		res.Rows = append(res.Rows, Fig14Row{
			Scale:               s.name,
			Cores:               s.cfg.TotalCores(),
			ServiceNS:           r.MeanServiceNS(),
			ShootdownNS:         worstCaseShootdownNS(s.cfg),
			DispatchNS:          r.DispatchNS.Mean(),
			DispatchPerSocketNS: rPerSocket.DispatchNS.Mean(),
		})
	}
	return res, nil
}

// worstCaseShootdownNS measures the paper's shootdown metric: the latency
// of invalidating a translation shared by *every* core ("in the worst
// case, a global cache invalidation on all executor cores", §6.3). The
// hardware parallelizes the invalidations, so latency is gated by the
// farthest core — sublinear in core count, with a jump at the socket
// boundary.
func worstCaseShootdownNS(machine topo.Config) float64 {
	m := topo.MustMachine(machine)
	mm := memmodel.New(m)
	tbl, err := vmatable.New(va.Default(), 0x4000_0000_0000, vmatable.DefaultTableBytes)
	if err != nil {
		panic(err)
	}
	sub := vlb.NewSubsystem(m, mm, tbl, vlb.DefaultConfig())
	vteAddr := tbl.VTEAddr(0, 1)
	for c := 0; c < machine.TotalCores(); c++ {
		sub.VTD.RegisterSharer(vteAddr, topo.CoreID(c))
	}
	res := sub.VTD.Shootdown(0, vteAddr, func(topo.CoreID) {})
	return machine.CyclesToNS(res.Latency)
}

// Render prints the scalability table.
func (r *Fig14Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 14: latency vs system scale (us)\n")
	fmt.Fprintf(&b, "%-10s %7s %10s %12s %12s %18s\n",
		"scale", "cores", "service", "shootdown", "dispatch", "dispatch(persock)")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-10s %7d %10.2f %12.3f %12.3f %18.3f\n",
			row.Scale, row.Cores, row.ServiceNS/1000, row.ShootdownNS/1000,
			row.DispatchNS/1000, row.DispatchPerSocketNS/1000)
	}
	return b.String()
}
