package experiments

import (
	"fmt"
	"strings"

	"jord/internal/core"
	"jord/internal/metrics"
	"jord/internal/privlib"
)

// DispatchRow is one dispatch policy's result.
type DispatchRow struct {
	Policy       core.DispatchPolicy
	TputUnderSLO float64
	P99AtMidNS   float64 // p99 at ~60% of JBSQ's capacity
}

// DispatchAblationResult compares orchestrator dispatch policies on the
// Hotel workload — the study the paper's §3.3 defers ("a further
// evaluation of dispatch policies is beyond the scope of this paper").
type DispatchAblationResult struct {
	Workload string
	SLONS    float64
	Rows     []DispatchRow
}

// RunDispatchAblation sweeps each policy over the Hotel load grid.
func RunDispatchAblation(sc Scale, seed uint64) (*DispatchAblationResult, error) {
	const wl = "hotel"
	slo, err := sloFor(wl, seed)
	if err != nil {
		return nil, err
	}
	res := &DispatchAblationResult{Workload: wl, SLONS: slo}
	grid := sc.grid(wl)
	for _, policy := range []core.DispatchPolicy{
		core.DispatchJBSQ, core.DispatchJSQ, core.DispatchRoundRobin, core.DispatchRandom,
	} {
		cfg := config(Jord, seed)
		cfg.Dispatch = policy
		points, err := sweep(cfg, wl, grid, slo, sc.load(0), nil)
		if err != nil {
			return nil, fmt.Errorf("dispatch %v: %w", policy, err)
		}
		row := DispatchRow{Policy: policy, TputUnderSLO: metrics.ThroughputUnderSLO(points, slo)}
		if mid := len(grid) / 2; mid < len(points) {
			row.P99AtMidNS = points[mid].P99NS
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Render prints the policy comparison.
func (r *DispatchAblationResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Dispatch policy ablation (%s, SLO %.1f us)\n", r.Workload, r.SLONS/1000)
	fmt.Fprintf(&b, "%-14s %22s %16s\n", "policy", "tput under SLO (MRPS)", "p99@mid (us)")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-14s %22.2f %16.1f\n",
			row.Policy, row.TputUnderSLO/1e6, row.P99AtMidNS/1000)
	}
	return b.String()
}

// MPKRow is one isolation mechanism's throughput.
type MPKRow struct {
	System       string
	TputUnderSLO float64
	P99AtLowNS   float64 // at the 0.1 MRPS probe; 0 when Deadlocked
	// Deadlocked marks a configuration that could not finish even the
	// lightest load (MPK's 15 keys all held by suspended parents of
	// nested calls).
	Deadlocked bool
}

// MPKComparisonResult quantifies §2.2's argument against MPK-based
// in-process isolation for microsecond FaaS: domain switches are cheap,
// but 15 concurrent keys cap parallelism, permission changes need
// software cross-core synchronization, and allocation still pays OS
// page-based VM costs.
type MPKComparisonResult struct {
	Workload string
	SLONS    float64
	Rows     []MPKRow
}

// RunMPKComparison sweeps Jord, MPK, and JordNI on Hotel.
func RunMPKComparison(sc Scale, seed uint64) (*MPKComparisonResult, error) {
	const wl = "hotel"
	slo, err := sloFor(wl, seed)
	if err != nil {
		return nil, err
	}
	res := &MPKComparisonResult{Workload: wl, SLONS: slo}
	// A dedicated very-light probe (0.1 MRPS) for the latency column:
	// MPK saturates below Hotel's lightest grid point.
	grid := append([]float64{0.1e6}, sc.grid(wl)...)
	spec := sc.load(0)
	spec.MaxVirtualSeconds = 0.5 // MPK can crawl or deadlock; bound each run
	unlimitedKeys := func(sys *core.System) { sys.Lib.MPKKeyLimit = 1 << 20 }
	for _, v := range []struct {
		name    string
		variant privlib.Variant
		tune    func(*core.System)
	}{
		{"JordNI", privlib.NoIsolation, nil},
		{"Jord", privlib.PlainList, nil},
		{"MPK-15keys", privlib.MPK, nil},
		{"MPK-ideal", privlib.MPK, unlimitedKeys}, // isolates the OS-allocation cost
	} {
		cfg := config(Jord, seed)
		cfg.Variant = v.variant
		points, err := sweep(cfg, wl, grid, slo, spec, v.tune)
		if err != nil {
			return nil, fmt.Errorf("mpk %s: %w", v.name, err)
		}
		row := MPKRow{
			System:       v.name,
			TputUnderSLO: metrics.ThroughputUnderSLO(points, slo),
			Deadlocked:   points[0].P99NS == stalledP99NS,
		}
		if !row.Deadlocked {
			row.P99AtLowNS = points[0].P99NS
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Render prints the MPK comparison.
func (r *MPKComparisonResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "MPK-based isolation vs Jord (%s, SLO %.1f us; paper SS2.2)\n", r.Workload, r.SLONS/1000)
	fmt.Fprintf(&b, "%-12s %22s %18s\n", "system", "tput under SLO (MRPS)", "p99 at low load (us)")
	for _, row := range r.Rows {
		note := ""
		if row.Deadlocked {
			note = "   (stalled: 15 keys < concurrent nested functions)"
		}
		fmt.Fprintf(&b, "%-12s %22.2f %18.1f%s\n",
			row.System, row.TputUnderSLO/1e6, row.P99AtLowNS/1000, note)
	}
	return b.String()
}
