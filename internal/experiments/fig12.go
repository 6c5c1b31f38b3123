package experiments

import (
	"fmt"
	"strings"

	"jord/internal/metrics"
)

// Fig12Series is one VLB size's latency-vs-load curve.
type Fig12Series struct {
	Entries      int
	Points       []metrics.LoadPoint
	TputUnderSLO float64
}

// Fig12Panel is one of the figure's two panels: I-VLB sizing on Hipster,
// D-VLB sizing on Media (the two most VLB-sensitive workloads, §6.2).
type Fig12Panel struct {
	Workload string
	VLBKind  string // "I-VLB" or "D-VLB"
	SLONS    float64
	Series   []Fig12Series
}

// Fig12Result reproduces Figure 12: sensitivity of performance to the
// number of I-VLB and D-VLB entries.
type Fig12Result struct {
	Panels []Fig12Panel
}

// RunFig12 sweeps VLB sizes {1, 2, 4, 8, 16}.
func RunFig12(sc Scale, seed uint64) (*Fig12Result, error) {
	res := &Fig12Result{}
	for _, panel := range []Fig12Panel{
		{Workload: "hipster", VLBKind: "I-VLB"},
		{Workload: "media", VLBKind: "D-VLB"},
	} {
		slo, err := sloFor(panel.Workload, seed)
		if err != nil {
			return nil, err
		}
		panel.SLONS = slo
		for _, size := range []int{1, 2, 4, 8, 16} {
			cfg := config(Jord, seed)
			if panel.VLBKind == "I-VLB" {
				cfg.VLB.IVLBEntries = size
			} else {
				cfg.VLB.DVLBEntries = size
			}
			points, err := sweep(cfg, panel.Workload, sc.grid(panel.Workload), slo, sc.load(0), nil)
			if err != nil {
				return nil, fmt.Errorf("fig12 %d entries: %w", size, err)
			}
			panel.Series = append(panel.Series, Fig12Series{
				Entries:      size,
				Points:       points,
				TputUnderSLO: metrics.ThroughputUnderSLO(points, slo),
			})
		}
		res.Panels = append(res.Panels, panel)
	}
	return res, nil
}

// Render prints throughput-under-SLO per size plus the latency curves.
func (r *Fig12Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 12: sensitivity to I-VLB and D-VLB entries\n")
	for _, panel := range r.Panels {
		fmt.Fprintf(&b, "\n[%s, %s]  SLO = %.1f us\n", panel.Workload, panel.VLBKind, panel.SLONS/1000)
		fmt.Fprintf(&b, "%-8s %22s\n", "entries", "tput under SLO (MRPS)")
		for _, s := range panel.Series {
			fmt.Fprintf(&b, "%-8d %22.2f\n", s.Entries, s.TputUnderSLO/1e6)
		}
	}
	return b.String()
}
