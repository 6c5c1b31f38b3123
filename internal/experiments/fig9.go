package experiments

import (
	"fmt"
	"strings"

	"jord/internal/metrics"
)

// Fig9Series is one system's latency-vs-load curve for one workload.
type Fig9Series struct {
	System SystemKind
	Points []metrics.LoadPoint
	// TputUnderSLO is the derived throughput-under-SLO (requests/second).
	TputUnderSLO float64
}

// Fig9Workload is one workload's panel of Figure 9 (or Figure 13).
type Fig9Workload struct {
	Workload string
	SLONS    float64
	Series   []Fig9Series
}

// Fig9Result reproduces Figure 9: p99 latency across loads for Jord,
// JordNI, and NightCore on all four workloads, with SLO = 10x minimal-load
// JordNI service time (§5).
type Fig9Result struct {
	Panels []Fig9Workload
}

// RunFig9 sweeps all workloads. workloadFilter restricts to one workload
// ("" = all).
func RunFig9(sc Scale, workloadFilter string, seed uint64) (*Fig9Result, error) {
	res := &Fig9Result{}
	for _, wl := range []string{"hipster", "hotel", "media", "social"} {
		if workloadFilter != "" && wl != workloadFilter {
			continue
		}
		panel, err := systemsPanel(wl, []SystemKind{JordNI, Jord, NightCore}, sc, seed)
		if err != nil {
			return nil, fmt.Errorf("fig9: %w", err)
		}
		res.Panels = append(res.Panels, panel)
	}
	return res, nil
}

// systemsPanel sweeps each system over workload's grid against the
// workload's SLO.
func systemsPanel(workload string, kinds []SystemKind, sc Scale, seed uint64) (Fig9Workload, error) {
	slo, err := sloFor(workload, seed)
	if err != nil {
		return Fig9Workload{}, fmt.Errorf("%s slo: %w", workload, err)
	}
	panel := Fig9Workload{Workload: workload, SLONS: slo}
	for _, kind := range kinds {
		points, err := sweep(config(kind, seed), workload, sc.grid(workload), slo, sc.load(0), nil)
		if err != nil {
			return Fig9Workload{}, fmt.Errorf("%v: %w", kind, err)
		}
		panel.Series = append(panel.Series, Fig9Series{
			System:       kind,
			Points:       points,
			TputUnderSLO: metrics.ThroughputUnderSLO(points, slo),
		})
	}
	return panel, nil
}

// Render formats each panel as a table of p99 latencies per load.
func (r *Fig9Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 9: p99 latency (us) vs offered load (MRPS)\n")
	for _, panel := range r.Panels {
		fmt.Fprintf(&b, "\n[%s]  SLO = %.1f us\n", panel.Workload, panel.SLONS/1000)
		fmt.Fprintf(&b, "%-10s", "load")
		for _, s := range panel.Series {
			fmt.Fprintf(&b, " %12s", s.System)
		}
		fmt.Fprintf(&b, "\n")
		// Union of loads across series (they share a grid prefix).
		maxLen := 0
		for _, s := range panel.Series {
			if len(s.Points) > maxLen {
				maxLen = len(s.Points)
			}
		}
		for i := 0; i < maxLen; i++ {
			var load float64
			for _, s := range panel.Series {
				if i < len(s.Points) {
					load = s.Points[i].LoadRPS
					break
				}
			}
			fmt.Fprintf(&b, "%-10.2f", load/1e6)
			for _, s := range panel.Series {
				if i < len(s.Points) {
					fmt.Fprintf(&b, " %12.1f", s.Points[i].P99NS/1000)
				} else {
					fmt.Fprintf(&b, " %12s", ">SLO")
				}
			}
			fmt.Fprintf(&b, "\n")
		}
		fmt.Fprintf(&b, "throughput under SLO (MRPS):")
		for _, s := range panel.Series {
			fmt.Fprintf(&b, "  %v=%.2f", s.System, s.TputUnderSLO/1e6)
		}
		fmt.Fprintf(&b, "\n")
	}
	return b.String()
}
