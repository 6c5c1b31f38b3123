package experiments

import (
	"fmt"
	"strings"
)

// Fig13Result reproduces Figure 13: Jord (plain-list VMA table) vs JordBT
// (B-tree VMA table). The paper's text discusses Hotel while the figure is
// labelled Hipster; we generate both workloads and note the discrepancy in
// EXPERIMENTS.md.
type Fig13Result struct {
	Panels []Fig9Workload
}

// RunFig13 sweeps Jord and JordBT.
func RunFig13(sc Scale, seed uint64) (*Fig13Result, error) {
	res := &Fig13Result{}
	for _, wl := range []string{"hotel", "hipster"} {
		panel, err := systemsPanel(wl, []SystemKind{Jord, JordBT}, sc, seed)
		if err != nil {
			return nil, fmt.Errorf("fig13: %w", err)
		}
		res.Panels = append(res.Panels, panel)
	}
	return res, nil
}

// Render formats the comparison.
func (r *Fig13Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 13: Jord (plain list) vs JordBT (B-tree VMA table)\n")
	for _, panel := range r.Panels {
		fmt.Fprintf(&b, "\n[%s]  SLO = %.1f us\n", panel.Workload, panel.SLONS/1000)
		for _, s := range panel.Series {
			fmt.Fprintf(&b, "  %-8s tput under SLO = %6.2f MRPS;  p99 at lightest load = %.1f us\n",
				s.System, s.TputUnderSLO/1e6, s.Points[0].P99NS/1000)
		}
		if len(panel.Series) == 2 && panel.Series[0].TputUnderSLO > 0 {
			ratio := panel.Series[1].TputUnderSLO / panel.Series[0].TputUnderSLO
			fmt.Fprintf(&b, "  JordBT/Jord = %.0f%% (paper: ~60%%)\n", ratio*100)
		}
	}
	return b.String()
}
