package experiments

import (
	"fmt"
	"strings"
)

// Fig11Bar is one selected function's service-time breakdown on one
// system (all values ns per invocation).
type Fig11Bar struct {
	Workload string
	Function string // Table 3 abbreviation
	System   SystemKind

	ExecNS     float64 // function execution (incl. zero-copy transfers)
	IsolNS     float64 // Jord: PrivLib isolation ops
	DispatchNS float64 // orchestrator dispatch
	PipeNS     float64 // NightCore: pipe + copy + serde
	ServiceNS  float64
}

// Fig11Result reproduces Figure 11: the service-time breakdown of the
// eight selected functions (Table 3) under Jord and NightCore.
type Fig11Result struct {
	Bars []Fig11Bar
}

// selectedOrder fixes the paper's x-axis: GC PO SN MR UU RP F CP.
var selectedOrder = []struct{ workload, fn string }{
	{"hipster", "GC"}, {"hipster", "PO"},
	{"hotel", "SN"}, {"hotel", "MR"},
	{"media", "UU"}, {"media", "RP"},
	{"social", "F"}, {"social", "CP"},
}

// RunFig11 measures per-function breakdowns at light load on Jord and
// NightCore.
func RunFig11(sc Scale, seed uint64) (*Fig11Result, error) {
	type key struct {
		workload, fn string
		kind         SystemKind
	}
	bars := map[key]Fig11Bar{}
	for _, wl := range []string{"hipster", "hotel", "media", "social"} {
		for _, kind := range []SystemKind{Jord, NightCore} {
			cfg := config(kind, seed)
			// Light load, so queueing does not pollute the bars.
			r, w, err := runPoint(cfg, wl, sc.load(fig9Grid[wl][0]), nil)
			if err != nil {
				return nil, fmt.Errorf("fig11 %s %v: %w", wl, kind, err)
			}
			for abbrev, fn := range w.Selected {
				bd := r.MeanBreakdown(fn, cfg.Machine.FreqGHz)
				bar := Fig11Bar{
					Workload:  wl,
					Function:  abbrev,
					System:    kind,
					ServiceNS: bd.Exec + bd.Isolation + bd.Alloc + bd.Dispatch + bd.Comm,
				}
				if kind == NightCore {
					bar.ExecNS = bd.Exec
					bar.PipeNS = bd.Comm
					bar.DispatchNS = bd.Dispatch
				} else {
					// Zero-copy transfers and VMA allocation count as part of
					// execution (JordNI pays them too); isolation is what the
					// insecure baseline skips.
					bar.ExecNS = bd.Exec + bd.Comm + bd.Alloc
					bar.IsolNS = bd.Isolation
					bar.DispatchNS = bd.Dispatch
				}
				bars[key{wl, abbrev, kind}] = bar
			}
		}
	}
	res := &Fig11Result{}
	for _, sel := range selectedOrder {
		for _, kind := range []SystemKind{Jord, NightCore} {
			res.Bars = append(res.Bars, bars[key{sel.workload, sel.fn, kind}])
		}
	}
	return res, nil
}

// Render prints the grouped bars.
func (r *Fig11Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 11: service-time breakdown of selected functions (us/invocation)\n")
	fmt.Fprintf(&b, "%-4s %-10s %10s %10s %10s %10s %10s\n",
		"fn", "system", "exec", "isolation", "dispatch", "pipe", "service")
	for _, bar := range r.Bars {
		fmt.Fprintf(&b, "%-4s %-10s %10.2f %10.2f %10.2f %10.2f %10.2f\n",
			bar.Function, bar.System.String(),
			bar.ExecNS/1000, bar.IsolNS/1000, bar.DispatchNS/1000,
			bar.PipeNS/1000, bar.ServiceNS/1000)
	}
	return b.String()
}
