package experiments

import (
	"fmt"
	"strings"
)

// OverheadRow is one workload's §6.2 overhead accounting.
type OverheadRow struct {
	Workload string
	// PerRequestOverheadNS is the mean dispatch+isolation overhead per
	// external request (paper: ~360 ns on average).
	PerRequestOverheadNS float64
	// OverheadFraction is (dispatch+isolation)/service across invocations
	// (paper: 8%/4%/3% for Hipster/Hotel/Social, ~30% for Media).
	OverheadFraction float64
	// IsolationPerInvocationNS (paper: total isolation below 120 ns;
	// our number also includes the VMA (de)allocations both Jord and
	// JordNI pay).
	IsolationPerInvocationNS float64
}

// OverheadsResult reproduces the §6.2 overhead claims.
type OverheadsResult struct {
	Rows []OverheadRow
}

// RunOverheads measures per-request and per-invocation overheads at light
// load on Jord.
func RunOverheads(sc Scale, seed uint64) (*OverheadsResult, error) {
	res := &OverheadsResult{}
	for _, wl := range []string{"hipster", "hotel", "media", "social"} {
		r, freq, err := RunPoint(Jord, wl, fig9Grid[wl][0], sc, seed)
		if err != nil {
			return nil, fmt.Errorf("overheads %s: %w", wl, err)
		}
		var isolCycles, dispCycles, invocations uint64
		for _, fs := range r.PerFunc {
			isolCycles += uint64(fs.Isolation)
			dispCycles += uint64(fs.Dispatch)
			invocations += fs.Count
		}
		if invocations == 0 {
			continue
		}
		perInvIsolNS := float64(isolCycles) / float64(invocations) / freq
		perReqNS := (float64(isolCycles) + float64(dispCycles)) / float64(r.Completed) / freq
		res.Rows = append(res.Rows, OverheadRow{
			Workload:                 wl,
			PerRequestOverheadNS:     perReqNS,
			OverheadFraction:         r.OverheadFraction(),
			IsolationPerInvocationNS: perInvIsolNS,
		})
	}
	return res, nil
}

// Render prints the overhead table.
func (r *OverheadsResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Section 6.2 overhead accounting (Jord, light load)\n")
	fmt.Fprintf(&b, "%-10s %22s %18s %24s\n",
		"workload", "overhead/request (ns)", "overhead fraction", "isolation/invocation(ns)")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-10s %22.0f %17.1f%% %24.0f\n",
			row.Workload, row.PerRequestOverheadNS,
			row.OverheadFraction*100, row.IsolationPerInvocationNS)
	}
	return b.String()
}
