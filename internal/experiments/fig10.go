package experiments

import (
	"fmt"
	"strings"

	"jord/internal/metrics"
)

// Fig10Result reproduces Figure 10: the CDF of function service time on
// Jord at light load, per workload.
type Fig10Result struct {
	Workloads []Fig10Workload
}

// Fig10Workload is one workload's service-time distribution.
type Fig10Workload struct {
	Workload string
	CDF      []metrics.CDFPoint
	MeanNS   float64
	P50NS    int64
	P75NS    int64
	P99NS    int64
	MaxNS    int64
}

// RunFig10 measures service-time CDFs at light load.
func RunFig10(sc Scale, seed uint64) (*Fig10Result, error) {
	res := &Fig10Result{}
	for _, wl := range []string{"hipster", "hotel", "media", "social"} {
		r, _, err := RunPoint(Jord, wl, fig9Grid[wl][0]/2, sc, seed)
		if err != nil {
			return nil, fmt.Errorf("fig10 %s: %w", wl, err)
		}
		res.Workloads = append(res.Workloads, Fig10Workload{
			Workload: wl,
			CDF:      r.ServiceTime.CDF(),
			MeanNS:   r.ServiceTime.Mean(),
			P50NS:    r.ServiceTime.Percentile(50),
			P75NS:    r.ServiceTime.Percentile(75),
			P99NS:    r.ServiceTime.Percentile(99),
			MaxNS:    r.ServiceTime.Max(),
		})
	}
	return res, nil
}

// Render prints distribution summaries plus a coarse CDF per workload.
func (r *Fig10Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 10: CDF of function service time in Jord\n")
	fmt.Fprintf(&b, "%-10s %9s %9s %9s %9s %9s\n",
		"workload", "mean(us)", "p50(us)", "p75(us)", "p99(us)", "max(us)")
	for _, wl := range r.Workloads {
		fmt.Fprintf(&b, "%-10s %9.1f %9.1f %9.1f %9.1f %9.1f\n",
			wl.Workload, wl.MeanNS/1000, float64(wl.P50NS)/1000,
			float64(wl.P75NS)/1000, float64(wl.P99NS)/1000, float64(wl.MaxNS)/1000)
	}
	fmt.Fprintf(&b, "\nCDF fraction below a service time (us):\n%-10s", "workload")
	marks := []float64{1000, 2000, 5000, 10_000, 20_000, 50_000, 80_000}
	for _, m := range marks {
		fmt.Fprintf(&b, " %7.0fus", m/1000)
	}
	fmt.Fprintf(&b, "\n")
	for _, wl := range r.Workloads {
		fmt.Fprintf(&b, "%-10s", wl.Workload)
		for _, m := range marks {
			fmt.Fprintf(&b, " %9.2f", fractionBelow(wl.CDF, m))
		}
		fmt.Fprintf(&b, "\n")
	}
	return b.String()
}

func fractionBelow(cdf []metrics.CDFPoint, ns float64) float64 {
	frac := 0.0
	for _, p := range cdf {
		if float64(p.Value) > ns {
			break
		}
		frac = p.Fraction
	}
	return frac
}
