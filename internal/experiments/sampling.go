package experiments

import (
	"fmt"
	"strings"

	"jord/internal/metrics"
)

// SampledPoint is one (system, workload, load) point measured over
// independent trials — the SimFlex-style sampling methodology of the
// paper's simulator family (its ref [84]): several short windows with
// distinct seeds, reported with 95% confidence intervals, instead of one
// long window.
type SampledPoint struct {
	System   SystemKind
	Workload string
	RPS      float64
	Trials   int

	P99NS    metrics.Summary
	TputMRPS metrics.Summary
}

// RunSampledPoint measures the point `trials` times with seeds baseSeed,
// baseSeed+1, ...
func RunSampledPoint(kind SystemKind, workload string, rps float64, sc Scale, trials int, baseSeed uint64) (*SampledPoint, error) {
	if trials < 1 {
		trials = 1
	}
	p99s := make([]float64, 0, trials)
	tputs := make([]float64, 0, trials)
	for i := 0; i < trials; i++ {
		r, freq, err := RunPoint(kind, workload, rps, sc, baseSeed+uint64(i))
		if err != nil {
			return nil, fmt.Errorf("sampled point trial %d: %w", i, err)
		}
		p99s = append(p99s, r.P99LatencyNS())
		tputs = append(tputs, r.MeasuredRPS(freq)/1e6)
	}
	return &SampledPoint{
		System:   kind,
		Workload: workload,
		RPS:      rps,
		Trials:   trials,
		P99NS:    metrics.Summarize(p99s),
		TputMRPS: metrics.Summarize(tputs),
	}, nil
}

// Render formats the sampled point.
func (p *SampledPoint) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s on %s at %.2f MRPS over %d trials:\n",
		p.System, p.Workload, p.RPS/1e6, p.Trials)
	fmt.Fprintf(&b, "  p99 = %.1f +/- %.1f us (95%% CI; min %.1f, max %.1f)\n",
		p.P99NS.Mean/1000, p.P99NS.CI95/1000, p.P99NS.Min/1000, p.P99NS.Max/1000)
	fmt.Fprintf(&b, "  measured = %.2f +/- %.2f MRPS\n",
		p.TputMRPS.Mean, p.TputMRPS.CI95)
	return b.String()
}
