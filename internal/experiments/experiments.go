// Package experiments regenerates every table and figure of the paper's
// evaluation (§6): Table 4 (operation latencies), Figure 9 (p99 vs load),
// Figure 10 (service-time CDF), Figure 11 (service-time breakdown),
// Figure 12 (VLB sizing), Figure 13 (plain list vs B-tree), and Figure 14
// (scalability), plus the §6.2 overhead accounting. Each experiment
// returns structured rows/series and can render itself as an aligned text
// table; All lists them in report order.
//
// Every single-server measurement goes through one point runner, and
// every p99-vs-load curve through one sweep: §5's method of open-loop
// Poisson load, p99 per offered load, and throughput under an SLO of 10x
// JordNI's minimal-load latency.
package experiments

import (
	"fmt"

	"jord/internal/core"
	"jord/internal/metrics"
	"jord/internal/privlib"
	"jord/internal/workloads"
)

// Scale selects measurement effort: Quick for tests/benches, Full for
// paper-grade sweeps.
type Scale struct {
	Name    string
	Warmup  uint64
	Measure uint64
	// MaxPoints caps sweep grids (downsampled evenly).
	MaxPoints int
}

var (
	Quick = Scale{Name: "quick", Warmup: 200, Measure: 2500, MaxPoints: 6}
	Full  = Scale{Name: "full", Warmup: 1000, Measure: 12000, MaxPoints: 12}
)

// load is one open-loop run at rps with the scale's windows.
func (sc Scale) load(rps float64) core.LoadSpec {
	return core.LoadSpec{RPS: rps, Warmup: sc.Warmup, Measure: sc.Measure}
}

// grid is workload's Figure 9 load axis, downsampled to the scale.
func (sc Scale) grid(workload string) []float64 {
	return downsample(fig9Grid[workload], sc.MaxPoints)
}

// SystemKind names the systems under comparison (§5).
type SystemKind int

const (
	Jord SystemKind = iota
	JordNI
	JordBT
	NightCore
)

func (k SystemKind) String() string {
	switch k {
	case Jord:
		return "Jord"
	case JordNI:
		return "JordNI"
	case JordBT:
		return "JordBT"
	case NightCore:
		return "NightCore"
	default:
		return fmt.Sprintf("SystemKind(%d)", int(k))
	}
}

// config returns one system under test on the paper's 32-core machine
// (Table 2) with the default VLBs; Jord is core's default variant.
func config(kind SystemKind, seed uint64) core.Config {
	cfg := core.DefaultConfig()
	cfg.Seed = seed
	switch kind {
	case JordNI:
		cfg.Variant = privlib.NoIsolation
	case JordBT:
		cfg.Variant = privlib.BTree
	case NightCore:
		cfg.NightCore = true
	}
	return cfg
}

// runPoint builds the system cfg describes, lets tune (when non-nil)
// adjust it, deploys workload with cfg.Seed, and runs spec against the
// workload's root selector. It closes the system if the deploy fails.
func runPoint(cfg core.Config, workload string, spec core.LoadSpec, tune func(*core.System)) (*core.Results, *workloads.Workload, error) {
	sys, err := core.NewSystem(cfg)
	if err != nil {
		return nil, nil, err
	}
	if tune != nil {
		tune(sys)
	}
	w, err := workloads.Build(workload, sys, cfg.Seed)
	if err != nil {
		sys.Close()
		return nil, nil, err
	}
	spec.Root = w.Selector()
	return sys.RunLoad(spec), w, nil
}

// RunPoint measures one (system, workload, load) point and returns its
// results with the machine's clock in GHz.
func RunPoint(kind SystemKind, workload string, rps float64, sc Scale, seed uint64) (*core.Results, float64, error) {
	cfg := config(kind, seed)
	r, _, err := runPoint(cfg, workload, sc.load(rps), nil)
	return r, cfg.Machine.FreqGHz, err
}

// stalledP99NS is the p99 a sweep records for a run that hit its
// virtual-time cap: effectively zero throughput at that load.
const stalledP99NS = 1e12

// sweep measures cfg's p99 on workload at each load of grid in order,
// with spec's windows and virtual-time cap. It stops past 4x slo, where
// the curve is vertical and later points only cost time, and at a run
// that hits the cap, which it records as stalledP99NS.
func sweep(cfg core.Config, workload string, grid []float64, slo float64, spec core.LoadSpec, tune func(*core.System)) ([]metrics.LoadPoint, error) {
	var points []metrics.LoadPoint
	for _, rps := range grid {
		spec.RPS = rps
		r, _, err := runPoint(cfg, workload, spec, tune)
		if err != nil {
			return nil, fmt.Errorf("%s @%.2f MRPS: %w", workload, rps/1e6, err)
		}
		if r.Completed < spec.Measure {
			return append(points, metrics.LoadPoint{LoadRPS: rps, P99NS: stalledP99NS}), nil
		}
		points = append(points, metrics.LoadPoint{
			LoadRPS:     rps,
			P99NS:       r.P99LatencyNS(),
			MeasuredRPS: r.MeasuredRPS(cfg.Machine.FreqGHz),
		})
		if r.P99LatencyNS() > 4*slo {
			break
		}
	}
	return points, nil
}

// downsample evenly reduces a grid to at most n points, always keeping
// the first and last.
func downsample(grid []float64, n int) []float64 {
	if n <= 0 || len(grid) <= n {
		return grid
	}
	out := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		idx := i * (len(grid) - 1) / (n - 1)
		out = append(out, grid[idx])
	}
	return out
}

// fig9Grid is each workload's offered-load axis in requests/second,
// following the paper's Figure 9 ranges.
var fig9Grid = map[string][]float64{
	"hipster": {1e6, 2e6, 4e6, 6e6, 8e6, 10e6, 11e6, 12e6, 13e6, 14e6, 16e6},
	"hotel":   {0.5e6, 1e6, 2e6, 3e6, 4e6, 5e6, 6e6, 6.5e6, 7e6, 7.5e6, 8e6},
	"media":   {0.5e6, 1e6, 2e6, 3e6, 3.5e6, 4e6, 4.5e6, 5e6, 6e6, 7e6},
	"social":  {0.1e6, 0.2e6, 0.4e6, 0.6e6, 0.8e6, 0.9e6, 1.0e6, 1.1e6, 1.2e6, 1.4e6},
}

// sloFor computes each workload's SLO per §5: 10x the minimal-load mean
// request latency on JordNI.
func sloFor(workload string, seed uint64) (float64, error) {
	r, _, err := runPoint(config(JordNI, seed), workload, core.LoadSpec{
		RPS: fig9Grid[workload][0] / 2, Warmup: 100, Measure: 1500,
	}, nil)
	if err != nil {
		return 0, err
	}
	return 10 * r.Latency.Mean(), nil
}

// Renderer is an experiment's result, which renders as aligned text.
type Renderer interface{ Render() string }

// Experiment is one table or figure of the evaluation.
type Experiment struct {
	Name string
	// Run measures the experiment at sc. workload restricts fig9 to one
	// workload ("" = all); the other experiments ignore it.
	Run func(sc Scale, workload string, seed uint64) (Renderer, error)
}

// All lists every experiment in report order (`jordsim -experiment all`).
var All = []Experiment{
	{"params", fixed(RunParams)},
	{"motivation", fixed(RunMotivation)},
	{"coldstart", fixed(RunColdStart)},
	{"table4", fixed(RunTable4)},
	{"fig9", func(sc Scale, workload string, seed uint64) (Renderer, error) {
		return RunFig9(sc, workload, seed)
	}},
	{"fig10", scaled(RunFig10)},
	{"fig11", scaled(RunFig11)},
	{"fig12", scaled(RunFig12)},
	{"fig13", scaled(RunFig13)},
	{"fig14", scaled(RunFig14)},
	{"overheads", scaled(RunOverheads)},
	{"dispatch", scaled(RunDispatchAblation)},
	{"mpk", scaled(RunMPKComparison)},
	{"cluster", scaled(RunCluster)},
}

// fixed adapts an experiment that depends on neither scale nor seed.
func fixed[R Renderer](run func() (R, error)) func(Scale, string, uint64) (Renderer, error) {
	return func(Scale, string, uint64) (Renderer, error) { return run() }
}

// scaled adapts an experiment that takes a scale and a seed.
func scaled[R Renderer](run func(Scale, uint64) (R, error)) func(Scale, string, uint64) (Renderer, error) {
	return func(sc Scale, _ string, seed uint64) (Renderer, error) { return run(sc, seed) }
}
