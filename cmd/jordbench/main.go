// Command jordbench runs custom load sweeps of the simulator and emits
// TSV, for plotting or regression tracking beyond the fixed paper
// figures, and measures the live stack in-process.
//
// Usage:
//
//	jordbench [-mode sim] -workload hotel -system jord -loads 1,2,4,6 [-measure 5000]
//	          [-warmup 300] [-seed 1] [-trials 1]
//	jordbench -mode live|cluster [-out BENCH_<mode>.json] [-requests N]
//	          [-clients N] [-sweep 1,2,4] [-gate]
//
// Loads are in MRPS. Systems: jord | jordni | jordbt | nightcore.
// -trials > 1 runs independent seeds per point and adds 95% CIs.
//
// The live and cluster modes share one closed-loop driver:
// -clients goroutines issue -requests calls back to back, after an
// unmeasured warm-up window, and each mode writes its JSON report to
// -out ('-' = stdout). A flag left unset takes the mode's default:
//
//	mode     -requests  -clients  -sweep
//	live     50000      16        1,2,4,8,16,32
//	cluster  20000      16        1,2,4
//
// -mode live measures the live pool (internal/server/pool): throughput,
// latency percentiles and whole-process allocations per request for an
// external echo, a nested synchronous chain and a two-way async fanout;
// the cost of always-on tracing, as the median of paired rounds against
// an untraced pool; and the multicore scaling curve over the -sweep core
// counts (an empty list skips it), each point pinning GOMAXPROCS and
// sizing the pool to one executor per core and one orchestrator per four. The checked-in
// BENCH_live.json is the regression baseline for the hot path.
//
// -mode cluster boots N in-process jordd workers on loopback behind the
// JBSQ(k) dispatcher (internal/cluster) for each worker count in -sweep
// and measures echo end to end — client → dispatcher → worker → back —
// writing the 1→N scaling curve.
//
// A sweep reports each point's speedup over its first point and its
// efficiency, the speedup over the growth in effective cores
// (min(cores, num_cpu)), so a sweep on a small box reads honestly.
//
// -gate makes a run a CI smoke gate that exits nonzero when the mode
// misses a bound. live: echo at most 0.01 allocs/op, tracing at most 5%,
// efficiency at least 0.70 at the largest point the machine can
// parallelize, and a 4-core point at least 2x the 1-core point. cluster:
// no dispatcher rejections or retries under the sized load, and 2-worker
// efficiency at least 0.55. A gate the machine has too few CPUs for logs
// "skipped".
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"

	"jord/internal/cliutil"
	"jord/internal/experiments"
)

// systems maps -system names to the simulated systems under test.
var systems = map[string]experiments.SystemKind{
	"jord":      experiments.Jord,
	"jordni":    experiments.JordNI,
	"jordbt":    experiments.JordBT,
	"nightcore": experiments.NightCore,
}

// runSim measures each offered load (MRPS) on the simulator and prints a
// TSV row per point: one run's latency percentiles and overheads, or with
// trials > 1 the means and 95% CIs over seeds seed, seed+1, ...
func runSim(workload, system, loads string, sc experiments.Scale, seed uint64, trials int) error {
	if trials > 1 {
		fmt.Println("workload\tsystem\tload_mrps\ttrials\tp99_us\tp99_ci_us\tmeasured_mrps\tmeasured_ci")
	} else {
		fmt.Println("workload\tsystem\tload_mrps\tmeasured_mrps\tp50_us\tp99_us\tp999_us\tmean_service_us\toverhead_frac")
	}
	for _, tok := range strings.Split(loads, ",") {
		mrps, err := strconv.ParseFloat(strings.TrimSpace(tok), 64)
		if err != nil {
			return fmt.Errorf("bad load %q: %v", tok, err)
		}
		if trials > 1 {
			p, err := experiments.RunSampledPoint(systems[system], workload, mrps*1e6, sc, trials, seed)
			if err != nil {
				return err
			}
			fmt.Printf("%s\t%s\t%.3f\t%d\t%.2f\t%.2f\t%.3f\t%.3f\n",
				workload, system, mrps, trials,
				p.P99NS.Mean/1000, p.P99NS.CI95/1000,
				p.TputMRPS.Mean, p.TputMRPS.CI95)
			continue
		}
		res, freq, err := experiments.RunPoint(systems[system], workload, mrps*1e6, sc, seed)
		if err != nil {
			return err
		}
		fmt.Printf("%s\t%s\t%.3f\t%.3f\t%.2f\t%.2f\t%.2f\t%.2f\t%.3f\n",
			workload, system, mrps, res.MeasuredRPS(freq)/1e6,
			float64(res.Latency.Percentile(50))/1000,
			float64(res.Latency.Percentile(99))/1000,
			float64(res.Latency.Percentile(99.9))/1000,
			res.MeanServiceNS()/1000,
			res.OverheadFraction())
	}
	return nil
}

// modeDefaults holds the live modes' values for the flags a run leaves
// unset; -out defaults to BENCH_<mode>.json.
var modeDefaults = map[string]struct {
	requests, clients int
	sweep             string
}{
	"live":    {50000, 16, "1,2,4,8,16,32"},
	"cluster": {20000, 16, "1,2,4"},
}

// parseCounts parses a -sweep list of positive integers; "" is no sweep.
func parseCounts(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, tok := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(tok))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad count %q", tok)
		}
		out = append(out, n)
	}
	return out, nil
}

func main() {
	var (
		mode     = cliutil.NewChoice("sim", "sim", "live", "cluster")
		workload = cliutil.NewChoice("hipster", "hipster", "hotel", "media", "social")
		system   = cliutil.NewChoice("jord", "jord", "jordni", "jordbt", "nightcore")
		loads    = flag.String("loads", "1,2,4,8", "comma-separated offered loads in MRPS")
		warmup   = flag.Uint64("warmup", 300, "warmup requests")
		measure  = flag.Uint64("measure", 3000, "measured requests")
		seed     = flag.Uint64("seed", 1, "simulation seed")
		trials   = flag.Int("trials", 1, "independent trials per point (SimFlex-style sampling; >1 adds 95% CIs)")

		out      = flag.String("out", "", "report file for the live modes ('-' = stdout; unset: BENCH_<mode>.json)")
		requests = flag.Int("requests", 0, "measured requests per scenario or sweep point (unset: the mode's default)")
		clients  = flag.Int("clients", 0, "concurrent closed-loop clients (unset: the mode's default)")
		sweep    = flag.String("sweep", "", "comma-separated core counts (live, '' = skip) or worker counts (cluster) (unset: the mode's default)")
		gate     = flag.Bool("gate", false, "exit nonzero if the run misses its mode's CI gates")
	)
	flag.Var(mode, "mode", mode.Allowed())
	flag.Var(workload, "workload", workload.Allowed())
	flag.Var(system, "system", system.Allowed())
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "jordbench: unexpected arguments: %v\n", flag.Args())
		flag.Usage()
		os.Exit(2)
	}

	if mode.Value() == "sim" {
		sc := experiments.Scale{Name: "bench", Warmup: *warmup, Measure: *measure}
		if err := runSim(workload.Value(), system.Value(), *loads, sc, *seed, *trials); err != nil {
			log.Fatal(err)
		}
		return
	}

	d := modeDefaults[mode.Value()]
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if !set["out"] {
		*out = "BENCH_" + mode.Value() + ".json"
	}
	if !set["requests"] {
		*requests = d.requests
	}
	if !set["clients"] {
		*clients = d.clients
	}
	if !set["sweep"] {
		*sweep = d.sweep
	}
	counts, err := parseCounts(*sweep)
	if *requests < 1 || *clients < 1 || err != nil || (mode.Value() == "cluster" && len(counts) == 0) {
		fmt.Fprintln(os.Stderr, "jordbench: -requests and -clients must be positive and -sweep a list of positive counts (one at least for -mode cluster)")
		flag.Usage()
		os.Exit(2)
	}

	var passed bool
	switch mode.Value() {
	case "live":
		passed = runLive(*out, *requests, *clients, counts, *gate)
	case "cluster":
		passed = runCluster(*out, *requests, *clients, counts, *gate)
	}
	if !passed {
		os.Exit(1)
	}
}
