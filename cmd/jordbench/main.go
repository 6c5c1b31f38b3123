// Command jordbench runs custom load sweeps and emits TSV, for plotting
// or regression tracking beyond the fixed paper figures.
//
// Usage:
//
//	jordbench -workload hotel -system jord -loads 1,2,4,6 [-measure 5000]
//	          [-warmup 300] [-seed 1] [-trials 1]
//	jordbench -live [-live-out BENCH_live.json] [-live-requests 50000] [-live-workers 16]
//	          [-live-cores 1,2,4,8,16,32] [-live-gate]
//	jordbench -cluster [-cluster-out BENCH_cluster.json] [-cluster-nodes 1,2,4]
//	          [-cluster-requests 20000] [-cluster-workers 16] [-cluster-gate]
//	jordbench -state [-state-out BENCH_state.json] [-state-requests 30000] [-state-workers 16]
//
// Loads are in MRPS. Systems: jord | jordni | jordbt | nightcore.
// -trials > 1 runs independent seeds per point and adds 95% CIs.
//
// With -live, instead of sweeping the simulator, jordbench drives the live
// serving path (internal/server/pool) in-process under sustained concurrent
// load and writes BENCH_live.json: throughput, latency percentiles, and
// allocations per operation for an external echo, a nested synchronous
// chain, a two-way async fanout, and an http_echo scenario that runs the
// full zero-allocation HTTP edge over a loopback socket — socket to
// function and back. It then sweeps the -live-cores list, sizing
// GOMAXPROCS and the pool (one executor per core, one orchestrator per
// four) per point, and records the multicore scaling curve: throughput,
// speedup over the first point, and efficiency normalized to the cores the
// machine actually has (num_cpu is recorded so a 32-core sweep on a 4-core
// box reads honestly). This is the checked-in regression baseline for the
// hot-path engineering (PD caches, credit-cached free counters, VTE
// permission arrays, continuation recycling); regenerate it with
// `go run ./cmd/jordbench -live`.
//
// -live-gate turns the run into a CI smoke gate: the process exits nonzero
// if the echo or http_echo path allocates per request, if scaling
// efficiency at the largest machine-feasible point falls below 70%, or if
// a 4-core point (on a >= 4 CPU machine) fails to reach 2x the 1-core
// throughput.
//
// With -cluster, jordbench boots N in-process jordd workers on loopback
// behind the JBSQ(k) front-end dispatcher (internal/cluster) and measures
// the echo workload end to end — client → dispatcher → worker → back —
// per worker count in -cluster-nodes, writing the 1→N scaling curve to
// BENCH_cluster.json. -cluster-gate makes it a CI smoke gate: the sized
// load must see zero dispatcher rejections/retries, and the 2-worker
// point must reach a conservative scaling-efficiency floor when the
// machine has cores enough to grant it.
//
// With -state, jordbench drives the shared-state tier the same way and
// writes BENCH_state.json: the granted (pcopy R) and promoted (VTE G bit)
// snapshot read paths, exclusive-ownership read-modify-writes, and the
// stateful social-network mix against a copy-per-request baseline. It exits
// nonzero if the snapshot read path allocates or the shared tier does not
// beat the baseline's copied bytes per op by at least 2x — the CI smoke
// gate for the state subsystem.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"

	"jord"
	"jord/internal/cliutil"
	"jord/internal/experiments"
)

// runSampled measures each load point over several independent seeds and
// prints means with 95% confidence intervals.
func runSampled(workload, system, loads string, warmup, measure, seed uint64, trials int) {
	kind, err := parseSystem(system)
	if err != nil {
		log.Fatal(err)
	}
	sc := experiments.Scale{Name: "bench", Warmup: warmup, Measure: measure, MaxPoints: 1}
	fmt.Println("workload\tsystem\tload_mrps\ttrials\tp99_us\tp99_ci_us\tmeasured_mrps\tmeasured_ci")
	for _, tok := range strings.Split(loads, ",") {
		mrps, err := strconv.ParseFloat(strings.TrimSpace(tok), 64)
		if err != nil {
			log.Fatalf("bad load %q: %v", tok, err)
		}
		p, err := experiments.RunSampledPoint(kind, workload, mrps*1e6, sc, trials, seed)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s\t%s\t%.3f\t%d\t%.2f\t%.2f\t%.3f\t%.3f\n",
			workload, system, mrps, trials,
			p.P99NS.Mean/1000, p.P99NS.CI95/1000,
			p.TputMRPS.Mean, p.TputMRPS.CI95)
	}
}

func parseSystem(name string) (experiments.SystemKind, error) {
	switch name {
	case "jord":
		return experiments.Jord, nil
	case "jordni":
		return experiments.JordNI, nil
	case "jordbt":
		return experiments.JordBT, nil
	case "nightcore":
		return experiments.NightCore, nil
	default:
		return 0, fmt.Errorf("unknown system %q", name)
	}
}

func main() {
	var (
		workload = cliutil.NewChoice("hipster", "hipster", "hotel", "media", "social")
		system   = cliutil.NewChoice("jord", "jord", "jordni", "jordbt", "nightcore")
		loads    = flag.String("loads", "1,2,4,8", "comma-separated offered loads in MRPS")
		warmup   = flag.Uint64("warmup", 300, "warmup requests")
		measure  = flag.Uint64("measure", 3000, "measured requests")
		seed     = flag.Uint64("seed", 1, "simulation seed")
		trials   = flag.Int("trials", 1, "independent trials per point (SimFlex-style sampling; >1 adds 95% CIs)")

		live         = flag.Bool("live", false, "benchmark the live serving path instead of the simulator")
		liveOut      = flag.String("live-out", "BENCH_live.json", "output file for -live ('-' = stdout)")
		liveRequests = flag.Int("live-requests", 50000, "measured requests per -live scenario")
		liveWorkers  = flag.Int("live-workers", 16, "concurrent clients for -live")
		liveCores    = flag.String("live-cores", "1,2,4,8,16,32", "comma-separated core counts for the -live scaling sweep ('' = skip)")
		liveGate     = flag.Bool("live-gate", false, "exit nonzero if -live misses the 0 allocs/op or scaling-efficiency gates")

		clusterBench    = flag.Bool("cluster", false, "benchmark the JBSQ dispatcher over N in-process workers on loopback")
		clusterOut      = flag.String("cluster-out", "BENCH_cluster.json", "output file for -cluster ('-' = stdout)")
		clusterRequests = flag.Int("cluster-requests", 20000, "measured requests per -cluster point")
		clusterClients  = flag.Int("cluster-workers", 16, "concurrent clients for -cluster")
		clusterNodes    = flag.String("cluster-nodes", "1,2,4", "comma-separated worker counts for the -cluster scaling sweep")
		clusterGate     = flag.Bool("cluster-gate", false, "exit nonzero if -cluster misses the no-rejection or 2-worker scaling-efficiency gates")

		stateBench    = flag.Bool("state", false, "benchmark the shared-state tier (snapshot reads, RMW, social mix vs copy baseline)")
		stateOut      = flag.String("state-out", "BENCH_state.json", "output file for -state ('-' = stdout)")
		stateRequests = flag.Int("state-requests", 30000, "measured requests per -state scenario")
		stateWorkers  = flag.Int("state-workers", 16, "concurrent clients for -state")
	)
	flag.Var(workload, "workload", workload.Allowed())
	flag.Var(system, "system", system.Allowed())
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "jordbench: unexpected arguments: %v\n", flag.Args())
		flag.Usage()
		os.Exit(2)
	}

	if *live {
		if *liveRequests < 1 || *liveWorkers < 1 {
			fmt.Fprintln(os.Stderr, "jordbench: -live-requests and -live-workers must be positive")
			flag.Usage()
			os.Exit(2)
		}
		if runLive(*liveOut, *liveRequests, *liveWorkers, *liveCores, *liveGate) {
			os.Exit(1)
		}
		return
	}

	if *clusterBench {
		if *clusterRequests < 1 || *clusterClients < 1 {
			fmt.Fprintln(os.Stderr, "jordbench: -cluster-requests and -cluster-workers must be positive")
			flag.Usage()
			os.Exit(2)
		}
		if runCluster(*clusterOut, *clusterRequests, *clusterClients, *clusterNodes, *clusterGate) {
			os.Exit(1)
		}
		return
	}

	if *stateBench {
		if *stateRequests < 1 || *stateWorkers < 1 {
			fmt.Fprintln(os.Stderr, "jordbench: -state-requests and -state-workers must be positive")
			flag.Usage()
			os.Exit(2)
		}
		runState(*stateOut, *stateRequests, *stateWorkers)
		return
	}

	if *trials > 1 {
		runSampled(workload.Value(), system.Value(), *loads, *warmup, *measure, *seed, *trials)
		return
	}

	fmt.Println("workload\tsystem\tload_mrps\tmeasured_mrps\tp50_us\tp99_us\tp999_us\tmean_service_us\toverhead_frac")
	for _, tok := range strings.Split(*loads, ",") {
		mrps, err := strconv.ParseFloat(strings.TrimSpace(tok), 64)
		if err != nil {
			log.Fatalf("bad load %q: %v", tok, err)
		}
		cfg := jord.DefaultConfig()
		cfg.Seed = *seed
		switch system.Value() {
		case "jord":
			cfg.Variant = jord.VariantPlainList
		case "jordni":
			cfg.Variant = jord.VariantNoIsolation
		case "jordbt":
			cfg.Variant = jord.VariantBTree
		case "nightcore":
			cfg.NightCore = true
		default:
			log.Fatalf("unknown system %q", system.Value())
		}
		sys, err := jord.NewSystem(cfg)
		if err != nil {
			log.Fatal(err)
		}
		w, err := jord.BuildWorkload(workload.Value(), sys, *seed)
		if err != nil {
			log.Fatal(err)
		}
		res := sys.RunLoad(jord.LoadSpec{
			RPS:     mrps * 1e6,
			Warmup:  *warmup,
			Measure: *measure,
			Root:    w.Selector(),
		})
		freq := sys.M.Cfg.FreqGHz
		fmt.Printf("%s\t%s\t%.3f\t%.3f\t%.2f\t%.2f\t%.2f\t%.2f\t%.3f\n",
			workload.Value(), system.Value(), mrps, res.MeasuredRPS(freq)/1e6,
			float64(res.Latency.Percentile(50))/1000,
			float64(res.Latency.Percentile(99))/1000,
			float64(res.Latency.Percentile(99.9))/1000,
			res.MeanServiceNS()/1000,
			res.OverheadFraction())
	}
}
