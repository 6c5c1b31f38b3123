// Command benchmark is the repository's one benchmark of the live serving
// stack: it boots the real stack in this process on loopback TCP, drives
// it from one seeded generator, checks every response, and prints every
// end-to-end and per-layer metric by name with its unit. BENCHMARK.json at
// the root of the repository is the contract; README.md beside this file
// defines each metric.
//
//	bash benchmark/run.sh                         every workload, untraced then traced
//	bash benchmark/run.sh -quick                  the same in about twenty seconds (smoke)
//	bash benchmark/run.sh -workload edge_echo -trace 0 -seed 7 -seconds 20
//	bash benchmark/run.sh -sets 2 -trace 0        two whole sets back to back, and their agreement
//	bash benchmark/run.sh -compare a.json b.json  one row per (workload, end-to-end metric)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

func main() {
	var (
		workloadName = flag.String("workload", "", "run one workload and end with the one-line JSON result (the driver's protocol); empty runs all five")
		seed         = flag.Int64("seed", devSeed, "seed of every draw the generator makes")
		seconds      = flag.Float64("seconds", runSeconds, "measured seconds per run; warm-up, closed loop and open loop share them 2:8:12")
		traceMode    = flag.Int("trace", -1, "0: end-to-end metrics, nothing wrapped; 1: per-layer metrics from the traced run; -1: both")
		quick        = flag.Bool("quick", false, "smoke pass: about 200 ms per phase, one set-up")
		sets         = flag.Int("sets", 1, "run this many whole sets back to back and print their agreement")
		compare      = flag.Bool("compare", false, "compare two result files: -compare a.json b.json")
		printManif   = flag.Bool("manifest", false, "print BENCHMARK.json as rendered from the metric tables and exit")
	)
	flag.Parse()
	runtime.GOMAXPROCS(benchProcs)

	switch {
	case *printManif:
		os.Stdout.Write(manifest())
		return
	case *compare:
		if flag.NArg() != 2 {
			fatal("usage: -compare a.json b.json")
		}
		os.Exit(compareFiles(flag.Arg(0), flag.Arg(1)))
	case flag.NArg() != 0:
		fatal("unexpected argument %q", flag.Arg(0))
	}
	if *seconds <= 0 {
		fatal("-seconds must be positive")
	}
	setups := 5
	if *quick {
		*seconds, setups = 1.1, 1
	}

	if *workloadName != "" {
		w := findWorkload(*workloadName)
		if w == nil {
			fatal("unknown workload %q", *workloadName)
		}
		if *traceMode != 0 && *traceMode != 1 {
			fatal("-workload needs -trace 0 or -trace 1")
		}
		os.Exit(runDriver(runConfig{w: w, seed: *seed, seconds: *seconds, setups: setups, outDir: outDir}, *traceMode == 1))
	}

	var files []*resultFile
	ok := true
	for i := 0; i < *sets; i++ {
		rf := runSet(*seed, *seconds, setups, *traceMode, *quick, outDir)
		name := filepath.Join(outDir, fmt.Sprintf("result-seed%d-set%d.json", *seed, i+1))
		if err := rf.write(name); err != nil {
			fatal("writing %s: %v", name, err)
		}
		fmt.Printf("\nwrote %s\n", name)
		files = append(files, rf)
		ok = ok && rf.correct()
	}
	for i := 1; i < len(files); i++ {
		fmt.Printf("\nagreement of set 1 and set %d (same code, same seed):\n", i+1)
		if printComparison(files[0], files[i]) != 0 {
			ok = false
		}
	}
	if !ok {
		os.Exit(1)
	}
}

// benchProcs is the GOMAXPROCS the benchmark runs at: one. The dev box
// has two cores but does not grant both for long: two busy threads are each
// descheduled for 3-10 ms dozens of times a second (measured with two bare
// spin loops; one spin loop alone is left in peace). At GOMAXPROCS=2 those
// stalls land in the middle of requests — rps moved 10% and p50 20-40%
// from run to run, and an invocation holding a state key while its thread
// was descheduled made its neighbour fail with ErrTaken. On one scheduler
// thread the program's goroutines hand off without crossing cores, runs
// repeat to 1-2% in the closed loop, and nothing fails. The cost: no lock
// is ever contended, so multi-core effects are out of this benchmark's
// sight — those belong to the GOMAXPROCS=8 CI jobs (ROADMAP aim 1).
const benchProcs = 1

// outDir is where result and trace files go (listed in .gitignore).
var outDir = filepath.Join("benchmark", "out")

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(2)
}

// runDriver is the driver's protocol: one workload, one of the two runs,
// and as the last line of standard output one JSON object.
func runDriver(cfg runConfig, traced bool) int {
	st := newStamp()
	var res *runResult
	defs := endToEndDefs
	if traced {
		res, defs = runTraced(cfg), perLayerDefs
	} else {
		res = runUntraced(cfg)
	}
	st.print()
	printRun(res, defs)

	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{Correct: res.Correct, Attempted: max(res.Attempted, 1), Failed: res.Failed, Metrics: map[string]mv{}}
	for _, d := range defs {
		v, ok := res.Metrics[d.Name]
		if !ok {
			res.Correct, line.Correct = false, false
			fmt.Printf("MISSING metric %s\n", d.Name)
			continue
		}
		line.Metrics[d.Name] = mv{v.Value, v.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		fatal("%v", err)
	}
	fmt.Printf("%s\n", b)
	if !res.Correct {
		return 1
	}
	return 0
}

// ---- result files -----------------------------------------------------------

// stamp says which code on which box made a result.
type stamp struct {
	Commit     string  `json:"commit"`
	Started    string  `json:"started"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	CPUModel   string  `json:"cpu_model"`
	LoadAvg1   float64 `json:"loadavg_1min_at_start"`
	Clients    int     `json:"clients"`
}

func newStamp() stamp {
	st := stamp{
		Commit: gitCommit(), Started: time.Now().UTC().Format(time.RFC3339),
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		CPUModel: "unknown", Clients: numClients(),
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				st.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		fmt.Sscanf(string(b), "%f", &st.LoadAvg1)
	}
	return st
}

func (st stamp) print() {
	fmt.Printf("commit %s  nproc %d  GOMAXPROCS %d  %s  %s  loadavg %.2f  clients %d\n",
		st.Commit, st.NumCPU, st.GOMAXPROCS, st.GoVersion, st.CPUModel, st.LoadAvg1, st.Clients)
}

// gitCommit reads HEAD without running git ("unknown" outside a repository,
// which is where the driver runs).
func gitCommit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if b, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile(filepath.Join(".git", "packed-refs")); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
				return sha
			}
		}
	}
	return "unknown"
}

type workloadResult struct {
	Name     string     `json:"name"`
	Why      string     `json:"why"`
	Untraced *runResult `json:"untraced,omitempty"`
	Traced   *runResult `json:"traced,omitempty"`
}

type resultFile struct {
	Stamp      stamp            `json:"stamp"`
	Seed       int64            `json:"seed"`
	DevSeed    int64            `json:"dev_seed"`
	VerifySeed int64            `json:"verify_seed"`
	Seconds    float64          `json:"seconds"`
	Quick      bool             `json:"quick,omitempty"`
	Rig        rigConfig        `json:"rig"`
	Workloads  []workloadResult `json:"workloads"`
}

func (rf *resultFile) correct() bool {
	for _, w := range rf.Workloads {
		if (w.Untraced != nil && !w.Untraced.Correct) || (w.Traced != nil && !w.Traced.Correct) {
			return false
		}
	}
	return true
}

func (rf *resultFile) write(name string) error {
	if err := os.MkdirAll(filepath.Dir(name), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(rf, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(name, append(b, '\n'), 0o644)
}

// runSet runs every workload once: untraced for the end-to-end metrics,
// then traced for the per-layer ones (traceMode -1; 0 or 1 picks one).
func runSet(seed int64, seconds float64, setups, traceMode int, quick bool, outDir string) *resultFile {
	rf := &resultFile{
		Stamp: newStamp(), Seed: seed, DevSeed: devSeed, VerifySeed: verifySeed,
		Seconds: seconds, Quick: quick, Rig: theRigConfig(),
	}
	rf.Stamp.print()
	fmt.Printf("seed %d (dev %d, verify %d)  %.1f s per run\n", seed, devSeed, verifySeed, seconds)
	for i := range workloadTable {
		w := &workloadTable[i]
		cfg := runConfig{w: w, seed: seed, seconds: seconds, setups: setups, outDir: outDir}
		wr := workloadResult{Name: w.name, Why: w.why}
		fmt.Printf("\n== %s: %s\n", w.name, w.why)
		if traceMode != 1 {
			wr.Untraced = runUntraced(cfg)
			printRun(wr.Untraced, endToEndDefs)
		}
		if traceMode != 0 {
			wr.Traced = runTraced(cfg)
			printRun(wr.Traced, perLayerDefs)
		}
		rf.Workloads = append(rf.Workloads, wr)
	}
	return rf
}

// printRun prints one run: its phases (an open-loop phase carries the
// generator's late_ratio and is marked invalid above 0.05), then every
// metric by name with its unit.
func printRun(res *runResult, defs []metricDef) {
	kind := "untraced"
	if res.Traced {
		kind = "traced"
	}
	fmt.Printf("-- %s %s  seed %d  rate_rps %g  slo_us %g  clients %d\n",
		res.Workload, kind, res.Seed, res.RateRPS, res.SLOUS, res.Clients)
	for _, p := range res.Phases {
		mark := ""
		if p.Invalid {
			mark = "  INVALID: the generator ran late"
		}
		fmt.Printf("   phase %-17s wall %7.3f s  attempted %8d  correct %8d  client.late_ratio %.4f  sched_wait %6.1f us%s\n",
			p.Name, p.WallS, p.Attempted, p.Correct, p.LateRatio, p.SchedWait, mark)
	}
	for _, d := range defs {
		v, ok := res.Metrics[d.Name]
		if !ok {
			continue
		}
		if len(v.Windows) > 0 {
			fmt.Printf("   %-42s %14.7g %-6s window spread %6.2f%%  samples %d\n", d.Name, v.Value, v.Unit, 100*v.Spread, v.Samples)
		} else {
			fmt.Printf("   %-42s %14.7g %s\n", d.Name, v.Value, v.Unit)
		}
	}
	for _, e := range res.Errors {
		fmt.Printf("   ! %s\n", e)
	}
	verdict := "correct"
	if !res.Correct {
		verdict = "NOT CORRECT"
	}
	fmt.Printf("   %s: attempted %d, failed %d\n", verdict, res.Attempted, res.Failed)
}

// ---- comparison -------------------------------------------------------------

func readResultFile(name string) (*resultFile, error) {
	b, err := os.ReadFile(name)
	if err != nil {
		return nil, err
	}
	rf := new(resultFile)
	if err := json.Unmarshal(b, rf); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	return rf, nil
}

func compareFiles(a, b string) int {
	fa, err := readResultFile(a)
	if err != nil {
		fatal("%v", err)
	}
	fb, err := readResultFile(b)
	if err != nil {
		fatal("%v", err)
	}
	fmt.Printf("a: %s  commit %s  seed %d\nb: %s  commit %s  seed %d\n", a, fa.Stamp.Commit, fa.Seed, b, fb.Stamp.Commit, fb.Seed)
	return printComparison(fa, fb)
}

// printComparison prints one row per (workload, end-to-end metric): both
// values, the wider of the two spreads, the bound, and a verdict — "worse"
// when b is worse than a by more than the bound, "unresolved" when the
// spread is wider than the bound (so neither "worse" nor "ok" can be told),
// otherwise "ok". The spread here is that of the reported value, not of a
// single window: the distance between the window quartiles over the square
// root of the number of windows (about one standard error), as a share of
// the median. It returns the number of rows that are not ok.
func printComparison(a, b *resultFile) int {
	bad := 0
	fmt.Printf("%-13s %-15s %14s %14s %9s %9s %7s  %s\n", "workload", "metric", "a", "b", "change", "spread", "bound", "verdict")
	for _, wa := range a.Workloads {
		var wb *workloadResult
		for i := range b.Workloads {
			if b.Workloads[i].Name == wa.Name {
				wb = &b.Workloads[i]
			}
		}
		if wa.Untraced == nil || wb == nil || wb.Untraced == nil {
			continue
		}
		for _, d := range endToEndDefs {
			va, vb := wa.Untraced.Metrics[d.Name], wb.Untraced.Metrics[d.Name]
			change := 0.0
			if va.Value != 0 {
				change = (vb.Value - va.Value) / va.Value
			}
			worse := change
			if d.Better == "higher" {
				worse = -change
			}
			sp := max(va.medianSpread(), vb.medianSpread())
			verdict := "ok"
			switch {
			case worse > d.Bound:
				verdict = "worse"
			case sp > d.Bound:
				verdict = "unresolved"
			}
			if verdict != "ok" {
				bad++
			}
			fmt.Printf("%-13s %-15s %14.7g %14.7g %+8.2f%% %8.2f%% %6.1f%%  %s\n",
				wa.Name, d.Name, va.Value, vb.Value, 100*change, 100*sp, 100*d.Bound, verdict)
		}
	}
	return bad
}
