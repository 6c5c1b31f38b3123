package main

import (
	"bytes"
	"os"
	"regexp"
	"runtime"
	"testing"
)

// metricNameRE is the contract's rule for metric and workload names.
var metricNameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestMain(m *testing.M) {
	runtime.GOMAXPROCS(benchProcs)
	os.Exit(m.Run())
}

// TestQuickPass runs the -quick pass over all five workloads, untraced and
// traced, and checks what does not depend on how fast the box is: every
// correctness check passes, every metric in the tables is emitted exactly
// once with its unit, and nothing is emitted that the tables do not name.
// It asserts no timing.
func TestQuickPass(t *testing.T) {
	for i := range workloadTable {
		w := &workloadTable[i]
		cfg := runConfig{w: w, seed: devSeed, seconds: 1.1, setups: 1, outDir: t.TempDir()}
		for _, run := range []struct {
			name string
			f    func(runConfig) *runResult
			defs []metricDef
		}{{"untraced", runUntraced, endToEndDefs}, {"traced", runTraced, perLayerDefs}} {
			t.Run(w.name+"/"+run.name, func(t *testing.T) {
				res := run.f(cfg)
				if !res.Correct {
					t.Fatalf("correctness checks failed: %v", res.Errors)
				}
				if res.Attempted < 1 {
					t.Fatalf("attempted %d requests", res.Attempted)
				}
				if res.Failed != 0 {
					t.Errorf("%d of %d requests failed: %v", res.Failed, res.Attempted, res.Errors)
				}
				if len(res.Metrics) != len(run.defs) {
					t.Errorf("emitted %d metrics, the tables name %d", len(res.Metrics), len(run.defs))
				}
				for _, d := range run.defs {
					v, ok := res.Metrics[d.Name]
					if !ok {
						t.Errorf("metric %s not emitted", d.Name)
						continue
					}
					if v.Unit != d.Unit || v.Unit == "" {
						t.Errorf("metric %s emitted with unit %q, want %q", d.Name, v.Unit, d.Unit)
					}
				}
				if run.name == "traced" {
					if _, err := os.Stat(res.TraceFile); err != nil {
						t.Errorf("trace file: %v", err)
					}
				}
			})
		}
	}
}

// TestTables checks the metric and workload tables against the contract's
// limits, and BENCHMARK.json against the tables.
func TestTables(t *testing.T) {
	seen := map[string]bool{}
	for _, defs := range [][]metricDef{endToEndDefs, perLayerDefs} {
		for _, d := range defs {
			if !metricNameRE.MatchString(d.Name) {
				t.Errorf("metric name %q does not match %s", d.Name, metricNameRE)
			}
			if seen[d.Name] {
				t.Errorf("metric name %q used twice", d.Name)
			}
			seen[d.Name] = true
			if d.Unit == "" || (d.Better != "lower" && d.Better != "higher") {
				t.Errorf("metric %q: unit %q better %q", d.Name, d.Unit, d.Better)
			}
		}
	}
	if len(perLayerDefs) > 128 || len(endToEndDefs) > 16 {
		t.Errorf("%d per-layer and %d end-to-end metrics exceed the contract's 128 and 16", len(perLayerDefs), len(endToEndDefs))
	}
	for _, d := range endToEndDefs {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("end-to-end metric %q: bound %g outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	for _, w := range workloadTable {
		if !metricNameRE.MatchString(w.name) || len(w.why) > 200 || w.rateRPS <= 0 || w.sloUS <= 0 {
			t.Errorf("workload %q: bad name, why over 200 characters (%d), or unset rate/slo", w.name, len(w.why))
		}
	}
	onDisk, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark directory: %v", err)
	}
	if !bytes.Equal(onDisk, manifest()) {
		t.Errorf("BENCHMARK.json differs from the tables; regenerate it with: bash benchmark/run.sh -manifest > BENCHMARK.json")
	}
}

// TestBuildTree pins the nesting and self-time rule the per-layer span
// metrics rest on.
func TestBuildTree(t *testing.T) {
	spans := []span{
		{id: 1, kind: kBody, start: 30, end: 70},
		{id: 1, kind: kClient, start: 0, end: 100, aux: 10},
		{id: 1, kind: kState, start: 40, end: 50, aux: stGet},
		{id: 1, kind: kGateway, start: 20, end: 80},
		{id: 1, kind: kState, start: 45, end: 60, aux: stTake}, // overlaps its sibling: covered once
	}
	nodes := buildTree(spans)
	wantParent := []int{-1, 0, 1, 2, 2}
	wantSelf := []int64{40, 20, 20, 10, 15}
	for i, n := range nodes {
		if n.parent != wantParent[i] || n.self() != wantSelf[i] {
			t.Errorf("%s [%d,%d]: parent %d self %d, want parent %d self %d",
				kindNames[n.kind], n.start, n.end, n.parent, n.self(), wantParent[i], wantSelf[i])
		}
	}
}
