package main

import (
	"io"
	"log"
	"os"
	"testing"
)

func TestMain(m *testing.M) {
	log.SetOutput(io.Discard) // the gates log every verdict
	os.Exit(m.Run())
}

// liveSweep builds a scaling curve the way runLive does, from each
// point's throughput on a numCPU machine.
func liveSweep(numCPU int, tput map[int]float64, cores ...int) []scalingPoint {
	var pts []scalingPoint
	for _, n := range cores {
		pt := scalingPoint{Cores: n, EffectiveCores: min(n, numCPU), ThroughputRPS: tput[n]}
		base := pt
		if len(pts) > 0 {
			base = pts[0]
		}
		pt.Speedup, pt.Efficiency = scaling(pt.ThroughputRPS, pt.EffectiveCores, base.ThroughputRPS, base.EffectiveCores)
		pts = append(pts, pt)
	}
	return pts
}

// linear is throughput proportional to cores.
var linear = map[int]float64{1: 100, 2: 200, 4: 400, 8: 800}

// TestScalingEfficiency: a linear sweep reads efficiency 1 whether it
// starts at 1 core or at 2, and a clamped point counts only the cores
// the machine has.
func TestScalingEfficiency(t *testing.T) {
	for _, cores := range [][]int{{1, 2, 4, 8}, {2, 4, 8}} {
		for _, pt := range liveSweep(8, linear, cores...) {
			if want := float64(pt.Cores) / float64(cores[0]); pt.Speedup != want || pt.Efficiency != 1 {
				t.Errorf("sweep %v, %d cores: speedup %.2f efficiency %.2f, want %.2f and 1",
					cores, pt.Cores, pt.Speedup, pt.Efficiency, want)
			}
		}
	}
	// On a 2-CPU box the 4- and 8-core points are 2 effective cores: flat
	// throughput past 2 is full efficiency, not a quarter of it.
	flat := map[int]float64{1: 100, 2: 200, 4: 200, 8: 200}
	for _, pt := range liveSweep(2, flat, 1, 2, 4, 8) {
		if pt.Efficiency != 1 {
			t.Errorf("2-CPU box, %d cores: efficiency %.2f, want 1", pt.Cores, pt.Efficiency)
		}
	}
}

func TestLiveGates(t *testing.T) {
	pass := func() liveReport {
		return liveReport{
			reportHead:    reportHead{NumCPU: 8},
			Scenarios:     []liveResult{{Name: "echo", result: result{AllocsPerOp: 0.005}}},
			TraceOverhead: &traceOverhead{OverheadPct: 1},
			Scaling:       liveSweep(8, linear, 1, 2, 4, 8),
		}
	}
	cases := []struct {
		name   string
		mutate func(*liveReport)
		want   bool
	}{
		{"pass", func(*liveReport) {}, true},
		{"sweep from 2 cores", func(r *liveReport) { r.Scaling = liveSweep(8, linear, 2, 4, 8) }, true},
		// Without a 1-core point the 4-core gate skips rather than measure
		// against the 2-core one.
		{"no 1-core point", func(r *liveReport) {
			r.Scaling = liveSweep(8, map[int]float64{2: 200, 4: 380, 8: 800}, 2, 4, 8)
		}, true},
		{"echo allocates", func(r *liveReport) { r.Scenarios[0].AllocsPerOp = 0.02 }, false},
		{"tracing overhead", func(r *liveReport) { r.TraceOverhead.OverheadPct = 6 }, false},
		{"efficiency", func(r *liveReport) {
			r.Scaling = liveSweep(8, map[int]float64{1: 100, 2: 200, 4: 400, 8: 500}, 1, 2, 4, 8)
		}, false},
		{"4-core speedup", func(r *liveReport) {
			r.Scaling = liveSweep(8, map[int]float64{1: 100, 2: 200, 4: 190, 8: 800}, 1, 2, 4, 8)
		}, false},
		// Too few CPUs: both scaling gates skip rather than fail.
		{"1-CPU box", func(r *liveReport) {
			r.NumCPU = 1
			r.Scaling = liveSweep(1, map[int]float64{1: 100, 2: 100, 4: 100, 8: 100}, 1, 2, 4, 8)
		}, true},
	}
	for _, tc := range cases {
		r := pass()
		tc.mutate(&r)
		if got := checkLiveGates(r); got != tc.want {
			t.Errorf("%s: checkLiveGates = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestClusterGates(t *testing.T) {
	sweep := func(numCPU int, tput ...float64) clusterReport {
		r := clusterReport{reportHead: reportHead{NumCPU: numCPU}}
		for i, v := range tput {
			n := 1 << i
			pt := clusterPoint{Workers: n, EffectiveCores: min(n*clusterExecutors, numCPU), ThroughputRPS: v}
			base := pt
			if i > 0 {
				base = r.Points[0]
			}
			pt.Speedup, pt.Efficiency = scaling(pt.ThroughputRPS, pt.EffectiveCores, base.ThroughputRPS, base.EffectiveCores)
			r.Points = append(r.Points, pt)
		}
		return r
	}
	good := []float64{100, 180, 300}
	cases := []struct {
		name   string
		r      clusterReport
		mutate func(*clusterReport)
		want   bool
	}{
		{"pass", sweep(8, good...), nil, true},
		{"rejected", sweep(8, good...), func(r *clusterReport) { r.Points[1].Rejected = 1 }, false},
		{"retried", sweep(8, good...), func(r *clusterReport) { r.Points[2].Retries = 1 }, false},
		{"2-worker efficiency", sweep(8, 100, 100, 100), nil, false},
		// Too few CPUs for two workers' parallelism: the floor skips.
		{"4-CPU box", sweep(4, 100, 100, 100), nil, true},
	}
	for _, tc := range cases {
		if tc.mutate != nil {
			tc.mutate(&tc.r)
		}
		if got := checkClusterGates(tc.r); got != tc.want {
			t.Errorf("%s: checkClusterGates = %v, want %v", tc.name, got, tc.want)
		}
	}
}
