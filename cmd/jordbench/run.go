package main

import (
	"runtime"
	"time"

	"jord/internal/metrics"
)

// result is one closed-loop measurement window. liveResult embeds it, so
// its keys sit at the top level of its rows.
type result struct {
	Requests int `json:"requests"`
	Workers  int `json:"workers"`

	ThroughputRPS float64 `json:"throughput_rps"`
	P50Us         float64 `json:"p50_us"`
	P99Us         float64 `json:"p99_us"`
	P999Us        float64 `json:"p999_us"`
	MeanUs        float64 `json:"mean_us"`

	// Whole-process allocation over the window, per request: clients and
	// the code under test share this process, so both count.
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
}

// warmup is the length of the unmeasured window run before a measured
// one of requests: enough to fill the PD caches, start the parked
// runners, fill the recycle pools and open every keep-alive connection.
func warmup(requests int) int { return min(requests/10, 2000) }

// run is the one closed-loop driver: clients goroutines issue requests
// calls of do back to back, client c taking request numbers c,
// c+clients, c+2*clients and so on. The driver allocates nothing per
// request, so AllocsPerOp is the cost of do. Callers run it twice — a
// warm-up window whose result they drop, then the measured one — and
// read their own counters around the second.
func run(requests, clients int, do func(client, i int) error) (result, error) {
	var hist metrics.ShardedHistogram
	hist.SetShards(clients)
	errCh := make(chan error, clients)

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)

	start := time.Now()
	for c := 0; c < clients; c++ {
		go func(c int) {
			for i := c; i < requests; i += clients {
				t0 := time.Now()
				if err := do(c, i); err != nil {
					errCh <- err
					return
				}
				hist.RecordShard(c, time.Since(t0).Nanoseconds())
			}
			errCh <- nil
		}(c)
	}
	var err error
	for c := 0; c < clients; c++ {
		if e := <-errCh; err == nil {
			err = e
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	if err != nil {
		return result{}, err
	}

	snap := hist.Snapshot()
	n := float64(requests)
	return result{
		Requests:      requests,
		Workers:       clients,
		ThroughputRPS: n / elapsed.Seconds(),
		P50Us:         float64(snap.P50) / 1e3,
		P99Us:         float64(snap.P99) / 1e3,
		P999Us:        float64(snap.P999) / 1e3,
		MeanUs:        snap.Mean / 1e3,
		AllocsPerOp:   float64(after.Mallocs-before.Mallocs) / n,
		BytesPerOp:    float64(after.TotalAlloc-before.TotalAlloc) / n,
	}, nil
}

// scaling returns a sweep point's speedup over the sweep's first point
// and its efficiency: that speedup over the growth in effective cores
// between the two, so a linear sweep reads 1.0 wherever it starts.
func scaling(tput float64, effCores int, baseTput float64, baseEffCores int) (speedup, efficiency float64) {
	speedup = tput / baseTput
	return speedup, speedup / (float64(effCores) / float64(baseEffCores))
}
