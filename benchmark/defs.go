package main

import "encoding/json"

// metricDef names one metric the benchmark prints. The tables below are
// the single source of the names, units and bounds: BENCHMARK.json is
// their rendering (see -manifest) and the smoke test holds the two equal.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: share of the parent's median it may worsen by
}

// runSeconds is how long one driver run measures (warm-up + closed loop +
// open loop share it 2:8:12, the issue's 2 s / 8 s / 12 s scaled to fit
// the driver's total time cap over 114 runs).
const runSeconds = 20

// Seeds: the default ("dev") seed is the one used while working on a
// change; a claim must also hold on the held-out ("verify") seed.
const (
	devSeed    = 1
	verifySeed = 20250925
)

// End-to-end metrics: what a caller of the system sees. ok_ratio is
// 1 - fail_ratio: the driver compares metrics as shares of the parent's
// median, which a metric that is normally 0 cannot carry; the raw failure
// count travels in the result's attempted/failed fields as well.
//
// The tail latency is p90_us, not the p99_us the issue named. On the dev box
// 1% of all time is lost to stalls the host imposes, and an open loop charges
// a stall to every request it delays, so 1-2% of the requests carry one: the
// 99th percentile sits on the edge between the program's tail and the
// host's, and ten runs of the same code spread 9-56% in it whatever the
// windows and the estimator. The 90th percentile is clear of the stalls; the
// tail stays bounded through slo_ok_ratio, a count, and client.p99_us is
// printed with the per-layer metrics, unbounded.
//
// Every timing carries the contract's widest bound (the issue hoped for
// 0.10). Ten runs on a quiet box repeat to 1-10%, but now and then a
// neighbour slows the box by 10-50% for a minute or more, which nothing
// inside a 20-second run can see through; a bound below that would reject
// the benchmark's own reruns. A claim of a gain still has to clear the
// guide's ten-pair rule.
var endToEndDefs = []metricDef{
	{"rps", "1/s", "higher", 0.25},
	{"p50_us", "us", "lower", 0.25},
	{"p90_us", "us", "lower", 0.25},
	{"slo_ok_ratio", "ratio", "higher", 0.05},
	{"ok_ratio", "ratio", "higher", 0.001},
	{"cpu_us_per_req", "us", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// Per-layer metrics, one block per module. "iso" rows are single-client
// closed loops against one layer alone and do not depend on the workload.
var perLayerDefs = []metricDef{
	// client: the generator itself. A move here means the benchmark
	// changed, not the program.
	{Name: "client.floor_us", Unit: "us", Better: "lower"},
	{Name: "client.sched_wait_us", Unit: "us", Better: "lower"},
	{Name: "client.late_ratio", Unit: "ratio", Better: "lower"},
	{Name: "client.fail_ratio", Unit: "ratio", Better: "lower"},
	{Name: "client.p99_us", Unit: "us", Better: "lower"},

	{Name: "cluster.handle_us.p50", Unit: "us", Better: "lower"},
	{Name: "cluster.handle_us.p99", Unit: "us", Better: "lower"},
	{Name: "cluster.self_us.p50", Unit: "us", Better: "lower"},
	{Name: "cluster.self_us.p99", Unit: "us", Better: "lower"},
	{Name: "cluster.relay_floor_us.64", Unit: "us", Better: "lower"},
	{Name: "cluster.relay_floor_us.65536", Unit: "us", Better: "lower"},
	{Name: "cluster.allocs_per_req", Unit: "count", Better: "lower"},
	{Name: "cluster.retries", Unit: "count", Better: "lower"},
	{Name: "cluster.rejected", Unit: "count", Better: "lower"},
	{Name: "cluster.replaced", Unit: "count", Better: "lower"},
	{Name: "cluster.hedges_issued", Unit: "count", Better: "lower"},
	{Name: "cluster.placement_imbalance", Unit: "ratio", Better: "lower"},

	{Name: "gateway.serve_us.p50", Unit: "us", Better: "lower"},
	{Name: "gateway.serve_us.p99", Unit: "us", Better: "lower"},
	{Name: "gateway.serve_self_us.p50", Unit: "us", Better: "lower"},
	{Name: "gateway.keyed_share", Unit: "ratio", Better: "lower"},
	{Name: "gateway.edge_keyless_us.64", Unit: "us", Better: "lower"},
	{Name: "gateway.edge_keyless_allocs_per_req.64", Unit: "count", Better: "lower"},
	{Name: "gateway.edge_keyless_us.65536", Unit: "us", Better: "lower"},
	{Name: "gateway.edge_keyless_allocs_per_req.65536", Unit: "count", Better: "lower"},
	{Name: "gateway.edge_keyed_us.64", Unit: "us", Better: "lower"},
	{Name: "gateway.edge_keyed_allocs_per_req.64", Unit: "count", Better: "lower"},
	{Name: "gateway.http_us.64", Unit: "us", Better: "lower"},
	{Name: "gateway.http_allocs_per_req.64", Unit: "count", Better: "lower"},
	{Name: "gateway.dedup_us", Unit: "us", Better: "lower"},
	{Name: "gateway.dedup_hits", Unit: "count", Better: "lower"},
	{Name: "gateway.dedup_evictions", Unit: "count", Better: "lower"},

	{Name: "admission.admit_ns", Unit: "ns", Better: "lower"},
	{Name: "admission.rejected", Unit: "count", Better: "lower"},
	{Name: "admission.limit_min", Unit: "count", Better: "higher"},

	{Name: "breaker.allow_ns", Unit: "ns", Better: "lower"},
	{Name: "breaker.trips", Unit: "count", Better: "lower"},
	{Name: "breaker.short_circuits", Unit: "count", Better: "lower"},

	{Name: "pool.invoke_us", Unit: "us", Better: "lower"},
	{Name: "pool.chain_us", Unit: "us", Better: "lower"},
	{Name: "pool.fanout_us", Unit: "us", Better: "lower"},
	{Name: "pool.allocs_per_invoke", Unit: "count", Better: "lower"},
	{Name: "pool.stage.queue_us.p50", Unit: "us", Better: "lower"},
	{Name: "pool.stage.queue_us.p99", Unit: "us", Better: "lower"},
	{Name: "pool.stage.init_us.p50", Unit: "us", Better: "lower"},
	{Name: "pool.stage.exec_us.p50", Unit: "us", Better: "lower"},
	{Name: "pool.stage.wait_us.p50", Unit: "us", Better: "lower"},
	{Name: "pool.stage.teardown_us.p50", Unit: "us", Better: "lower"},
	{Name: "pool.queue_depth_max", Unit: "count", Better: "lower"},
	{Name: "pool.free_pds_min", Unit: "count", Better: "higher"},
	{Name: "pool.dispatched", Unit: "count", Better: "higher"},
	{Name: "pool.completed", Unit: "count", Better: "higher"},
	{Name: "pool.rejected", Unit: "count", Better: "lower"},
	{Name: "pool.shed", Unit: "count", Better: "lower"},
	{Name: "pool.expired", Unit: "count", Better: "lower"},
	{Name: "pool.orphaned", Unit: "count", Better: "lower"},

	{Name: "state.get_us.p50", Unit: "us", Better: "lower"},
	{Name: "state.get_us.p99", Unit: "us", Better: "lower"},
	{Name: "state.take_us.p50", Unit: "us", Better: "lower"},
	{Name: "state.take_us.p99", Unit: "us", Better: "lower"},
	{Name: "state.commit_us.p50", Unit: "us", Better: "lower"},
	{Name: "state.put_us.p50", Unit: "us", Better: "lower"},
	{Name: "state.ops_per_req", Unit: "count", Better: "lower"},
	{Name: "state.takes", Unit: "count", Better: "lower"},
	{Name: "state.take_conflict_ratio", Unit: "ratio", Better: "lower"},
	{Name: "state.fast_get_ratio", Unit: "ratio", Better: "higher"},
	{Name: "state.stale_get_ratio", Unit: "ratio", Better: "lower"},
	{Name: "state.promotions", Unit: "count", Better: "lower"},
	{Name: "state.demotions", Unit: "count", Better: "lower"},
	{Name: "state.capacity_refusals", Unit: "count", Better: "lower"},
	{Name: "state.degraded_refusals", Unit: "count", Better: "lower"},
	{Name: "state.get_ns", Unit: "ns", Better: "lower"},
	{Name: "state.get_global_ro_ns", Unit: "ns", Better: "lower"},
	{Name: "state.rmw_ns", Unit: "ns", Better: "lower"},
	{Name: "state.rmw_allocs", Unit: "count", Better: "lower"},

	{Name: "runtime.allocs_per_req", Unit: "count", Better: "lower"},
	{Name: "runtime.bytes_per_req", Unit: "B", Better: "lower"},
	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "runtime.gc_pause_us", Unit: "us", Better: "lower"},
	{Name: "runtime.rss_mb", Unit: "MB", Better: "lower"},
	{Name: "runtime.goroutines_max", Unit: "count", Better: "lower"},

	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "trace.reconcile_ratio", Unit: "ratio", Better: "higher"},
}

func unitOf(defs []metricDef, name string) string {
	for _, d := range defs {
		if d.Name == name {
			return d.Unit
		}
	}
	panic("benchmark: metric " + name + " is not in the tables in defs.go")
}

// manifest renders BENCHMARK.json from the tables.
func manifest() []byte {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	doc := struct {
		Command    []string    `json:"command"`
		Paths      []string    `json:"paths"`
		RunSeconds int         `json:"run_seconds"`
		Workloads  []wl        `json:"workloads"`
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEndDefs,
		PerLayer:   perLayerDefs,
	}
	for _, w := range workloadTable {
		doc.Workloads = append(doc.Workloads, wl{w.name, w.why})
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic(err)
	}
	return append(b, '\n')
}
