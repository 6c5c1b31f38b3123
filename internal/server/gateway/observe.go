package gateway

import (
	"bytes"
	"fmt"
	"net/http"
	"strconv"

	"jord/internal/metrics"
	"jord/internal/server/trace"
)

// The observability plane: GET /tracez (per-invocation stage traces),
// GET /flightz (flight-recorder incidents), GET /metrics (Prometheus text).
// All three run off the hot path and may allocate freely; the data they
// serve was collected allocation-free (see internal/server/trace).

// handleTracez serves the trace recorder's document. Query parameters:
// fn= filters the span lists to one function, n= bounds each list.
func (g *Gateway) handleTracez(w http.ResponseWriter, r *http.Request) {
	rec := g.Pool.Trace()
	if rec == nil {
		http.Error(w, "tracing disabled", http.StatusNotFound)
		return
	}
	q := r.URL.Query()
	limit := 0
	if v := q.Get("n"); v != "" {
		if n, err := strconv.Atoi(v); err == nil {
			limit = n
		}
	}
	WriteJSON(w, http.StatusOK, rec.Tracez(q.Get("fn"), limit))
}

// handleFlightz serves the flight recorder's frozen incidents, newest first.
func (g *Gateway) handleFlightz(w http.ResponseWriter, _ *http.Request) {
	rec := g.Pool.Trace()
	if rec == nil {
		http.Error(w, "tracing disabled", http.StatusNotFound)
		return
	}
	WriteJSON(w, http.StatusOK, rec.Flightz())
}

// handleMetrics serves /metrics in the Prometheus text format (0.0.4):
// the /statsz document rendered by the shared encoder, then the two
// distributions /statsz only summarises — per-function latency and
// per-stage durations. Hand-written, no client library: the daemon takes
// no dependencies.
func (g *Gateway) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	var b bytes.Buffer
	doc := g.snapshot(false)
	metrics.WriteFamilies(&b, metrics.Families("jord", doc))
	writeLatency(&b, doc.Funcs)
	if rec := g.Pool.Trace(); rec != nil {
		writeStageHists(&b, rec.StageHists())
	}
	w.Header().Set("Content-Type", metrics.TextContentType)
	_, _ = w.Write(b.Bytes())
}

// writeLatency writes each function's latency summary from its /statsz
// row: the quantiles, and the sum reconstructed from the mean.
func writeLatency(b *bytes.Buffer, funcs []FuncStatsz) {
	const name = "jord_funcs_latency_seconds"
	metrics.WriteHeader(b, name, "Invocation latency by function, arrival to completion.", "summary")
	for _, f := range funcs {
		l := `name="` + metrics.EscapeLabel(f.Name) + `"`
		for _, q := range [...]struct {
			q  string
			us float64
		}{{"0.5", f.P50Us}, {"0.99", f.P99Us}, {"0.999", f.P999Us}} {
			fmt.Fprintf(b, "%s{%s,quantile=\"%s\"} %s\n", name, l, q.q, metrics.FormatValue(q.us/1e6))
		}
		fmt.Fprintf(b, "%s_sum{%s} %s\n", name, l, metrics.FormatValue(f.MeanUs*float64(f.Count)/1e6))
		fmt.Fprintf(b, "%s_count{%s} %d\n", name, l, f.Count)
	}
}

// writeStageHists writes the trace plane's per-stage latency histograms:
// log2(ns) buckets, cumulative per the format, bounds in seconds.
func writeStageHists(b *bytes.Buffer, hists [trace.NumStages]trace.StageHist) {
	const name = "jord_stage_duration_seconds"
	metrics.WriteHeader(b, name, "Per-invocation stage durations from the trace plane.", "histogram")
	for i := range hists {
		h := &hists[i]
		if h.Count == 0 {
			continue
		}
		l := `stage="` + metrics.EscapeLabel(h.Stage) + `"`
		var cum uint64
		for k := 0; k < trace.NumStageBuckets; k++ {
			if h.Buckets[k] == 0 {
				continue // empty buckets add nothing; cumulative stays correct
			}
			cum += h.Buckets[k]
			le := metrics.FormatValue(float64(trace.StageBucketUpperNS(k)) / 1e9)
			fmt.Fprintf(b, "%s_bucket{%s,le=\"%s\"} %d\n", name, l, le, cum)
		}
		fmt.Fprintf(b, "%s_bucket{%s,le=\"+Inf\"} %d\n", name, l, h.Count)
		fmt.Fprintf(b, "%s_sum{%s} %s\n", name, l, metrics.FormatValue(float64(h.SumNS)/1e9))
		fmt.Fprintf(b, "%s_count{%s} %d\n", name, l, h.Count)
	}
}
