package main

import (
	"math"
	"sort"
)

// Every measured phase is cut into equal windows, and a timing is reported
// from the per-window values rather than from the phase as a whole, because
// what disturbs a run on a shared box comes in bursts: the host takes the
// core away for 0.1-4 ms about 25 times a second (measured with a bare spin
// loop: 1% of the time is lost that way when the box is quiet), and now and
// then a neighbour slows everything for seconds.
//
// The closed loop has 20 windows of about a third of a second, long enough
// for each to hold a whole collection cycle of the allocating workloads (in
// shorter windows their rps has two modes, with and without the collector,
// and a median between two modes jumps); its metrics are the median window.
//
// The open loop has 100 windows of about a tenth of a second, and its
// latencies are the first decile of the window values (see quiet).
const (
	closedWindows = 20
	openWindows   = 100
)

// percentile returns the q-quantile (0..1) of an ascending slice by
// nearest rank; 0 for an empty slice.
func percentile(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return float64(sorted[i])
}

// median of a copy of xs; 0 when empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) does (the "exclusive" method), which is
// what the driver applies to repeated runs; using it for the window
// spread keeps the two notions of spread comparable.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n < 2 {
		if n == 1 {
			return xs[0], xs[0]
		}
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3)
}

// spread is the distance between the quartiles as a share of the median
// (0 when the median is 0).
func spread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return math.Abs((q3 - q1) / m)
}

// value is one reported number (the median or first decile of the phase's
// windows, or a count over the whole phase), the windows themselves, and
// the number of samples behind them.
type value struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	Spread  float64   `json:"window_spread"`
	Windows []float64 `json:"windows,omitempty"`
	Samples int       `json:"samples,omitempty"`
}

// medianSpread estimates how far the reported value itself may be off:
// the window spread over the square root of the number of windows.
func (v value) medianSpread() float64 {
	if len(v.Windows) == 0 {
		return 0
	}
	return v.Spread / math.Sqrt(float64(len(v.Windows)))
}

func windowed(unit string, windows []float64, samples int) value {
	return value{Value: median(windows), Unit: unit, Spread: spread(windows), Windows: windows, Samples: samples}
}

// quiet is the first decile of the window values (the tenth-lowest of a
// hundred): the value of the quietest windows. What a shared box does to a
// latency only ever adds to it, so the low end of the window values is the
// program and the rest is the program plus the box — as with the minimum of
// repeated timings, but a decile, because a single lowest window is a lucky
// draw of arrivals. Two batches of ten runs per workload, one of them in a
// busy spell of the box, repeated to 0.7-9% (p50) and 1.7-15% (p90) by the
// first decile, 0.7-13% and 2-21% by the first quartile, 0.6-14% and 2.5-32%
// by the median window. The price: it is blind to whatever leaves a tenth
// of the windows alone — the collector's cycles on the social workloads
// included, whose cost shows in slo_ok_ratio, rps and cpu_us_per_req.
func quiet(unit string, windows []float64, samples int) value {
	s := append([]float64(nil), windows...)
	sort.Float64s(s)
	v := 0.0
	if len(s) > 0 {
		v = s[max(0, (len(s)+9)/10-1)]
	}
	return value{Value: v, Unit: unit, Spread: spread(windows), Windows: windows, Samples: samples}
}

// whole is a value counted over a whole phase; the windows only say how
// evenly it was spread.
func whole(unit string, v float64, windows []float64, samples int) value {
	return value{Value: v, Unit: unit, Spread: spread(windows), Windows: windows, Samples: samples}
}

func single(unit string, v float64) value { return value{Value: v, Unit: unit} }
