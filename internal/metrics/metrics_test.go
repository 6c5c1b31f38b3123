package metrics

import (
	"math/rand/v2"
	"sort"
	"sync"
	"testing"
	"testing/quick"
)

func TestEmptyHistogram(t *testing.T) {
	var h Histogram
	if h.Count() != 0 || h.Mean() != 0 || h.Percentile(99) != 0 {
		t.Fatal("empty histogram should report zeros")
	}
	if h.CDF() != nil {
		t.Fatal("empty CDF should be nil")
	}
}

func TestExactSmallValues(t *testing.T) {
	var h Histogram
	for i := int64(0); i < 64; i++ {
		h.Record(i)
	}
	// Values below 2^6 are exact: rank ceil(0.5*64)=32 -> 32nd smallest = 31.
	if got := h.Percentile(50); got != 31 {
		t.Fatalf("p50 = %d, want 31", got)
	}
	if h.Min() != 0 || h.Max() != 63 {
		t.Fatalf("min/max = %d/%d", h.Min(), h.Max())
	}
}

func TestPercentileRelativeError(t *testing.T) {
	var h Histogram
	rng := rand.New(rand.NewPCG(7, 9))
	var samples []int64
	for i := 0; i < 50000; i++ {
		v := rng.Int64N(10_000_000) + 1
		samples = append(samples, v)
		h.Record(v)
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	for _, p := range []float64{50, 90, 99, 99.9} {
		idx := int(p/100*float64(len(samples))) - 1
		if idx < 0 {
			idx = 0
		}
		exact := float64(samples[idx])
		got := float64(h.Percentile(p))
		if rel := (got - exact) / exact; rel < -0.02 || rel > 0.04 {
			t.Errorf("p%.1f = %.0f, exact %.0f (rel err %.3f)", p, got, exact, rel)
		}
	}
}

func TestNegativeClamped(t *testing.T) {
	var h Histogram
	h.Record(-5)
	if h.Min() != 0 {
		t.Fatal("negative sample not clamped")
	}
}

func TestP100IsMax(t *testing.T) {
	var h Histogram
	h.Record(10)
	h.Record(99999)
	if h.Percentile(100) != 99999 {
		t.Fatalf("p100 = %d, want exact max", h.Percentile(100))
	}
}

func TestCDFMonotone(t *testing.T) {
	var h Histogram
	rng := rand.New(rand.NewPCG(1, 1))
	for i := 0; i < 10000; i++ {
		h.Record(rng.Int64N(1_000_000))
	}
	cdf := h.CDF()
	if len(cdf) == 0 {
		t.Fatal("empty CDF")
	}
	for i := 1; i < len(cdf); i++ {
		if cdf[i].Value <= cdf[i-1].Value || cdf[i].Fraction < cdf[i-1].Fraction {
			t.Fatal("CDF not monotone")
		}
	}
	if last := cdf[len(cdf)-1].Fraction; last != 1.0 {
		t.Fatalf("CDF ends at %f, want 1.0", last)
	}
}

func TestMerge(t *testing.T) {
	var a, b Histogram
	for i := 0; i < 100; i++ {
		a.Record(int64(i))
		b.Record(int64(i + 1000))
	}
	a.Merge(&b)
	if a.Count() != 200 {
		t.Fatalf("merged count = %d, want 200", a.Count())
	}
	if a.Min() != 0 || a.Max() != 1099 {
		t.Fatalf("merged min/max = %d/%d", a.Min(), a.Max())
	}
	var empty Histogram
	a.Merge(&empty) // no-op
	if a.Count() != 200 {
		t.Fatal("merging empty changed count")
	}
}

// Property: Percentile is monotone in p and bounded by [min, max].
func TestQuickPercentileMonotone(t *testing.T) {
	f := func(raw []uint32) bool {
		if len(raw) == 0 {
			return true
		}
		var h Histogram
		for _, v := range raw {
			h.Record(int64(v))
		}
		prev := int64(-1)
		for _, p := range []float64{0, 10, 50, 90, 99, 100} {
			v := h.Percentile(p)
			if v < prev || v < 0 || v > h.Max() {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: bucketIndex/bucketUpper are consistent: v <= bucketUpper(bucketIndex(v))
// and the bound is within ~1.6% of v.
func TestQuickBucketBounds(t *testing.T) {
	f := func(v uint64) bool {
		v %= 1 << 50
		u := bucketUpper(bucketIndex(v))
		if u < int64(v) {
			return false
		}
		return float64(u)-float64(v) <= float64(v)*0.017+1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestThroughputUnderSLO(t *testing.T) {
	pts := []LoadPoint{
		{LoadRPS: 1e6, P99NS: 10_000},
		{LoadRPS: 2e6, P99NS: 12_000},
		{LoadRPS: 3e6, P99NS: 20_000},
		{LoadRPS: 4e6, P99NS: 100_000},
	}
	// SLO 20us: exactly at the third point.
	if got := ThroughputUnderSLO(pts, 20_000); got != 3e6 {
		t.Fatalf("got %.0f, want 3e6", got)
	}
	// SLO 60us: midway between 3 and 4 MRPS (20k..100k crossing at 60k).
	got := ThroughputUnderSLO(pts, 60_000)
	if got < 3.4e6 || got > 3.6e6 {
		t.Fatalf("interpolated = %.2e, want 3.5e6", got)
	}
	// SLO below the lightest load: zero.
	if got := ThroughputUnderSLO(pts, 5000); got != 0 {
		t.Fatalf("got %.0f, want 0", got)
	}
	// SLO above everything: the heaviest load.
	if got := ThroughputUnderSLO(pts, 1e9); got != 4e6 {
		t.Fatalf("got %.0f, want 4e6", got)
	}
	// Empty sweep.
	if got := ThroughputUnderSLO(nil, 1000); got != 0 {
		t.Fatal("empty sweep should give 0")
	}
}

func TestThroughputUnderSLONonMonotone(t *testing.T) {
	// A noisy sweep that dips back under the SLO after failing must not
	// credit loads beyond the first crossing.
	pts := []LoadPoint{
		{LoadRPS: 1e6, P99NS: 10_000},
		{LoadRPS: 2e6, P99NS: 50_000},
		{LoadRPS: 3e6, P99NS: 15_000},
	}
	got := ThroughputUnderSLO(pts, 20_000)
	if got < 1e6 || got >= 2e6 {
		t.Fatalf("got %.2e, want crossing in [1e6, 2e6)", got)
	}
}

// TestConcurrentRecord hammers one histogram from 8 goroutines while a
// reader polls percentiles — the live serving path's access pattern
// (executors record, /statsz reads). Run under -race in CI.
func TestConcurrentRecord(t *testing.T) {
	var h Histogram
	const (
		goroutines = 8
		perG       = 20000
	)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // concurrent reader
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = h.Percentile(99)
				_ = h.Snapshot()
				_ = h.String()
			}
		}
	}()
	var other Histogram
	other.Record(5)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				h.Record(int64(g*perG + i))
				if i%4096 == 0 {
					// Concurrent merges must be safe too.
					var scratch Histogram
					scratch.Merge(&other)
				}
			}
		}(g)
	}
	// Wait for writers, then stop the reader.
	wgDone := make(chan struct{})
	go func() { wg.Wait(); close(wgDone) }()
	close(stop)
	<-wgDone

	if got := h.Count(); got != goroutines*perG {
		t.Fatalf("count = %d, want %d (lost updates)", got, goroutines*perG)
	}
	if h.Min() != 0 || h.Max() != goroutines*perG-1 {
		t.Fatalf("min/max = %d/%d", h.Min(), h.Max())
	}
}

// TestMergeSelfAndCross checks the snapshot-based Merge: self-merge is a
// no-op and cross-merges from multiple goroutines neither deadlock nor
// lose samples.
func TestMergeSelfAndCross(t *testing.T) {
	var a, b Histogram
	for i := int64(0); i < 100; i++ {
		a.Record(i)
		b.Record(i + 1000)
	}
	a.Merge(&a)
	if a.Count() != 100 {
		t.Fatalf("self-merge changed count: %d", a.Count())
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(2)
		go func() { defer wg.Done(); a.Merge(&b) }()
		go func() { defer wg.Done(); b.Merge(&a) }()
	}
	wg.Wait()
	if a.Count() == 0 || b.Count() == 0 {
		t.Fatal("merge lost everything")
	}
}
