package experiments

import "testing"

func TestSampledPointTightensWithTrials(t *testing.T) {
	t.Parallel()
	p, err := RunSampledPoint(Jord, "hotel", 2e6, tiny, 5, 100)
	if err != nil {
		t.Fatal(err)
	}
	if p.P99NS.N != 5 || p.TputMRPS.N != 5 {
		t.Fatalf("trials recorded: %d/%d", p.P99NS.N, p.TputMRPS.N)
	}
	if p.P99NS.Mean <= 0 || p.TputMRPS.Mean <= 0 {
		t.Fatal("zero means")
	}
	// Distinct seeds give distinct (but close) results: a nonzero CI far
	// smaller than the mean.
	if p.P99NS.StdDev == 0 {
		t.Fatal("identical trials across seeds: sampling is broken")
	}
	if p.P99NS.RelCI() > 0.5 {
		t.Fatalf("p99 CI %.0f%% of mean: trials too noisy", p.P99NS.RelCI()*100)
	}
	if p.Render() == "" {
		t.Fatal("empty render")
	}
	checkGolden(t, "sampled-hotel", p.Render())
}
