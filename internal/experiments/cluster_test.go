package experiments

import "testing"

func TestClusterScalingShape(t *testing.T) {
	t.Parallel()
	r, err := RunCluster(tiny, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 4 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	byLabel := map[string]ClusterRow{}
	for _, row := range r.Rows {
		byLabel[row.Label] = row
	}
	one, two, four := byLabel["1"], byLabel["2"], byLabel["4"]
	// One server saturates below the offered load; two absorb it.
	if one.MeasuredMRPS >= one.OfferedMRPS*0.9 {
		t.Errorf("1 server measured %.1f M at %.1f M offered: should saturate", one.MeasuredMRPS, one.OfferedMRPS)
	}
	if two.MeasuredMRPS < one.MeasuredMRPS*1.2 {
		t.Errorf("2 servers (%.1f M) should clearly beat 1 (%.1f M)", two.MeasuredMRPS, one.MeasuredMRPS)
	}
	if four.P99NS > two.P99NS*2 {
		t.Errorf("4 servers p99 %.1f us should not exceed 2 servers' %.1f us by 2x",
			four.P99NS/1000, two.P99NS/1000)
	}
	// The skewed front-end triggers §3.3 forwarding and still beats a
	// single server.
	skewed := byLabel["2-skewed"]
	if skewed.Forwarded == 0 {
		t.Error("skewed cluster forwarded nothing")
	}
	// External requests stay pinned to the hot server (only internals are
	// forwarded, per §3.3), so the skewed cluster sits between one
	// balanced server and two.
	if skewed.MeasuredMRPS < one.MeasuredMRPS*0.7 {
		t.Errorf("skewed 2-server (%.1f M) collapsed below a single server (%.1f M)",
			skewed.MeasuredMRPS, one.MeasuredMRPS)
	}
	checkGolden(t, "cluster", r.Render())
}
