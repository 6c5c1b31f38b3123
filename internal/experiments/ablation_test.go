package experiments

import "testing"

func TestDispatchAblationOrdering(t *testing.T) {
	t.Parallel()
	r, err := RunDispatchAblation(tiny, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 4 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	byName := map[string]DispatchRow{}
	for _, row := range r.Rows {
		byName[row.Policy.String()] = row
	}
	jbsq := byName["jbsq"].TputUnderSLO
	random := byName["random"].TputUnderSLO
	if jbsq <= 0 {
		t.Fatal("JBSQ achieved nothing")
	}
	// Queue-aware policies beat blind random placement under skewed
	// service times.
	if random >= jbsq {
		t.Errorf("random (%.2f) should trail JBSQ (%.2f)", random/1e6, jbsq/1e6)
	}
	if r.Render() == "" {
		t.Error("empty render")
	}
	checkGolden(t, "dispatch", r.Render())
}

func TestMPKComparisonReproducesSection22(t *testing.T) {
	t.Parallel()
	r, err := RunMPKComparison(tiny, 1)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]MPKRow{}
	for _, row := range r.Rows {
		byName[row.System] = row
	}
	if byName["Jord"].TputUnderSLO <= 0 {
		t.Fatal("Jord achieved nothing")
	}
	// Real MPK deadlocks under nested invocations: 15 keys, all held by
	// suspended parents.
	if !byName["MPK-15keys"].Deadlocked {
		t.Error("MPK with 15 keys should stall under nested calls")
	}
	// Even idealized MPK (unlimited keys) cannot meet the SLO: allocation
	// still costs OS microseconds.
	if got := byName["MPK-ideal"].TputUnderSLO; got > byName["Jord"].TputUnderSLO/10 {
		t.Errorf("idealized MPK = %.2f MRPS, expected far below Jord's %.2f",
			got/1e6, byName["Jord"].TputUnderSLO/1e6)
	}
	checkGolden(t, "mpk", r.Render())
}
