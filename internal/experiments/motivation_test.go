package experiments

import "testing"

func TestMotivationGapIsOrdersOfMagnitude(t *testing.T) {
	r, err := RunMotivation()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 4 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		// The §2.2 claim: the OS path is orders of magnitude slower; Jord's
		// ops stay in the tens of nanoseconds.
		if row.JordNS > 30 {
			t.Errorf("%s: Jord = %.0f ns, want <= 30", row.Operation, row.JordNS)
		}
		if row.Ratio < 10 {
			t.Errorf("%s: OS/Jord ratio = %.0fx, want >= 10x", row.Operation, row.Ratio)
		}
	}
	// Permission changes carry the TLB shootdown and are the worst case.
	var protRatio, allocRatio float64
	for _, row := range r.Rows {
		switch row.Operation {
		case "change permission":
			protRatio = row.Ratio
		case "allocate 4 KB":
			allocRatio = row.Ratio
		}
	}
	if protRatio <= allocRatio {
		t.Errorf("mprotect ratio (%.0fx) should exceed mmap ratio (%.0fx): shootdowns dominate",
			protRatio, allocRatio)
	}
	// Zero-copy handoff vs one pipe hop: at least two orders of magnitude.
	if r.PipeHopNS < 100*r.PmoveNS {
		t.Errorf("pipe hop %.0f ns vs pmove %.0f ns: want >= 100x", r.PipeHopNS, r.PmoveNS)
	}
	checkGolden(t, "motivation", r.Render())
}

func TestColdStartLadder(t *testing.T) {
	r, err := RunColdStart()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 5 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	// The measured rungs are each at least an order of magnitude apart:
	// Jord PD << warm worker << worker prep << sandbox boot (the last two
	// literature rows are the same order of magnitude as each other).
	for i := 1; i < 4; i++ {
		if r.Rows[i].ReadyNS < 10*r.Rows[i-1].ReadyNS {
			t.Errorf("%s (%.0f ns) not >> %s (%.0f ns)",
				r.Rows[i].Mechanism, r.Rows[i].ReadyNS,
				r.Rows[i-1].Mechanism, r.Rows[i-1].ReadyNS)
		}
	}
	if r.Rows[4].ReadyNS < r.Rows[3].ReadyNS {
		t.Error("ladder not monotone")
	}
	// Jord's PD setup is nanosecond-scale (the paper's isolation budget).
	if r.Rows[0].ReadyNS > 200 {
		t.Errorf("Jord PD init = %.0f ns, want well under 200", r.Rows[0].ReadyNS)
	}
	if r.Render() == "" {
		t.Error("empty render")
	}
	checkGolden(t, "coldstart", r.Render())
}
