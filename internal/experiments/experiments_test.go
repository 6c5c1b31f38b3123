package experiments

import (
	"strings"
	"testing"
)

// tiny keeps test sweeps fast; shape assertions stay loose accordingly.
// The sweep tests run in parallel: each builds its own systems, and the
// package holds no mutable state.
var tiny = Scale{Name: "tiny", Warmup: 100, Measure: 800, MaxPoints: 4}

func TestTable4MatchesPaper(t *testing.T) {
	r, err := RunTable4()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 7 {
		t.Fatalf("rows = %d, want 7", len(r.Rows))
	}
	for _, row := range r.Rows {
		simErr := row.SimNS - row.PaperSimNS
		fpgaErr := row.FPGANS - row.PaperFPGANS
		if simErr > 2 || simErr < -2 {
			t.Errorf("%s: simulator %.1f ns vs paper %.0f ns", row.Operation, row.SimNS, row.PaperSimNS)
		}
		if fpgaErr > 3 || fpgaErr < -3 {
			t.Errorf("%s: FPGA %.1f ns vs paper %.0f ns", row.Operation, row.FPGANS, row.PaperFPGANS)
		}
		// §6.2: all PD and VMA operations complete within 30 ns on the
		// simulator.
		if row.SimNS > 30 {
			t.Errorf("%s: %.1f ns exceeds the 30 ns budget", row.Operation, row.SimNS)
		}
	}
	if !strings.Contains(r.Render(), "VMA lookup") {
		t.Error("render missing rows")
	}
	checkGolden(t, "table4", r.Render())
}

func TestFig9HipsterShape(t *testing.T) {
	t.Parallel()
	r, err := RunFig9(tiny, "hipster", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Panels) != 1 {
		t.Fatalf("panels = %d", len(r.Panels))
	}
	p := r.Panels[0]
	if p.SLONS <= 0 {
		t.Fatal("no SLO computed")
	}
	var ni, jord, nc float64
	for _, s := range p.Series {
		switch s.System {
		case JordNI:
			ni = s.TputUnderSLO
		case Jord:
			jord = s.TputUnderSLO
		case NightCore:
			nc = s.TputUnderSLO
		}
	}
	// Headline claims: Jord within ~tens of percent of JordNI; NightCore
	// fails the SLO even at minimum load on Hipster; Jord > 2x NightCore.
	if jord <= 0 || ni <= 0 {
		t.Fatalf("jord=%.2f ni=%.2f, want positive", jord/1e6, ni/1e6)
	}
	if jord > ni*1.05 {
		t.Errorf("Jord (%.2f) should not beat the no-isolation bound (%.2f)", jord/1e6, ni/1e6)
	}
	if jord < ni*0.5 {
		t.Errorf("Jord (%.2f) too far below JordNI (%.2f); paper gap is ~16%%", jord/1e6, ni/1e6)
	}
	if nc != 0 {
		t.Errorf("NightCore meets the Hipster SLO (%.2f MRPS); the paper says it cannot", nc/1e6)
	}
	if !strings.Contains(r.Render(), "hipster") {
		t.Error("render missing panel")
	}
	checkGolden(t, "fig9-hipster", r.Render())
}

func TestFig10Shape(t *testing.T) {
	t.Parallel()
	r, err := RunFig10(tiny, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Workloads) != 4 {
		t.Fatalf("workloads = %d", len(r.Workloads))
	}
	byName := map[string]Fig10Workload{}
	for _, wl := range r.Workloads {
		byName[wl.Workload] = wl
	}
	// Fig 10: ~75% of service times below ~5 us.
	for _, name := range []string{"hipster", "hotel", "media"} {
		if p75 := byName[name].P75NS; p75 > 5000 {
			t.Errorf("%s p75 = %d ns, want < 5 us", name, p75)
		}
	}
	// Social's tail reaches ~75 us.
	soc := byName["social"]
	if soc.MaxNS < 50_000 || soc.MaxNS > 110_000 {
		t.Errorf("social max = %d ns, want ~75 us", soc.MaxNS)
	}
	// Media has the second-longest tail (long-tailed, per the paper).
	if byName["media"].P99NS <= byName["hipster"].P99NS {
		t.Error("media should have a longer tail than hipster")
	}
	checkGolden(t, "fig10", r.Render())
}

func TestFig11Shape(t *testing.T) {
	t.Parallel()
	r, err := RunFig11(tiny, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Bars) != 16 { // 8 functions x 2 systems
		t.Fatalf("bars = %d, want 16", len(r.Bars))
	}
	jordBars := map[string]Fig11Bar{}
	ncBars := map[string]Fig11Bar{}
	for _, b := range r.Bars {
		if b.System == Jord {
			jordBars[b.Function] = b
		} else {
			ncBars[b.Function] = b
		}
	}
	for fn, jb := range jordBars {
		nb := ncBars[fn]
		// Jord: pipe bucket empty; NightCore: isolation bucket empty.
		if jb.PipeNS != 0 || nb.IsolNS != 0 {
			t.Errorf("%s: bucket mixing: jordPipe=%.0f ncIsol=%.0f", fn, jb.PipeNS, nb.IsolNS)
		}
		// §6.1: Jord averages ~48%+ less service time than NightCore.
		if jb.ServiceNS >= nb.ServiceNS {
			t.Errorf("%s: Jord service %.0f >= NightCore %.0f", fn, jb.ServiceNS, nb.ServiceNS)
		}
		// NightCore's overhead exceeds execution time in most cases; check
		// the communication-heavy ones explicitly.
		switch fn {
		case "GC", "PO", "UU", "F":
			if nb.PipeNS < nb.ExecNS {
				t.Errorf("%s: NightCore pipe %.0f < exec %.0f", fn, nb.PipeNS, nb.ExecNS)
			}
		}
	}
	// RP: NightCore overhead reaches several times the execution time.
	rp := ncBars["RP"]
	if rp.PipeNS < 2*rp.ExecNS {
		t.Errorf("RP: NightCore pipe %.0f should be multiples of exec %.0f", rp.PipeNS, rp.ExecNS)
	}
	checkGolden(t, "fig11", r.Render())
}

func TestFig12Shape(t *testing.T) {
	t.Parallel()
	r, err := RunFig12(tiny, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Panels) != 2 {
		t.Fatalf("panels = %d, want 2", len(r.Panels))
	}
	for _, panel := range r.Panels {
		for _, s := range panel.Series {
			if s.TputUnderSLO <= 0 {
				t.Errorf("%s %s, %d entries: no throughput under SLO", panel.Workload, panel.VLBKind, s.Entries)
			}
		}
	}
	// §6.2: Hipster's many small functions thrash a 1-entry I-VLB; 16
	// entries hold its working set.
	hip := r.Panels[0]
	if hip.Workload != "hipster" || hip.VLBKind != "I-VLB" {
		t.Fatalf("first panel = %s %s, want hipster I-VLB", hip.Workload, hip.VLBKind)
	}
	one, sixteen := hip.Series[0], hip.Series[len(hip.Series)-1]
	if one.Entries != 1 || sixteen.Entries != 16 {
		t.Fatalf("I-VLB sizes %d..%d, want 1..16", one.Entries, sixteen.Entries)
	}
	if one.TputUnderSLO >= sixteen.TputUnderSLO {
		t.Errorf("1 I-VLB entry (%.2f MRPS) should trail 16 (%.2f MRPS)",
			one.TputUnderSLO/1e6, sixteen.TputUnderSLO/1e6)
	}
	checkGolden(t, "fig12", r.Render())
}

func TestFig13Shape(t *testing.T) {
	t.Parallel()
	r, err := RunFig13(tiny, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, panel := range r.Panels {
		if len(panel.Series) != 2 {
			t.Fatalf("%s: series = %d", panel.Workload, len(panel.Series))
		}
		jord := panel.Series[0].TputUnderSLO
		bt := panel.Series[1].TputUnderSLO
		if bt >= jord {
			t.Errorf("%s: JordBT (%.2f) should trail Jord (%.2f)", panel.Workload, bt/1e6, jord/1e6)
		}
		// Paper: ~60% on Hotel (the workload its text names); Hipster's
		// shorter functions amplify the VMA-management penalty, so only
		// Hotel gets the tight band.
		if panel.Workload == "hotel" && jord > 0 && (bt/jord < 0.35 || bt/jord > 0.85) {
			t.Errorf("%s: JordBT/Jord = %.0f%%, want roughly 40-80%%", panel.Workload, bt/jord*100)
		}
	}
	checkGolden(t, "fig13", r.Render())
}

func TestFig14Shape(t *testing.T) {
	t.Parallel()
	r, err := RunFig14(tiny, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(r.Rows))
	}
	// Dispatch latency grows with scale and explodes cross-socket (§6.3).
	for i := 1; i < len(r.Rows); i++ {
		if r.Rows[i].DispatchNS <= r.Rows[i-1].DispatchNS {
			t.Errorf("dispatch not increasing at %s", r.Rows[i].Scale)
		}
	}
	last := r.Rows[len(r.Rows)-1]
	if last.Scale != "2-socket" {
		t.Fatalf("last row = %s", last.Scale)
	}
	// Paper: ~12 us dispatch on the dual-socket system.
	if last.DispatchNS < 3000 || last.DispatchNS > 25_000 {
		t.Errorf("2-socket dispatch = %.1f us, want order ~10 us", last.DispatchNS/1000)
	}
	// Shootdown latency grows sublinearly: 256-core shootdown is far less
	// than 16x the 16-core one.
	if r.Rows[3].ShootdownNS >= 8*r.Rows[0].ShootdownNS {
		t.Errorf("shootdown growth not sublinear: %.1f -> %.1f ns",
			r.Rows[0].ShootdownNS, r.Rows[3].ShootdownNS)
	}
	// The per-socket mitigation keeps dispatch flat.
	if last.DispatchPerSocketNS > last.DispatchNS/10 {
		t.Errorf("per-socket dispatch %.0f ns should be a small fraction of %.0f ns",
			last.DispatchPerSocketNS, last.DispatchNS)
	}
	// Service time grows modestly (not with dispatch's slope).
	if last.ServiceNS > 4*r.Rows[0].ServiceNS {
		t.Errorf("service grew too fast: %.0f -> %.0f ns", r.Rows[0].ServiceNS, last.ServiceNS)
	}
	checkGolden(t, "fig14", r.Render())
}

func TestOverheadsShape(t *testing.T) {
	t.Parallel()
	r, err := RunOverheads(tiny, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 4 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	frac := map[string]float64{}
	for _, row := range r.Rows {
		frac[row.Workload] = row.OverheadFraction
		if row.IsolationPerInvocationNS <= 0 || row.IsolationPerInvocationNS > 600 {
			t.Errorf("%s isolation/invocation = %.0f ns", row.Workload, row.IsolationPerInvocationNS)
		}
	}
	// §6.2 ordering: Media has by far the largest overhead share (nested
	// calls), Social the smallest (compute-dominated).
	if frac["media"] <= frac["hotel"] || frac["media"] <= frac["social"] {
		t.Errorf("media overhead share should dominate: %+v", frac)
	}
	if frac["social"] >= frac["hipster"] {
		t.Errorf("social should have the smallest overhead share: %+v", frac)
	}
	checkGolden(t, "overheads", r.Render())
}

func TestDownsample(t *testing.T) {
	grid := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	out := downsample(grid, 4)
	if len(out) != 4 || out[0] != 1 || out[3] != 10 {
		t.Fatalf("downsample = %v", out)
	}
	if got := downsample(grid, 20); len(got) != len(grid) {
		t.Fatal("downsample should not upsample")
	}
	if got := downsample(grid, 0); len(got) != len(grid) {
		t.Fatal("downsample(0) should be identity")
	}
}

func TestExperimentTable(t *testing.T) {
	seen := map[string]bool{"all": true} // jordsim reserves "all"
	for _, e := range All {
		if e.Name == "" || seen[e.Name] {
			t.Errorf("experiment name %q is empty or taken", e.Name)
		}
		seen[e.Name] = true
	}
	r, err := All[0].Run(tiny, "", 1)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(r.Render(), "Table 2:") || !strings.Contains(r.Render(), "32 (") {
		t.Errorf("params render:\n%s", r.Render())
	}
}
