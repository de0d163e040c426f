package experiments

import (
	"strings"
	"testing"
)

// quick caps a run for smoke tests.
var quickOpt = Options{MaxInstructions: 200_000}

func TestRegistryComplete(t *testing.T) {
	ids := map[string]bool{}
	for _, e := range Registry() {
		if e.ID == "" || e.Title == "" || e.Run == nil {
			t.Fatalf("malformed experiment %+v", e)
		}
		if (e.Screening == nil) != (e.Compare == nil) {
			t.Errorf("%s: screening and its comparison must be served together", e.ID)
		}
		if ids[e.ID] {
			t.Fatalf("duplicate id %q", e.ID)
		}
		ids[e.ID] = true
	}
	for _, want := range []string{"table1", "fig2", "fig3", "fig4", "fig5", "fig6", "table2",
		"fig7", "fig8", "fig9", "fig10", "sec5", "fetchsize", "ablate-wb", "ablate-coloring", "ablate-tlb", "summary", "perbench", "cost"} {
		if !ids[want] {
			t.Errorf("missing experiment %q", want)
		}
	}
}

func TestByID(t *testing.T) {
	e, err := ByID("fig4")
	if err != nil || e.ID != "fig4" {
		t.Fatalf("ByID(fig4) = %+v, %v", e, err)
	}
	if _, err := ByID("fig99"); err == nil {
		t.Fatal("ByID accepted unknown id")
	}
}

func TestOptionsNormalized(t *testing.T) {
	o := Options{}.normalized()
	if o.Scale != 1 || o.Level != 8 || o.TimeSlice != 500_000 {
		t.Fatalf("defaults wrong: %+v", o)
	}
	o = Options{Scale: 2, Level: 4, TimeSlice: 7}.normalized()
	if o.Scale != 2 || o.Level != 4 || o.TimeSlice != 7 {
		t.Fatalf("explicit options clobbered: %+v", o)
	}
}

func TestTable1Formats(t *testing.T) {
	s := Table1(Options{})
	for _, want := range []string{"Benchmark", "sieve", "total"} {
		if !strings.Contains(s, want) {
			t.Errorf("Table1 output missing %q", want)
		}
	}
}

func TestFig4StackConsistent(t *testing.T) {
	r := Fig4(quickOpt)
	sum := r.BaseCPI
	for _, layer := range r.Stack {
		if layer.CPI < 0 {
			t.Errorf("negative CPI layer %v", layer)
		}
		sum += layer.CPI
	}
	if diff := sum - r.Total; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("stack sums to %.6f, total is %.6f", sum, r.Total)
	}
	if !strings.Contains(FormatFig4(r), "total CPI") {
		t.Error("FormatFig4 malformed")
	}
}

func TestFig2Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-config sweep")
	}
	// Run uncapped: a cap samples different benchmark mixes at
	// different levels, which would confound the flatness check.
	rows := Fig2(Options{})
	if len(rows) != 5 {
		t.Fatalf("fig2 has %d rows", len(rows))
	}
	first, last := rows[0], rows[len(rows)-1]
	// The paper: L1 ratios barely move with level; the L2 miss ratio
	// grows substantially.
	if last.L2Miss <= first.L2Miss {
		t.Errorf("L2 miss ratio did not grow with level: %.4f -> %.4f", first.L2Miss, last.L2Miss)
	}
	if rel := (last.L1IMiss - first.L1IMiss) / (first.L1IMiss + 1e-12); rel > 0.5 || rel < -0.5 {
		t.Errorf("L1-I ratio moved %.0f%% with level; should be nearly flat", rel*100)
	}
	if !strings.Contains(FormatFig2(rows), "Level") {
		t.Error("FormatFig2 malformed")
	}
}

func TestFig3Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-config sweep")
	}
	rows := Fig3(Options{MaxInstructions: 3_000_000})
	if len(rows) != 7 {
		t.Fatalf("fig3 has %d rows", len(rows))
	}
	// Longer slices help (the paper's central Fig. 3 claim).
	if rows[len(rows)-1].CPI >= rows[0].CPI {
		t.Errorf("CPI did not improve with slice length: %.3f -> %.3f",
			rows[0].CPI, rows[len(rows)-1].CPI)
	}
	if !strings.Contains(FormatFig3(rows), "Slice") {
		t.Error("FormatFig3 malformed")
	}
}

func TestFig5CalibratedShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("20-config sweep")
	}
	rows := Fig5Calibrated(Options{})
	at := func(p int, t_ int) float64 {
		for _, r := range rows {
			if int(r.Policy) == p && r.AccessTime == t_ {
				return r.CPI
			}
		}
		return -1
	}
	const wb, wmi, wo, sb = 0, 1, 2, 3
	// Write-through wins at short access times.
	if at(wo, 2) >= at(wb, 2) {
		t.Errorf("write-only (%.3f) did not beat write-back (%.3f) at T=2", at(wo, 2), at(wb, 2))
	}
	// The crossover exists in the swept range (paper: at 8 cycles).
	cross := Fig5Crossover(rows)
	if cross < 6 || cross > 10 {
		t.Errorf("write-back crossover at %d, want in [6,10]", cross)
	}
	// Write-only tracks subblock placement and never loses to
	// write-miss-invalidate.
	for _, tt := range Fig5AccessTimes {
		if at(wo, tt) > at(wmi, tt)+1e-6 {
			t.Errorf("write-only worse than WMI at T=%d: %.4f vs %.4f", tt, at(wo, tt), at(wmi, tt))
		}
		if gap := at(wo, tt) - at(sb, tt); gap > 0.02 {
			t.Errorf("write-only trails subblock by %.4f CPI at T=%d", gap, tt)
		}
	}
	if !strings.Contains(FormatFig5(rows), "write-only") {
		t.Error("FormatFig5 malformed")
	}
}

func TestFig5KernelSuiteOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("20-config sweep")
	}
	rows := Fig5(Options{MaxInstructions: 2_000_000})
	// Even on the harsher suite, write-only must beat
	// write-miss-invalidate (its subsequent writes hit).
	byKey := map[[2]int]float64{}
	for _, r := range rows {
		byKey[[2]int{int(r.Policy), r.AccessTime}] = r.CPI
	}
	for _, tt := range Fig5AccessTimes {
		wo := byKey[[2]int{2, tt}]
		wmi := byKey[[2]int{1, tt}]
		if wo > wmi+1e-6 {
			t.Errorf("write-only (%.4f) worse than WMI (%.4f) at T=%d", wo, wmi, tt)
		}
	}
}

func TestFig6CalibratedSplitWins(t *testing.T) {
	if testing.Short() {
		t.Skip("28-config sweep")
	}
	rows := Fig6Calibrated(Options{})
	u1 := L2Org{Split: false, Ways: 1}
	s1 := L2Org{Split: true, Ways: 1}
	// The paper: splitting improves direct-mapped caches of 64 KW and
	// larger.
	for _, size := range []int{64 * 1024, 128 * 1024, 256 * 1024} {
		u, _ := Fig6At(rows, size, u1)
		s, ok := Fig6At(rows, size, s1)
		if !ok {
			t.Fatalf("missing row for %d", size)
		}
		if s.CPI >= u.CPI {
			t.Errorf("split 1-way (%.3f) did not beat unified 1-way (%.3f) at %s",
				s.CPI, u.CPI, kwLabel(size))
		}
	}
	// Miss ratios fall with size for every organization (Table 2).
	for _, org := range Fig6Orgs {
		small, _ := Fig6At(rows, Fig6Sizes[0], org)
		big, _ := Fig6At(rows, Fig6Sizes[len(Fig6Sizes)-1], org)
		if big.MissRatio >= small.MissRatio {
			t.Errorf("%v: miss ratio did not fall with size: %.4f -> %.4f",
				org, small.MissRatio, big.MissRatio)
		}
	}
	if !strings.Contains(FormatFig6(rows), "unified 1-way") {
		t.Error("FormatFig6 malformed")
	}
	if !strings.Contains(FormatTable2(rows), "L2 miss") {
		t.Error("FormatTable2 malformed")
	}
}

func TestFig78Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("70-config sweep")
	}
	opt := Options{MaxInstructions: 1_500_000}
	i := Fig7(opt)
	d := Fig8(opt)
	// Slower access always costs CPI at a fixed size.
	for _, size := range SpeedSizeSizes {
		fast, _ := SpeedSizeAt(i, size, SpeedSizeTimes[0])
		slow, _ := SpeedSizeAt(i, size, SpeedSizeTimes[len(SpeedSizeTimes)-1])
		if slow.CPI < fast.CPI {
			t.Errorf("L2-I at %s: slower access cheaper (%.4f < %.4f)", kwLabel(size), slow.CPI, fast.CPI)
		}
	}
	// The data side dwarfs the instruction side (the asymmetry behind
	// the paper's 8x sizing conclusion).
	for _, tt := range SpeedSizeTimes {
		iMid, _ := SpeedSizeAt(i, 64*1024, tt)
		dMid, _ := SpeedSizeAt(d, 64*1024, tt)
		if dMid.CPI <= iMid.CPI {
			t.Errorf("L2-D contribution (%.4f) not above L2-I (%.4f) at T=%d", dMid.CPI, iMid.CPI, tt)
		}
	}
	// Capacity helps the data side all the way out to 512 KW.
	dSmall, _ := SpeedSizeAt(d, SpeedSizeSizes[0], 5)
	dBig, _ := SpeedSizeAt(d, SpeedSizeSizes[len(SpeedSizeSizes)-1], 5)
	if dBig.CPI >= dSmall.CPI {
		t.Errorf("L2-D CPI did not fall with size: %.4f -> %.4f", dSmall.CPI, dBig.CPI)
	}
	if !strings.Contains(FormatSpeedSize("L2-I", i), "access") {
		t.Error("FormatSpeedSize malformed")
	}
}

func TestFig9Stages(t *testing.T) {
	if testing.Short() {
		t.Skip("4-config sweep")
	}
	rows := Fig9(Options{})
	if len(rows) != 4 {
		t.Fatalf("fig9 has %d rows", len(rows))
	}
	if rows[1].CPI >= rows[0].CPI {
		t.Errorf("splitting did not help: %.3f -> %.3f", rows[0].CPI, rows[1].CPI)
	}
	if rows[2].CPI >= rows[1].CPI {
		t.Errorf("8W fetch did not help: %.3f -> %.3f", rows[1].CPI, rows[2].CPI)
	}
	// Exchanging the L2-I and L2-D shapes must hurt badly (paper: +21%).
	if rows[3].CPI <= rows[2].CPI {
		t.Errorf("exchanged shapes did not hurt: %.3f vs %.3f", rows[3].CPI, rows[2].CPI)
	}
	if !strings.Contains(FormatStages(rows), "delta") {
		t.Error("FormatStages malformed")
	}
}

func TestFig10CalibratedStages(t *testing.T) {
	if testing.Short() {
		t.Skip("5-config sweep")
	}
	rows := Fig10Calibrated(Options{})
	if len(rows) != 5 {
		t.Fatalf("fig10 has %d rows", len(rows))
	}
	base := rows[0].CPI
	for _, r := range rows[1:] {
		if r.CPI > base+1e-9 {
			t.Errorf("%s made things worse: %.4f vs base %.4f", r.Label, r.CPI, base)
		}
	}
	// The dirty-bit scheme must capture most of the associative
	// scheme's benefit (paper: 95%; we require at least half).
	assocGain := base - rows[2].CPI
	dirtyGain := base - rows[3].CPI
	if assocGain <= 0 {
		t.Fatalf("associative bypass gained nothing (%.4f)", assocGain)
	}
	if dirtyGain < assocGain/2 {
		t.Errorf("dirty-bit gain %.4f below half the associative gain %.4f", dirtyGain, assocGain)
	}
	// The L2 dirty buffer helps on top.
	if rows[4].CPI > rows[3].CPI+1e-9 {
		t.Errorf("L2 dirty buffer hurt: %.4f vs %.4f", rows[4].CPI, rows[3].CPI)
	}
}

func TestRegistrySmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	// Each registered experiment must run and produce a table at a
	// small cap. (This exercises the exact code paths cmd/sweep uses.)
	for _, e := range Registry() {
		if out := e.Run(quickOpt); len(out) < 40 {
			t.Errorf("%s: suspiciously short output %q", e.ID, out)
		}
	}
}
