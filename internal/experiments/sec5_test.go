package experiments

import (
	"strings"
	"testing"
)

func TestSec5CycleModel(t *testing.T) {
	if got := l1CycleNS(4*1024, 1); got != 4.0 {
		t.Fatalf("base cycle = %g, want 4.0", got)
	}
	if l1CycleNS(8*1024, 1) <= l1CycleNS(4*1024, 1) {
		t.Fatal("bigger L1 must slow the cycle")
	}
	if l1CycleNS(4*1024, 2) < 1.8*l1CycleNS(4*1024, 1) {
		t.Fatal("associativity must almost double the cycle (the paper's claim)")
	}
}

func TestSec5BaseWinsOnTime(t *testing.T) {
	if testing.Short() {
		t.Skip("6-config sweep")
	}
	rows := Sec5L1Size(Options{MaxInstructions: 2_000_000})
	var base L1SizeRow
	for _, r := range rows {
		if r.SizeWords == 4*1024 && r.Ways == 1 {
			base = r
		}
	}
	if base.TPI != 1.0 {
		t.Fatalf("base TPI not normalized: %g", base.TPI)
	}
	for _, r := range rows {
		if r == base {
			continue
		}
		if r.TPI < base.TPI {
			t.Errorf("%s %d-way beats the base on time (%.3f < 1.0); Section 5 shape broken",
				kwLabel(r.SizeWords), r.Ways, r.TPI)
		}
	}
	// CPI alone, though, must favor the 2-way configurations — that is
	// the tension the section is about.
	var cpi4w1, cpi8w2 float64
	for _, r := range rows {
		if r.SizeWords == 4*1024 && r.Ways == 1 {
			cpi4w1 = r.CPI
		}
		if r.SizeWords == 8*1024 && r.Ways == 2 {
			cpi8w2 = r.CPI
		}
	}
	if cpi8w2 >= cpi4w1 {
		t.Errorf("8KW 2-way CPI (%.3f) not below base (%.3f); no tension to resolve", cpi8w2, cpi4w1)
	}
	if !strings.Contains(FormatSec5(rows), "base (page size)") {
		t.Error("FormatSec5 missing base marker")
	}
}

func TestFetchSizeCalibratedOptimum(t *testing.T) {
	if testing.Short() {
		t.Skip("9-config sweep")
	}
	rows := Sec8FetchSize(Options{}, PaperCalibrated)
	// At the 8 W instruction fetch, the paper's D-side result: 8 W
	// beats both 4 W and 16 W.
	d4, _ := FetchAt(rows, 8, 4)
	d8, _ := FetchAt(rows, 8, 8)
	d16, ok := FetchAt(rows, 8, 16)
	if !ok {
		t.Fatal("missing fetch rows")
	}
	if d8.CPI >= d4.CPI {
		t.Errorf("8W D-fetch (%.4f) not better than 4W (%.4f)", d8.CPI, d4.CPI)
	}
	if d8.CPI >= d16.CPI {
		t.Errorf("8W D-fetch (%.4f) not better than 16W (%.4f)", d8.CPI, d16.CPI)
	}
	if !strings.Contains(FormatFetch(rows), "D fetch") {
		t.Error("FormatFetch malformed")
	}
}

func TestAblationColoring(t *testing.T) {
	if testing.Short() {
		t.Skip("3-config sweep")
	}
	rows := AblationColoring(Options{MaxInstructions: 2_000_000})
	if len(rows) != 3 {
		t.Fatalf("coloring ablation has %d rows", len(rows))
	}
	staggered, strict := rows[0], rows[1]
	if staggered.CPI >= strict.CPI {
		t.Errorf("staggered coloring (%.3f) not better than strict (%.3f)", staggered.CPI, strict.CPI)
	}
	if !strings.Contains(FormatAblation(rows), "page coloring") {
		t.Error("FormatAblation malformed")
	}
}

func TestAblationWBDepth(t *testing.T) {
	if testing.Short() {
		t.Skip("6-config sweep")
	}
	rows := AblationWBDepth(Options{MaxInstructions: 2_000_000})
	if rows[0].CPI <= rows[len(rows)-1].CPI {
		t.Errorf("deeper write buffer did not help: %.3f -> %.3f",
			rows[0].CPI, rows[len(rows)-1].CPI)
	}
	// Diminishing returns: the first doubling helps at least as much as
	// the last.
	firstGain := rows[0].CPI - rows[1].CPI
	lastGain := rows[len(rows)-2].CPI - rows[len(rows)-1].CPI
	if firstGain < lastGain {
		t.Errorf("no diminishing returns: first gain %.4f < last gain %.4f", firstGain, lastGain)
	}
}

func TestAblationOverlapHelps(t *testing.T) {
	if testing.Short() {
		t.Skip("2-config sweep")
	}
	rows := AblationWBOverlap(Options{MaxInstructions: 2_000_000})
	if rows[0].CPI > rows[1].CPI {
		t.Errorf("latency overlap hurt: %.4f vs %.4f", rows[0].CPI, rows[1].CPI)
	}
}

func TestAblationTLBMonotone(t *testing.T) {
	if testing.Short() {
		t.Skip("4-config sweep")
	}
	rows := AblationTLBPenalty(Options{MaxInstructions: 2_000_000})
	for i := 1; i < len(rows); i++ {
		if rows[i].CPI < rows[i-1].CPI {
			t.Errorf("higher TLB penalty lowered CPI: %.4f -> %.4f", rows[i-1].CPI, rows[i].CPI)
		}
	}
}

func TestSummaryImproves(t *testing.T) {
	if testing.Short() {
		t.Skip("4-config sweep")
	}
	rows := Summary(Options{MaxInstructions: 2_000_000})
	if len(rows) != 2 {
		t.Fatalf("summary has %d rows", len(rows))
	}
	for _, r := range rows {
		if r.OptCPI >= r.BaseCPI {
			t.Errorf("%s: optimized (%.3f) not better than base (%.3f)", r.Workload, r.OptCPI, r.BaseCPI)
		}
		if r.MemImprove <= 0 || r.TotImprove <= 0 {
			t.Errorf("%s: improvements %.3f/%.3f not positive", r.Workload, r.MemImprove, r.TotImprove)
		}
	}
	if !strings.Contains(FormatSummary(rows), "paper: 54.5%") {
		t.Error("FormatSummary missing paper reference")
	}
}

func TestPerBenchProfiles(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every member")
	}
	rows := PerBench(Options{MaxInstructions: 300_000})
	if len(rows) != 16 {
		t.Fatalf("profiled %d members, want 16", len(rows))
	}
	for _, r := range rows {
		if r.CPI < 1 {
			t.Errorf("%s: CPI %.3f < 1", r.Name, r.CPI)
		}
		if r.L1DMiss < 0 || r.L1DMiss > 1 {
			t.Errorf("%s: L1-D miss ratio %.3f out of range", r.Name, r.L1DMiss)
		}
	}
	if !strings.Contains(FormatPerBench(rows), "bigcode") {
		t.Error("FormatPerBench missing members")
	}
}

func TestCostMatchesPaperArithmetic(t *testing.T) {
	// The paper: the 8 KW primary pair with 4 W lines needs 40 Kb of
	// tag memory on the MMU.
	base := CostOf(baseConfig())
	if base.TagBits != 40*1024 {
		t.Errorf("base tag bits = %d, want %d (the paper's 40 Kb)", base.TagBits, 40*1024)
	}
	// With 8 W lines the tags halve to 20 Kb.
	if opt := CostOf(optimizedSansConcurrency()); opt.TagBits != 20*1024 {
		t.Errorf("8W-line tag bits = %d, want %d (the paper's 20 Kb)", opt.TagBits, 20*1024)
	}
	// Write-only needs 3 Kb less state than subblock placement.
	rows := CostTable()
	var wo, sb Cost
	for _, r := range rows {
		switch r.Label {
		case "write-only":
			wo = r.Cost
		case "subblock placement":
			sb = r.Cost
		}
	}
	if diff := sb.StateBits - wo.StateBits; diff != 3*1024 {
		t.Errorf("subblock - write-only state = %d bits, want %d (the paper's 3 Kb)", diff, 3*1024)
	}
	// The write-buffer datapath narrows from 256 to 64 pins.
	if base.WBDataPins != 256 {
		t.Errorf("write-back WB pins = %d, want 256", base.WBDataPins)
	}
	if wo.WBDataPins != 64 {
		t.Errorf("write-only WB pins = %d, want 64", wo.WBDataPins)
	}
	if !strings.Contains(FormatCost(rows), "40 Kb") {
		t.Error("FormatCost missing paper reference")
	}
}
