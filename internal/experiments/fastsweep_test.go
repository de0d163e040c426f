package experiments

import (
	"strings"
	"testing"

	"repro/internal/stackdist"
)

// screenOpt keeps screening tests fast: a small multiprogramming level
// and a capped instruction count. The huge time slice makes every
// context switch syscall-driven, which is the analyzer's exactness
// domain (see the validation tests in internal/stackdist).
var screenOpt = Options{Level: 3, MaxInstructions: 200_000, TimeSlice: 1 << 62}

func TestFastSweepCoversTheGrid(t *testing.T) {
	fs := FastSweep(screenOpt)
	if got, want := len(fs.Grid), len(Fig6Sizes)*len(Fig6Orgs); got != want {
		t.Errorf("grid rows = %d, want %d", got, want)
	}
	if got, want := len(fs.L1I), 10; got != want {
		t.Errorf("L1-I points = %d, want %d", got, want)
	}
	if got, want := len(fs.Fig7), len(SpeedSizeTimes)*len(SpeedSizeSizes); got != want {
		t.Errorf("Fig7 points = %d, want %d", got, want)
	}
	// Larger caches of the same organization never miss more (LRU
	// inclusion, the property the one-pass algorithm rests on).
	for _, org := range Fig6Orgs {
		var prev float64 = 2
		for _, size := range Fig6Sizes {
			r, ok := Fig6At(fs.Grid, size, org)
			if !ok {
				t.Fatalf("missing %s %s", kwLabel(size), org)
			}
			if r.MissRatio > prev+1e-12 {
				t.Errorf("%s: miss ratio rises with size at %s (%f > %f)", org, kwLabel(size), r.MissRatio, prev)
			}
			prev = r.MissRatio
		}
	}
}

// TestScreeningMissRatiosMatchExact is the package-level half of the
// validation criterion: under syscall-only context switching, the
// screening L2 miss ratios must equal the cycle-accurate simulator's
// on the write-only Fig. 6 configurations, across every grid point.
func TestScreeningMissRatiosMatchExact(t *testing.T) {
	fs := FastSweep(screenOpt)
	rows := FastSweepValidate(screenOpt, fs, len(fs.Grid))
	if len(rows) != len(fs.Grid) {
		t.Fatalf("validated %d of %d rows", len(rows), len(fs.Grid))
	}
	for i, v := range rows {
		if v.Row.MissRatio != v.ExactMissRatio {
			t.Errorf("%s %s: screening miss ratio %.6f != exact %.6f",
				kwLabel(v.Row.SizeWords), v.Row.Org, v.Row.MissRatio, v.ExactMissRatio)
		}
		if i > 0 && v.Row.CPI < rows[i-1].Row.CPI {
			t.Errorf("validation rows not ranked by estimated CPI at %d", i)
		}
	}
}

func TestFastSweepDeterministicReruns(t *testing.T) {
	a := FormatFastSweep(FastSweep(screenOpt))
	b := FormatFastSweep(FastSweep(screenOpt))
	if a != b {
		t.Error("two screening passes render differently")
	}
}

func TestRunScreeningRegistry(t *testing.T) {
	for _, id := range ScreeningIDs() {
		if !SupportsScreening(id) {
			t.Errorf("ScreeningIDs lists %q but SupportsScreening denies it", id)
		}
		if id == "fig6" || id == "table2" {
			continue // exercised via fastsweep/fig7/fig8; these add a suite pass each
		}
		out, err := RunScreening(id, screenOpt)
		if err != nil || out == "" {
			t.Errorf("RunScreening(%q): %q, %v", id, out, err)
		}
	}
	if SupportsScreening("fig2") {
		t.Error("fig2 has no screening mode")
	}
	if _, err := RunScreening("fig2", screenOpt); err == nil {
		t.Error("RunScreening(fig2): want error")
	}
	if _, err := ScreeningComparison("fig2", screenOpt); err == nil {
		t.Error("ScreeningComparison(fig2): want error")
	}
}

// TestRunScreeningMatchesFullPasses requires each screening id's
// output, computed from passes over only the classes its tables read,
// to equal the same tables formatted from full five-class passes, at
// two caps. It also requires each id's class set to hold no class its
// tables leave unread: dropping any one class changes the tables, and
// only fastsweep, which prints every class, analyzes all five.
func TestRunScreeningMatchesFullPasses(t *testing.T) {
	all := stackdist.ClassesOf(stackdist.ClassL1I, stackdist.ClassL1D,
		stackdist.ClassL2U, stackdist.ClassL2I, stackdist.ClassL2D)
	for i, max := range []uint64{60_000, 200_000} {
		o := screenOpt
		o.MaxInstructions = max
		for _, id := range ScreeningIDs() {
			full, err := screeningTables(id, o, 0)
			if err != nil {
				t.Fatalf("%s full passes: %v", id, err)
			}
			got, err := RunScreening(id, o)
			if err != nil {
				t.Fatalf("RunScreening(%s): %v", id, err)
			}
			if got != full {
				t.Errorf("%s at %d instructions: RunScreening differs from full passes\ngot:\n%s\nfull:\n%s", id, max, got, full)
			}
			set := screeningClasses(id)
			if set == 0 {
				if id != "fastsweep" {
					t.Errorf("%s analyzes every class", id)
				}
				set = all
			}
			if i > 0 {
				continue
			}
			for c := stackdist.ClassL1I; c <= stackdist.ClassL2D; c++ {
				less := set &^ stackdist.ClassesOf(c)
				if !set.Has(c) || less == 0 {
					continue
				}
				if out, _ := screeningTables(id, o, less); out == full {
					t.Errorf("%s: tables unchanged without class %v, which its set selects", id, c)
				}
			}
		}
	}
}

func TestScreeningComparisonReportsDeltas(t *testing.T) {
	out, err := ScreeningComparison("fastsweep", screenOpt)
	if err != nil {
		t.Fatalf("ScreeningComparison: %v", err)
	}
	if !strings.Contains(out, "screening vs exact") || !strings.Contains(out, "miss err") {
		t.Errorf("comparison output missing headers:\n%s", out)
	}
}

func TestFastSweepRegistered(t *testing.T) {
	e, err := ByID("fastsweep")
	if err != nil {
		t.Fatalf("ByID: %v", err)
	}
	out, err := e.Run(screenOpt)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, want := range []string{"one-pass screening", "cross-validation", "L1-D miss ratio"} {
		if !strings.Contains(out, want) {
			t.Errorf("fastsweep output missing %q", want)
		}
	}
}
