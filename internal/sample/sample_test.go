package sample_test

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/sample"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/workload"
)

// paperProcs returns fresh replay cursors over the memoized
// paper-calibrated recording (8 processes, 400k instructions each).
func paperProcs() []sched.Process {
	return workload.ReplayProcesses(workload.RecordPaperLike(8, 400_000))
}

// longProcs is the error-bound validation workload: 8 processes of 8M
// instructions, ~89 measured intervals at the default period. Sampling
// error shrinks as 1/sqrt(intervals); the 2% CPI bound needs this
// scale (the short recording above would give a noise-dominated
// handful of intervals).
func longProcs() []sched.Process {
	return workload.ReplayProcesses(workload.RecordPaperLike(8, 8_000_000))
}

// TestSampledCPIWithinBound is the error-bound validation the sampled
// fidelity tier is gated on (and the CI sample-validate smoke job
// runs): on the paper-calibrated workload, the sampled CPI at default
// settings must land within 2% of a full exact run, and the sampled
// miss ratios within 10% relative (0.002 absolute floor for the tiny
// ones), across the architectures the Fig. 2/5/6 sweeps visit.
func TestSampledCPIWithinBound(t *testing.T) {
	smallL2 := core.Base()
	smallL2.L2U.Geom.SizeWords = 64 * 1024
	slowL2 := core.Base()
	slowL2.L2U.Timing.ChunkCycles = 8
	cases := []struct {
		name string
		cfg  core.Config
	}{
		{"base", core.Base()},
		{"optimized", core.Optimized()},
		{"small-l2", smallL2},
		{"slow-l2", slowL2},
	}
	scfg := sched.Config{Level: 8}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			exact, err := sim.Run(tc.cfg, longProcs(), scfg)
			if err != nil {
				t.Fatalf("exact run: %v", err)
			}
			got, err := sample.Run(tc.cfg, longProcs(), scfg, sample.Config{})
			if err != nil {
				t.Fatalf("sampled run: %v", err)
			}
			if got.Intervals < 10 {
				t.Fatalf("only %d measured intervals; workload or period misconfigured", got.Intervals)
			}
			wantCPI := exact.Stats.CPI()
			relErr := math.Abs(got.CPI.Mean-wantCPI) / wantCPI
			t.Logf("%s: exact CPI %.4f, sampled %.4f ± %.4f (%d intervals, rel err %.3f%%, measured %d/%d instructions)",
				tc.name, wantCPI, got.CPI.Mean, got.CPI.Stderr, got.Intervals,
				100*relErr, got.MeasuredInstructions, got.TotalInstructions)
			if relErr > 0.02 {
				t.Errorf("sampled CPI %.4f vs exact %.4f: relative error %.2f%% exceeds 2%%",
					got.CPI.Mean, wantCPI, 100*relErr)
			}
			missBound := func(name string, got, want, rel float64) {
				tol := rel * want
				if tol < 0.002 {
					tol = 0.002
				}
				if math.Abs(got-want) > tol {
					t.Errorf("sampled %s %.5f vs exact %.5f: outside ±max(%.0f%%, 0.002)", name, got, want, 100*rel)
				}
			}
			// The L1 ratios warm within any window and are pinned tight.
			// The L2 ratio carries the one documented non-sampling bias:
			// L2 reuse distances exceed the functional window, so a
			// window's start state is missing some to-be-reused lines and
			// the measured interval sees extra (cold) L2 misses. The bias
			// is one-sided and stable; see DESIGN.md §12 before trusting
			// sampled L2 miss ratios to better than this bound.
			missBound("L1I miss ratio", got.L1IMissRatio.Mean, exact.Stats.L1IMissRatio(), 0.10)
			missBound("L1D miss ratio", got.L1DMissRatio.Mean, exact.Stats.L1DMissRatio(), 0.10)
			missBound("L2 miss ratio", got.L2MissRatio.Mean, exact.Stats.L2MissRatio(), 0.25)
		})
	}
}

// TestSampledDeterministic pins byte-identical reruns — the property
// the daemon's content-addressed cache requires of every fidelity.
func TestSampledDeterministic(t *testing.T) {
	run := func() sample.Result {
		res, err := sample.Run(core.Base(), paperProcs(), sched.Config{Level: 8, MaxInstructions: 600_000}, sample.Config{})
		if err != nil {
			t.Fatalf("sampled run: %v", err)
		}
		return res
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("sampled reruns diverged:\n1: %+v\n2: %+v", a, b)
	}
}

// TestSampledFullCoverageIsExact pins the degenerate regime Period ==
// Interval: measuring every instruction must reproduce the exact
// engine's counters identically (the estimator is then just the exact
// run cut into intervals). MaxInstructions is a multiple of the
// interval so no partial interval is discarded.
func TestSampledFullCoverageIsExact(t *testing.T) {
	scfg := sched.Config{Level: 8, MaxInstructions: 500_000}
	sys, err := core.NewSystem(core.Base())
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	if _, err := sched.Run(sys, paperProcs(), scfg); err != nil {
		t.Fatalf("exact run: %v", err)
	}
	want := sys.Stats()

	got, err := sample.Run(core.Base(), paperProcs(), scfg, sample.Config{Interval: 2_500, Period: 2_500})
	if err != nil {
		t.Fatalf("sampled run: %v", err)
	}
	if got.Measured != want {
		t.Errorf("full-coverage sampling diverged from exact:\nexact:   %+v\nsampled: %+v", want, got.Measured)
	}
	if got.MeasuredInstructions != want.Instructions {
		t.Errorf("measured %d instructions, want %d", got.MeasuredInstructions, want.Instructions)
	}
	if math.Abs(got.CPI.Mean-want.CPI())/want.CPI() > 0.001 {
		t.Errorf("full-coverage interval-mean CPI %.5f vs exact %.5f", got.CPI.Mean, want.CPI())
	}
}

// TestSampledConfigValidation pins the sentinel and the clamping rules.
func TestSampledConfigValidation(t *testing.T) {
	_, err := sample.Run(core.Base(), paperProcs(), sched.Config{},
		sample.Config{Interval: 1000, Period: 500})
	if !errors.Is(err, sample.ErrConfig) {
		t.Fatalf("period < interval: got %v, want ErrConfig", err)
	}

	res, err := sample.Run(core.Base(), paperProcs(),
		sched.Config{Level: 8, MaxInstructions: 50_000},
		sample.Config{Interval: 1000, Period: 1500, Warmup: 5000, FunctionalWindow: 5000})
	if err != nil {
		t.Fatalf("clamped run: %v", err)
	}
	if got := res.Config; got.Warmup != 500 || got.FunctionalWindow != 0 {
		t.Errorf("windows not clamped into the gap: %+v", got)
	}
}

// TestCheckCapNeedsTwoPeriods pins the cap rule: no cap, or at least
// two (effective) sampling periods, passes; anything shorter is refused
// with ErrConfig naming the minimum, without overflowing on a huge
// period.
func TestCheckCapNeedsTwoPeriods(t *testing.T) {
	for _, c := range []struct {
		cfg  sample.Config
		max  uint64
		want string // "" passes; else a substring of the error
	}{
		{sample.Config{}, 0, ""},
		{sample.Config{}, 200_000, "at least 1440000, two 720000-instruction"},
		{sample.Config{}, 1_439_999, "at least 1440000"},
		{sample.Config{}, 1_440_000, ""},
		{sample.Config{Period: 100_000}, 150_000, "at least 200000"},
		{sample.Config{Period: 100_000}, 200_000, ""},
		{sample.Config{Period: math.MaxUint64}, math.MaxUint64 - 1, "at least 18446744073709551615"},
	} {
		err := c.cfg.CheckCap(c.max)
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%+v cap %d: %v, want no error", c.cfg, c.max, err)
		case c.want != "" && (!errors.Is(err, sample.ErrConfig) || !strings.Contains(fmt.Sprint(err), c.want)):
			t.Errorf("%+v cap %d: %v, want ErrConfig naming %q", c.cfg, c.max, err, c.want)
		}
	}
}

// TestSampledCIShrinks sanity-checks the estimator: more intervals over
// the same workload must not widen the standard error dramatically, and
// with at least two intervals the CI must bracket the mean.
func TestSampledCIShrinks(t *testing.T) {
	res, err := sample.Run(core.Base(), paperProcs(), sched.Config{Level: 8}, sample.Config{})
	if err != nil {
		t.Fatalf("sampled run: %v", err)
	}
	if res.CPI.Stderr <= 0 {
		t.Fatalf("expected positive stderr with %d intervals", res.Intervals)
	}
	if !(res.CPI.CI95Lo < res.CPI.Mean && res.CPI.Mean < res.CPI.CI95Hi) {
		t.Errorf("CI [%f, %f] does not bracket mean %f", res.CPI.CI95Lo, res.CPI.CI95Hi, res.CPI.Mean)
	}
	w := res.CPI.CI95Hi - res.CPI.CI95Lo
	if math.Abs(w-2*1.96*res.CPI.Stderr) > 1e-9*w {
		t.Errorf("CI width %g inconsistent with stderr %g", w, res.CPI.Stderr)
	}
}
