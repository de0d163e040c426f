// Benchmark harness: one testing.B benchmark per table and figure of
// the paper's evaluation, plus throughput benchmarks for the simulator
// substrate. Each experiment benchmark runs its full configuration
// sweep over a capped slice of the workload and reports the headline
// metric the paper's artifact shows, so
//
//	go test -bench=. -benchmem
//
// regenerates the whole evaluation in miniature; cmd/sweep runs the
// same experiments at full length.
package repro

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/mips"
	"repro/internal/progs"
	"repro/internal/sample"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/synth"
	"repro/internal/trace"
	"repro/internal/workload"
)

// benchOpt caps each configuration run so a full sweep stays in
// benchmark-friendly time. Absolute numbers at this cap are colder than
// the full-suite results recorded in EXPERIMENTS.md.
var benchOpt = experiments.Options{MaxInstructions: 400_000}

// benchParOpt is benchOpt with the sweep fanned over 8 workers, the
// parallel counterpart for wall-clock comparisons (the reports are
// byte-identical; see internal/experiments TestParallelReportsMatchSerial).
var benchParOpt = experiments.Options{MaxInstructions: 400_000, Parallelism: 8}

func BenchmarkTable1Characterize(b *testing.B) {
	rec := recordAll(workload.Record(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := workload.Table1(rec)
		if err != nil || len(rows) == 0 {
			b.Fatal("no rows", err)
		}
	}
}

func BenchmarkFig2MultiprogrammingLevel(b *testing.B) {
	var last []experiments.Fig2Row
	for i := 0; i < b.N; i++ {
		last = experiments.Fig2(benchOpt)
	}
	b.ReportMetric(last[len(last)-1].CPI, "CPI@16")
}

func BenchmarkFig3TimeSlice(b *testing.B) {
	var last []experiments.Fig3Row
	for i := 0; i < b.N; i++ {
		last = experiments.Fig3(benchOpt)
	}
	b.ReportMetric(last[len(last)-1].CPI, "CPI@10M")
}

func BenchmarkFig4BaseBreakdown(b *testing.B) {
	var last experiments.Fig4Result
	for i := 0; i < b.N; i++ {
		last = experiments.Fig4(benchOpt)
	}
	b.ReportMetric(last.Total, "CPI")
}

func BenchmarkFig5WritePolicy(b *testing.B) {
	var rows []experiments.Fig5Row
	for i := 0; i < b.N; i++ {
		rows = experiments.Fig5(benchOpt)
	}
	b.ReportMetric(float64(len(rows)), "configs")
}

// BenchmarkFig5WritePolicyParallel fans the 20-configuration write
// policy sweep over 8 workers.
func BenchmarkFig5WritePolicyParallel(b *testing.B) {
	recordAll(workload.Record(1))
	b.ResetTimer()
	var rows []experiments.Fig5Row
	for i := 0; i < b.N; i++ {
		rows = experiments.Fig5(benchParOpt)
	}
	b.ReportMetric(float64(len(rows)), "configs")
}

func BenchmarkFig5WritePolicyCalibrated(b *testing.B) {
	var cross int
	for i := 0; i < b.N; i++ {
		cross = experiments.Fig5Crossover(experiments.Fig5Calibrated(experiments.Options{}))
	}
	b.ReportMetric(float64(cross), "crossover-cycles")
}

func BenchmarkFig6L2Organization(b *testing.B) {
	var rows []experiments.Fig6Row
	for i := 0; i < b.N; i++ {
		rows = experiments.Fig6(benchOpt)
	}
	b.ReportMetric(float64(len(rows)), "configs")
}

// BenchmarkFig6L2OrganizationParallel is the same 28-configuration
// sweep fanned over 8 workers; comparing it against the serial
// benchmark above measures the across-config speedup on this machine.
func BenchmarkFig6L2OrganizationParallel(b *testing.B) {
	recordAll(workload.Record(1)) // record outside the timer, as the serial variant's first run does
	b.ResetTimer()
	var rows []experiments.Fig6Row
	for i := 0; i < b.N; i++ {
		rows = experiments.Fig6(benchParOpt)
	}
	b.ReportMetric(float64(len(rows)), "configs")
}

func BenchmarkTable2L2MissRatio(b *testing.B) {
	var rows []experiments.Fig6Row
	for i := 0; i < b.N; i++ {
		rows = experiments.Fig6Calibrated(experiments.Options{MaxInstructions: 400_000})
	}
	u, _ := experiments.Fig6At(rows, 1024*1024, experiments.L2Org{Split: false, Ways: 1})
	b.ReportMetric(u.MissRatio, "missratio@1024K")
}

func BenchmarkFig7L2ISpeedSize(b *testing.B) {
	var rows []experiments.SpeedSizeRow
	for i := 0; i < b.N; i++ {
		rows = experiments.Fig7(benchOpt)
	}
	b.ReportMetric(float64(len(rows)), "configs")
}

func BenchmarkFig8L2DSpeedSize(b *testing.B) {
	var rows []experiments.SpeedSizeRow
	for i := 0; i < b.N; i++ {
		rows = experiments.Fig8(benchOpt)
	}
	b.ReportMetric(float64(len(rows)), "configs")
}

func BenchmarkFig9Optimizations(b *testing.B) {
	var rows []experiments.StageRow
	for i := 0; i < b.N; i++ {
		rows = experiments.Fig9(benchOpt)
	}
	b.ReportMetric(rows[2].CPI, "CPI-optimized")
}

func BenchmarkFig10Concurrency(b *testing.B) {
	var rows []experiments.StageRow
	for i := 0; i < b.N; i++ {
		rows = experiments.Fig10(benchOpt)
	}
	b.ReportMetric(rows[len(rows)-1].CPI, "CPI-final")
}

// --- substrate throughput ---

// BenchmarkOnePassGrid measures the one-pass screening engine: every
// grid point of experiments.ScreeningGrid — the full Fig. 6 L2 matrix
// plus the L1 curves and both speed-size tables — from a single replay
// of the paper-calibrated workload. Compare against
// BenchmarkExactGridConfigByConfig, which earns only the 28 Fig. 6 rows
// by replaying the same recording once per configuration.
func BenchmarkOnePassGrid(b *testing.B) {
	recordAll(workload.RecordPaperLike(8, 400_000)) // record outside the timer
	var fs *experiments.FastSweepResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fs = experiments.FastSweep(benchOpt)
	}
	b.StopTimer()
	if len(fs.Grid) == 0 {
		b.Fatal("empty grid")
	}
	b.ReportMetric(float64(len(fs.Grid)), "configs")
	b.ReportMetric(float64(fs.Res.Instructions)*float64(b.N)/b.Elapsed().Seconds(), "instr/s")
}

// BenchmarkExactGridConfigByConfig is the one-pass benchmark's exact
// baseline: the same recording, the same 28 Fig. 6 configurations, one
// cycle-accurate replay each.
func BenchmarkExactGridConfigByConfig(b *testing.B) {
	recordAll(workload.RecordPaperLike(8, 400_000))
	var rows []experiments.Fig6Row
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows = experiments.ExactGrid(benchOpt)
	}
	b.StopTimer()
	if len(rows) == 0 {
		b.Fatal("empty grid")
	}
	b.ReportMetric(float64(len(rows)), "configs")
}

// BenchmarkSampledSweep measures the interval-sampling engine at its
// validated default regime over a 64M-instruction paper-like recording:
// skip/warm fast-forward between measured intervals, confidence
// intervals over the interval CPIs. Compare ns/op against
// BenchmarkExactSweepBaseline (same recording, full cycle-accurate
// replay) for the speedup; the sampled-vs-exact accuracy bounds live in
// internal/sample's validation tests and the EXPERIMENTS.md error
// table.
func BenchmarkSampledSweep(b *testing.B) {
	rec := workload.RecordPaperLike(8, 8_000_000)
	var res sample.Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		res, err = sample.Run(core.Base(), workload.ReplayProcesses(rec),
			sched.Config{}, sample.Config{})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if res.Intervals < 10 {
		b.Fatalf("only %d measured intervals", res.Intervals)
	}
	b.ReportMetric(float64(res.Intervals), "intervals")
	b.ReportMetric(res.CPI.Mean, "cpi")
	b.ReportMetric(float64(res.TotalInstructions)*float64(b.N)/b.Elapsed().Seconds(), "instr/s")
}

// BenchmarkExactSweepBaseline is BenchmarkSampledSweep's exact twin:
// the same recording through the full cycle-accurate simulator.
func BenchmarkExactSweepBaseline(b *testing.B) {
	rec := workload.RecordPaperLike(8, 8_000_000)
	var res sim.Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		res, err = sim.Run(core.Base(), workload.ReplayProcesses(rec), sched.Config{})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(res.Stats.CPI(), "cpi")
	b.ReportMetric(float64(res.Stats.Instructions)*float64(b.N)/b.Elapsed().Seconds(), "instr/s")
}

// BenchmarkSimulatorThroughput measures raw trace-replay speed through
// the base architecture, in simulated instructions per b.N op.
func BenchmarkSimulatorThroughput(b *testing.B) {
	rec := recordAll(workload.Record(1))
	const cap = 1_000_000
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sim.Run(core.Base(), workload.ReplayProcesses(rec),
			sched.Config{MaxInstructions: cap})
		if err != nil {
			b.Fatal(err)
		}
		if res.Stats.Instructions != cap {
			b.Fatal("short run")
		}
	}
	b.ReportMetric(float64(cap*b.N)/b.Elapsed().Seconds(), "instr/s")
}

// BenchmarkEmulatorThroughput measures the MIPS emulator alone.
func BenchmarkEmulatorThroughput(b *testing.B) {
	prog := progs.Sieve().Program(1)
	var ev trace.Event
	b.ResetTimer()
	steps := uint64(0)
	for i := 0; i < b.N; i++ {
		cpu := mips.NewCPU(prog)
		for n := 0; n < 500_000 && cpu.Next(&ev); n++ {
		}
		steps += cpu.Steps()
	}
	b.ReportMetric(float64(steps)/b.Elapsed().Seconds(), "instr/s")
}

// BenchmarkSynthThroughput measures the synthetic trace generator.
func BenchmarkSynthThroughput(b *testing.B) {
	var ev trace.Event
	for i := 0; i < b.N; i++ {
		g := synth.New(synth.Config{Instructions: 500_000, Seed: uint64(i + 1)})
		for g.Next(&ev) {
		}
	}
	b.ReportMetric(float64(500_000*b.N)/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkSystemStep measures the per-event cost of the cache model on
// a synthetic stream, the simulator's innermost loop.
func BenchmarkSystemStep(b *testing.B) {
	events := trace.Collect(synth.New(synth.Config{Instructions: 100_000, Seed: 7})).Events()
	sys, err := core.NewSystem(core.Base())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := &events[i%len(events)]
		if err := sys.Step(1, ev); err != nil {
			b.Fatal(err)
		}
	}
}

// recordAll reads each recording of rs to its end, so that no timed
// replay pays for recording it, and returns rs.
func recordAll(rs []workload.Recorded) []workload.Recorded {
	for _, r := range rs {
		c := r.Trace.NewCursor()
		for n, _ := c.SkipScan(math.MaxInt); n > 0; n, _ = c.SkipScan(math.MaxInt) {
		}
	}
	return rs
}
