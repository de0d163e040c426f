// Package experiments reproduces every table and figure of the paper's
// evaluation: the workload characterization (Table 1), the
// multiprogramming-level and time-slice studies (Figs. 2, 3), the
// base-architecture CPI stack (Fig. 4), the write-policy/L2-access-time
// trade-off (Fig. 5), the secondary cache organization study (Fig. 6,
// Table 2), the L2-I and L2-D speed-size trade-offs (Figs. 7, 8), the
// staged optimizations (Fig. 9), and the memory-concurrency
// optimizations (Fig. 10).
//
// Each experiment returns typed rows plus a formatted, paper-style
// table. Absolute values differ from the paper (our workload is the
// substitute suite of internal/workload, not the MIPS Performance Brief
// binaries); the claims each experiment checks are the paper's
// qualitative shapes.
package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/sample"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Options scales and bounds experiment runs.
type Options struct {
	// Scale is the workload scale factor (1 = the default few-million
	// instruction suite).
	Scale int
	// Level is the multiprogramming level (default 8, the paper's
	// choice) for experiments that don't sweep it.
	Level int
	// TimeSlice in cycles (default 500,000) for experiments that don't
	// sweep it.
	TimeSlice uint64
	// MaxInstructions caps each configuration run (0 = run the whole
	// suite). Tests and benchmarks use it to bound cost.
	MaxInstructions uint64
	// SelfCheck, when nonzero, makes every simulated system verify its
	// runtime invariants every N cycles (core.Config.SelfCheck).
	SelfCheck uint64
	// Parallelism fans each experiment's configuration sweep over a
	// worker pool: 0 runs serially on the calling goroutine (the
	// default), n > 0 uses n workers, and any negative value uses
	// runtime.NumCPU(). Results are assembled in sweep order, so serial
	// and parallel runs of the same experiment produce byte-identical
	// reports.
	Parallelism int
	// Fidelity selects the engine RunFidelity dispatches to: "" or
	// "exact" for the cycle-accurate simulator, "screening" for the
	// one-pass stack-distance analyzer, "sampled" for interval sampling
	// with confidence intervals (internal/sample).
	Fidelity string
	// Sampling tunes the sampled fidelity; the zero value selects the
	// validated defaults (sample.Config).
	Sampling sample.Config
}

func (o Options) normalized() Options {
	if o.Scale < 1 {
		o.Scale = 1
	}
	if o.Level <= 0 {
		o.Level = 8
	}
	if o.TimeSlice == 0 {
		o.TimeSlice = sched.DefaultTimeSlice
	}
	return o
}

// must unwraps a simulation run whose configuration is a table-driven
// variant of the validated base architectures. Such a run can still
// fail (a bad derived geometry, a failed self-check); the experiment
// row builders have no error path, so the failure is raised as a panic,
// which the sweep harness (internal/harness) converts back into a
// structured RunError rather than killing the whole sweep. This is the
// one sanctioned panic path in the experiments package.
func must(res sim.Result, err error) sim.Result {
	if err != nil {
		panic(fmt.Errorf("experiments: %w", err))
	}
	return res
}

// run simulates the recorded workload on cfg under o.
func run(cfg core.Config, o Options) sim.Result {
	rec := workload.Record(o.Scale)
	cfg.SelfCheck = o.SelfCheck
	return must(sim.Run(cfg, workload.ReplayProcesses(rec), sched.Config{
		Level:           o.Level,
		TimeSlice:       o.TimeSlice,
		MaxInstructions: o.MaxInstructions,
	}))
}

// runPaperLike simulates the paper-calibrated synthetic workload
// (workload.PaperLike) on cfg under o, replaying the recording that
// screening replays for the same level and scale.
func runPaperLike(cfg core.Config, o Options) sim.Result {
	rec := workload.RecordPaperLike(o.Level, uint64(400_000)*uint64(o.Scale))
	cfg.SelfCheck = o.SelfCheck
	return must(sim.Run(cfg, workload.ReplayProcesses(rec), sched.Config{
		Level:           o.Level,
		TimeSlice:       o.TimeSlice,
		MaxInstructions: o.MaxInstructions,
	}))
}

// baseConfig is the paper's Section 2 baseline.
func baseConfig() core.Config { return core.Base() }

// writeOnlyBase is the design point after Section 6: the base
// architecture with the write-only policy and the 8-deep one-word
// write buffer.
func writeOnlyBase() core.Config {
	c := core.Base()
	c.WritePolicy = core.WriteOnly
	c.WBEntries = 8
	c.WBEntryWords = 1
	return c
}

// fastL2I is the 32 KW secondary instruction cache built from the L1's
// 1Kx32 3 ns SRAMs on the MCM: two-cycle latency, four words per cycle.
func fastL2I() core.L2Bank {
	return core.L2Bank{
		Geom:   core.CacheGeom{SizeWords: 32 * 1024, LineWords: 32, Ways: 1},
		Timing: core.BankTiming{Latency: 2, ChunkCycles: 1, PathWords: 4},
	}
}

// Experiment is a runnable reproduction of one paper artifact.
type Experiment struct {
	ID    string
	Title string
	Run   func(o Options) (string, error)
}

// Registry lists every experiment in paper order.
func Registry() []Experiment {
	return []Experiment{
		{"table1", "Table 1: benchmark characterization", func(o Options) (string, error) {
			return Table1(o), nil
		}},
		{"fig2", "Fig. 2: effect of multiprogramming level", func(o Options) (string, error) {
			return FormatFig2(Fig2(o)), nil
		}},
		{"fig3", "Fig. 3: effect of context-switch interval", func(o Options) (string, error) {
			return FormatFig3(Fig3(o)), nil
		}},
		{"fig4", "Fig. 4: base architecture performance losses", func(o Options) (string, error) {
			return FormatFig4(Fig4(o)), nil
		}},
		{"fig5", "Fig. 5: write policy vs L2 access time", func(o Options) (string, error) {
			kernel := Fig5(o)
			calibrated := Fig5Calibrated(o)
			out := "kernel suite:\n" + FormatFig5(kernel) +
				fmt.Sprintf("write-back first wins at access time: %d (0 = never)\n\n", Fig5Crossover(kernel)) +
				"paper-calibrated workload (~3.5%% L1-D miss, 98%% write hits):\n" + FormatFig5(calibrated) +
				fmt.Sprintf("write-back first wins at access time: %d (0 = never)\n", Fig5Crossover(calibrated))
			return out, nil
		}},
		{"fig6", "Fig. 6: L2 sizes and organizations", func(o Options) (string, error) {
			return "kernel suite:\n" + FormatFig6(Fig6(o)) +
				"\npaper-calibrated workload:\n" + FormatFig6(Fig6Calibrated(o)), nil
		}},
		{"table2", "Table 2: L2 miss ratios", func(o Options) (string, error) {
			return "kernel suite:\n" + FormatTable2(Fig6(o)) +
				"\npaper-calibrated workload:\n" + FormatTable2(Fig6Calibrated(o)), nil
		}},
		{"fig7", "Fig. 7: L2-I speed-size trade-off", func(o Options) (string, error) {
			return FormatSpeedSize("L2-I", Fig7(o)), nil
		}},
		{"fig8", "Fig. 8: L2-D speed-size trade-off", func(o Options) (string, error) {
			return FormatSpeedSize("L2-D", Fig8(o)), nil
		}},
		{"fig9", "Fig. 9: split L2 and fetch-size optimizations", func(o Options) (string, error) {
			return FormatStages(Fig9(o)), nil
		}},
		{"fig10", "Fig. 10: memory system concurrency", func(o Options) (string, error) {
			return "kernel suite:\n" + FormatStages(Fig10(o)) +
				"\npaper-calibrated workload:\n" + FormatStages(Fig10Calibrated(o)), nil
		}},
		{"sec5", "Section 5: primary cache size vs cycle time", func(o Options) (string, error) {
			return FormatSec5(Sec5L1Size(o)), nil
		}},
		{"fetchsize", "Section 8: L1 fetch/line size", func(o Options) (string, error) {
			return "kernel suite:\n" + FormatFetch(Sec8FetchSize(o)) +
				"\npaper-calibrated workload:\n" + FormatFetch(Sec8FetchSizeCalibrated(o)), nil
		}},
		{"ablate-wb", "Ablation: write buffer depth and drain overlap", func(o Options) (string, error) {
			return FormatAblation(AblationWBDepth(o)) + "\n" + FormatAblation(AblationWBOverlap(o)), nil
		}},
		{"ablate-coloring", "Ablation: page-coloring policy", func(o Options) (string, error) {
			return FormatAblation(AblationColoring(o)), nil
		}},
		{"ablate-tlb", "Ablation: TLB miss penalty", func(o Options) (string, error) {
			return FormatAblation(AblationTLBPenalty(o)), nil
		}},
		{"summary", "Bottom line: base vs fully optimized architecture", func(o Options) (string, error) {
			return FormatSummary(Summary(o)), nil
		}},
		{"perbench", "Per-benchmark profile on the base architecture", func(o Options) (string, error) {
			return FormatPerBench(PerBench(o)), nil
		}},
		{"cost", "Implementation cost: tag memory and write-buffer pins", func(o Options) (string, error) {
			return FormatCost(CostTable()), nil
		}},
		{"fastsweep", "One-pass screening of the L1/L2 design space", func(o Options) (string, error) {
			// The exact fidelity of this experiment is the screening
			// pass plus a cycle-accurate cross-check of the best grid
			// points; the screening fidelity (RunScreening) is the pass
			// alone.
			fs := FastSweep(o)
			return FormatFastSweep(fs) +
				"\ncross-validation (top 3 by estimated CPI, exact simulator):\n" +
				FormatValidation(FastSweepValidate(o, fs, 3)), nil
		}},
	}
}

// ByID returns the registered experiment with the given id.
func ByID(id string) (Experiment, error) {
	for _, e := range Registry() {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("experiments: unknown experiment %q", id)
}

// Table1 formats the workload characterization.
func Table1(o Options) string {
	o = o.normalized()
	return workload.FormatTable1(workload.Table1(workload.Record(o.Scale)))
}

// kwLabel formats a size in words as the paper writes it (16K, 1024K).
func kwLabel(words int) string {
	return fmt.Sprintf("%dK", words/1024)
}
