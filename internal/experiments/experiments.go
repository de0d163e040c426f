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
	"slices"
	"strings"

	"repro/internal/core"
	"repro/internal/sample"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/stackdist"
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

// must unwraps a simulation run or screening pass whose configuration
// is a table-driven variant of the validated base architectures, or the
// workload's characterization. Such a run can still fail (a bad derived
// geometry, a failed self-check, a member whose emulator faults); the
// experiment row builders have no error path, so the failure is raised
// as a panic, which the sweep harness (internal/harness) converts back
// into a structured RunError rather than killing the whole sweep. This
// is the one sanctioned panic path in the experiments package.
func must[T any](res T, err error) T {
	if err != nil {
		panic(fmt.Errorf("experiments: %w", err))
	}
	return res
}

// schedConfig is the scheduler configuration o sets for every run.
func (o Options) schedConfig() sched.Config {
	return sched.Config{Level: o.Level, TimeSlice: o.TimeSlice, MaxInstructions: o.MaxInstructions}
}

// Workload is one traced workload a sweep replays: its label and the
// recording it replays under given options. KernelSuite and
// PaperCalibrated are its only valid values.
type Workload struct {
	Label string
	// record returns the recording at o, which must be normalized.
	record func(o Options) []workload.Recorded
}

// The two workloads of DESIGN.md §2. KernelSuite is the recorded
// benchmark suite (workload.Record) at o's scale. PaperCalibrated is
// the paper-calibrated synthetic workload (workload.PaperLike) at o's
// level and scale, 400k instructions per process at scale 1: claims
// that hinge on the paper's miss ratios run on it and are contrasted on
// the kernel suite. Exact, screening and sampled runs over a workload
// replay the same recording.
var (
	KernelSuite = Workload{Label: "kernel suite", record: func(o Options) []workload.Recorded {
		return workload.Record(o.Scale)
	}}
	PaperCalibrated = Workload{Label: "paper-calibrated workload", record: func(o Options) []workload.Recorded {
		return workload.RecordPaperLike(o.Level, uint64(400_000)*uint64(o.Scale))
	}}
)

// bothWorkloads renders table once per workload under the workload's
// label, the kernel suite first.
func bothWorkloads(table func(w Workload) string) string {
	return KernelSuite.Label + ":\n" + table(KernelSuite) +
		"\n" + PaperCalibrated.Label + ":\n" + table(PaperCalibrated)
}

// run simulates w on cfg under o.
func run(cfg core.Config, o Options, w Workload) sim.Result {
	cfg.SelfCheck = o.SelfCheck
	return must(sim.Run(cfg, workload.ReplayProcesses(w.record(o)), o.schedConfig()))
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

// Experiment is one paper artifact and every fidelity tier that serves
// it. Run, the cycle-accurate reproduction, serves every id; each
// reduced tier is a field group whose nil function means that tier
// does not serve the id.
type Experiment struct {
	ID    string
	Title string
	// Run is the exact fidelity.
	Run func(o Options) string

	// Screening formats the id's tables from one-pass stack-distance
	// passes (internal/stackdist) that analyze the given reference
	// classes (zero: all). A served request passes Classes, the classes
	// those tables read. Leaving the others out is exact: classes share
	// no state, and the filter, which drives them all, runs in full
	// whatever the set.
	Screening func(o Options, classes stackdist.ClassSet) string
	Classes   stackdist.ClassSet
	// Compare runs screening and exact over the same recordings and
	// reports the deltas (`sweep -compare`); set exactly when Screening
	// is.
	Compare func(o Options) string

	// Sampled re-runs the exact sweeps over the kernel suite through
	// interval sampling (internal/sample), every CPI carrying a 95%
	// confidence interval.
	Sampled func(o Options) string
}

// l2Views are the classes the Fig. 6 and Table 2 screening tables read:
// the unified L2 and the two split banks.
var l2Views = stackdist.ClassesOf(stackdist.ClassL2U, stackdist.ClassL2I, stackdist.ClassL2D)

// registry is every experiment, in paper order. Adding or retiring a
// fidelity tier for an id is an edit to its record.
var registry = []Experiment{
	{ID: "table1", Title: "Table 1: benchmark characterization", Run: Table1},
	{
		ID: "fig2", Title: "Fig. 2: effect of multiprogramming level",
		Run:     func(o Options) string { return FormatFig2(Fig2(o)) },
		Sampled: func(o Options) string { return FormatSampledFig2(SampledFig2(o)) },
	},
	{ID: "fig3", Title: "Fig. 3: effect of context-switch interval", Run: func(o Options) string {
		return FormatFig3(Fig3(o))
	}},
	{ID: "fig4", Title: "Fig. 4: base architecture performance losses", Run: func(o Options) string {
		return FormatFig4(Fig4(o))
	}},
	{
		ID: "fig5", Title: "Fig. 5: write policy vs L2 access time",
		Run: func(o Options) string {
			kernel := Fig5(o, KernelSuite)
			calibrated := Fig5(o, PaperCalibrated)
			return "kernel suite:\n" + FormatFig5(kernel) +
				fmt.Sprintf("write-back first wins at access time: %d (0 = never)\n\n", Fig5Crossover(kernel)) +
				"paper-calibrated workload (~3.5%% L1-D miss, 98%% write hits):\n" + FormatFig5(calibrated) +
				fmt.Sprintf("write-back first wins at access time: %d (0 = never)\n", Fig5Crossover(calibrated))
		},
		Sampled: func(o Options) string { return FormatSampledFig5(SampledFig5(o)) },
	},
	{
		ID: "fig6", Title: "Fig. 6: L2 sizes and organizations",
		Run: func(o Options) string {
			return bothWorkloads(func(w Workload) string { return FormatFig6(Fig6(o, w)) })
		},
		Screening: func(o Options, cs stackdist.ClassSet) string {
			return bothWorkloads(func(w Workload) string { return "estimated " + FormatFig6(screen(o, w, cs).Grid) })
		},
		Classes: l2Views,
		Compare: compareGrid,
		Sampled: func(o Options) string { return FormatSampledFig6(SampledFig6(o)) },
	},
	{
		ID: "table2", Title: "Table 2: L2 miss ratios",
		Run: func(o Options) string {
			return bothWorkloads(func(w Workload) string { return FormatTable2(Fig6(o, w)) })
		},
		Screening: func(o Options, cs stackdist.ClassSet) string {
			return bothWorkloads(func(w Workload) string { return FormatTable2(screen(o, w, cs).Grid) })
		},
		Classes: l2Views,
		Compare: compareGrid,
		Sampled: func(o Options) string { return FormatSampledTable2(SampledFig6(o)) },
	},
	{
		ID: "fig7", Title: "Fig. 7: L2-I speed-size trade-off",
		Run: func(o Options) string { return FormatSpeedSize("L2-I", Fig7(o)) },
		Screening: func(o Options, cs stackdist.ClassSet) string {
			return FormatSpeedSize("L2-I (screening)", screen(o, KernelSuite, cs).Fig7)
		},
		Classes: stackdist.ClassesOf(stackdist.ClassL2I),
		Compare: func(o Options) string { return compareSpeedSize("L2-I", screen(o, KernelSuite, 0).Fig7, Fig7(o)) },
	},
	{
		ID: "fig8", Title: "Fig. 8: L2-D speed-size trade-off",
		Run: func(o Options) string { return FormatSpeedSize("L2-D", Fig8(o)) },
		Screening: func(o Options, cs stackdist.ClassSet) string {
			return FormatSpeedSize("L2-D (screening)", screen(o, KernelSuite, cs).Fig8)
		},
		Classes: stackdist.ClassesOf(stackdist.ClassL2D),
		Compare: func(o Options) string { return compareSpeedSize("L2-D", screen(o, KernelSuite, 0).Fig8, Fig8(o)) },
	},
	{ID: "fig9", Title: "Fig. 9: split L2 and fetch-size optimizations", Run: func(o Options) string {
		return FormatStages(Fig9(o))
	}},
	{ID: "fig10", Title: "Fig. 10: memory system concurrency", Run: func(o Options) string {
		return bothWorkloads(func(w Workload) string { return FormatStages(Fig10(o, w)) })
	}},
	{ID: "sec5", Title: "Section 5: primary cache size vs cycle time", Run: func(o Options) string {
		return FormatSec5(Sec5L1Size(o))
	}},
	{ID: "fetchsize", Title: "Section 8: L1 fetch/line size", Run: func(o Options) string {
		return bothWorkloads(func(w Workload) string { return FormatFetch(Sec8FetchSize(o, w)) })
	}},
	{ID: "ablate-wb", Title: "Ablation: write buffer depth and drain overlap", Run: func(o Options) string {
		return FormatAblation(AblationWBDepth(o)) + "\n" + FormatAblation(AblationWBOverlap(o))
	}},
	{ID: "ablate-coloring", Title: "Ablation: page-coloring policy", Run: func(o Options) string {
		return FormatAblation(AblationColoring(o))
	}},
	{ID: "ablate-tlb", Title: "Ablation: TLB miss penalty", Run: func(o Options) string {
		return FormatAblation(AblationTLBPenalty(o))
	}},
	{ID: "summary", Title: "Bottom line: base vs fully optimized architecture", Run: func(o Options) string {
		return FormatSummary(Summary(o))
	}},
	{ID: "perbench", Title: "Per-benchmark profile on the base architecture", Run: func(o Options) string {
		return FormatPerBench(PerBench(o))
	}},
	{ID: "cost", Title: "Implementation cost: tag memory and write-buffer pins", Run: func(Options) string {
		return FormatCost(CostTable())
	}},
	{
		ID: "fastsweep", Title: "One-pass screening of the L1/L2 design space",
		// The exact fidelity of this experiment is the screening pass
		// plus a cycle-accurate cross-check of the best grid points; the
		// screening fidelity is the pass alone, over every class.
		Run: func(o Options) string {
			fs := FastSweep(o)
			return FormatFastSweep(fs) +
				"\ncross-validation (top 3 by estimated CPI, exact simulator):\n" +
				FormatValidation(FastSweepValidate(o, fs, 3))
		},
		Screening: func(o Options, cs stackdist.ClassSet) string { return FormatFastSweep(screen(o, PaperCalibrated, cs)) },
		Compare:   compareGrid,
	},
}

// Registry lists every experiment in paper order.
func Registry() []Experiment { return slices.Clone(registry) }

// ByID returns the registered experiment with the given id.
func ByID(id string) (Experiment, error) {
	for _, e := range registry {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("experiments: unknown experiment %q", id)
}

// Fidelity names accepted by RunFidelity.
const (
	FidelityExact     = "exact"
	FidelityScreening = "screening"
	FidelitySampled   = "sampled"
)

// Fidelities lists every fidelity tier, cheapest-to-run last.
func Fidelities() []string {
	return []string{FidelityExact, FidelityScreening, FidelitySampled}
}

// tier returns what runs e at fidelity f ("" means exact), or nil when
// f does not serve e.
func (e Experiment) tier(f string) func(Options) string {
	switch f {
	case "", FidelityExact:
		return e.Run
	case FidelityScreening:
		if e.Screening != nil {
			return func(o Options) string { return e.Screening(o, e.Classes) }
		}
	case FidelitySampled:
		return e.Sampled
	}
	return nil
}

// Serves reports whether fidelity f ("" means exact) serves e.
func (e Experiment) Serves(f string) bool { return e.tier(f) != nil }

// Fidelities lists the tiers that serve e, in Fidelities order.
func (e Experiment) Fidelities() []string {
	var fids []string
	for _, f := range Fidelities() {
		if e.Serves(f) {
			fids = append(fids, f)
		}
	}
	return fids
}

// ServedIDs lists the experiments fidelity f serves, in paper order.
func ServedIDs(f string) []string {
	var ids []string
	for _, e := range registry {
		if e.Serves(f) {
			ids = append(ids, e.ID)
		}
	}
	return ids
}

// ScreeningIDs lists the experiments the screening fidelity serves.
func ScreeningIDs() []string { return ServedIDs(FidelityScreening) }

// RunFidelity runs experiment id at o.Fidelity ("" means exact).
func RunFidelity(id string, o Options) (string, error) {
	e, err := ByID(id)
	if err != nil {
		return "", err
	}
	if run := e.tier(o.Fidelity); run != nil {
		return run(o), nil
	}
	if !slices.Contains(Fidelities(), o.Fidelity) {
		return "", fmt.Errorf("experiments: unknown fidelity %q (have %s)",
			o.Fidelity, strings.Join(Fidelities(), ", "))
	}
	return "", fmt.Errorf("experiments: no %s mode for %q (have %s)",
		o.Fidelity, id, strings.Join(ServedIDs(o.Fidelity), ", "))
}

// Table1 formats the workload characterization.
func Table1(o Options) string {
	o = o.normalized()
	return workload.FormatTable1(must(workload.Table1(KernelSuite.record(o))))
}

// kwLabel formats a size in words as the paper writes it (16K, 1024K).
func kwLabel(words int) string {
	return fmt.Sprintf("%dK", words/1024)
}
