// Command sweep runs the paper's experiments and prints paper-style
// tables. With no -exp flag it runs everything in paper order.
//
// The run is driven by internal/harness: experiments execute on a
// bounded worker pool, a panic or error in one configuration is
// captured as a structured failure instead of killing the sweep, and
// -manifest records a machine-readable JSON log of the whole run.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/harness"
	"repro/internal/lint"
	"repro/internal/profiling"
	"repro/internal/report"
	"repro/internal/sample"
)

// lintInfo stamps the manifest with the cachelint state of the source
// tree, so a run log records whether its numbers came from a vetted
// tree. When the sweep binary runs away from the repository (no go.mod
// in reach), the stamp says so instead of failing the run.
func lintInfo() *harness.LintInfo {
	sum, err := lint.SelfCheck(".")
	if err != nil {
		return &harness.LintInfo{Version: lint.Version, Status: "unavailable: " + err.Error()}
	}
	return &harness.LintInfo{
		Version:  sum.Version,
		Clean:    sum.Clean,
		Findings: len(sum.Findings),
		Status:   "ok",
	}
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "sweep:", err)
		os.Exit(1)
	}
}

func run() (err error) {
	var (
		exp       = flag.String("exp", "all", "experiment id or comma list; 'all' runs everything; 'list' prints ids")
		scale     = flag.Int("scale", 1, "workload scale factor")
		level     = flag.Int("level", 0, "multiprogramming level (0 = paper default 8)")
		maxInstr  = flag.Uint64("max", 0, "cap instructions per configuration run (0 = full suite)")
		csvDir    = flag.String("csv", "", "also export figure data as CSV files into this directory")
		jobs      = flag.Int("jobs", 1, "experiments to run concurrently")
		par       = flag.Int("par", -1, "configurations to simulate concurrently inside each experiment (-1 = all CPUs, 0 or 1 = serial); reports are byte-identical either way")
		onepass   = flag.Bool("onepass", false, "screening fidelity: run the one-pass stack-distance analyzer instead of the cycle-accurate simulator")
		compare   = flag.Bool("compare", false, "run screening and exact fidelity and report their deltas")
		sampled   = flag.Bool("sampled", false, "sampled fidelity: measure a systematic sample of each run and report CPIs with 95% confidence intervals")
		interval  = flag.Uint64("interval", 0, "sampled: instructions per measured interval (0 = validated default)")
		period    = flag.Uint64("period", 0, "sampled: instructions per sampling period (0 = validated default)")
		warmup    = flag.Uint64("warmup", 0, "sampled: detailed-warmup instructions before each interval (0 = validated default)")
		window    = flag.Uint64("window", 0, "sampled: functional cache-warming instructions before each warmup (0 = validated default)")
		timeout   = flag.Duration("timeout", 0, "wall-clock limit per experiment attempt (0 = none)")
		retries   = flag.Int("retries", 0, "retry a failed experiment this many times")
		keepGoing = flag.Bool("keep-going", false, "run remaining experiments after one fails")
		manifest  = flag.String("manifest", "", "write a JSON run manifest to this file")
		selfCheck = flag.Uint64("selfcheck", 0, "verify simulator invariants every N cycles (0 = off)")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf   = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()

	// Validate numeric flags up front: a bad value must be a clear
	// error, not a silently clamped or misbehaving run. (-par keeps its
	// two sentinel values: any negative means all CPUs, 0 means serial.)
	switch {
	case *jobs < 1:
		return fmt.Errorf("-jobs must be >= 1 (got %d)", *jobs)
	case *jobs > 1024:
		return fmt.Errorf("-jobs %d is absurd; the registry has %d experiments (max 1024)", *jobs, len(experiments.Registry()))
	case *par > 4096:
		return fmt.Errorf("-par %d is absurd (max 4096; use -1 for all CPUs)", *par)
	case *retries < 0:
		return fmt.Errorf("-retries must be >= 0 (got %d)", *retries)
	case *retries > 100:
		return fmt.Errorf("-retries %d is absurd (max 100)", *retries)
	case *scale < 1:
		return fmt.Errorf("-scale must be >= 1 (got %d)", *scale)
	case *level < 0:
		return fmt.Errorf("-level must be >= 1, or 0 for the paper default (got %d)", *level)
	case *timeout < 0:
		return fmt.Errorf("-timeout must be >= 0 (got %v)", *timeout)
	}

	stopProf, err := profiling.Start(*cpuProf, *memProf)
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProf(); perr != nil && err == nil {
			err = perr
		}
	}()

	opt := experiments.Options{
		Scale:           *scale,
		Level:           *level,
		MaxInstructions: *maxInstr,
		SelfCheck:       *selfCheck,
		Parallelism:     *par,
	}
	if *onepass && *compare {
		return fmt.Errorf("-onepass and -compare are exclusive: -compare already runs the screening pass")
	}
	if *sampled && (*onepass || *compare) {
		return fmt.Errorf("-sampled is exclusive with -onepass/-compare: pick one fidelity")
	}
	if !*sampled && (*interval != 0 || *period != 0 || *warmup != 0 || *window != 0) {
		return fmt.Errorf("-interval/-period/-warmup/-window only apply with -sampled")
	}
	switch {
	case *onepass || *compare:
		opt.Fidelity = experiments.FidelityScreening
	case *sampled:
		opt.Fidelity = experiments.FidelitySampled
		opt.Sampling = sample.Config{
			Interval:         *interval,
			Period:           *period,
			Warmup:           *warmup,
			FunctionalWindow: *window,
		}
		if err := opt.Sampling.CheckCap(*maxInstr); err != nil {
			return fmt.Errorf("-max: %w", err)
		}
	}
	if *exp == "list" {
		for _, e := range experiments.Registry() {
			note := ""
			// Exact serves every id; the list notes the reduced tiers.
			if fids := e.Fidelities()[1:]; len(fids) > 0 {
				note = "  [" + strings.Join(fids, " ") + "]"
			}
			fmt.Printf("%-16s %s%s\n", e.ID, e.Title, note)
		}
		return nil
	}
	if *csvDir != "" {
		files, err := report.ExportAll(*csvDir, opt)
		if err != nil {
			return fmt.Errorf("csv export: %w", err)
		}
		for _, f := range files {
			fmt.Println("wrote", f)
		}
		if *exp == "" {
			return nil
		}
	}
	var list []experiments.Experiment
	if *exp == "all" {
		// With a reduced fidelity, "all" means every experiment that
		// has one; the rest have no analog under that engine.
		for _, e := range experiments.Registry() {
			if e.Serves(opt.Fidelity) {
				list = append(list, e)
			}
		}
	} else {
		for _, id := range strings.Split(*exp, ",") {
			e, err := experiments.ByID(strings.TrimSpace(id))
			if err != nil {
				return err
			}
			if !e.Serves(opt.Fidelity) {
				return fmt.Errorf("experiment %q has no %s mode (%s ids: %s)", e.ID, opt.Fidelity,
					opt.Fidelity, strings.Join(experiments.ServedIDs(opt.Fidelity), ", "))
			}
			list = append(list, e)
		}
	}

	specs := make([]harness.Spec, len(list))
	for i, e := range list {
		specs[i] = harness.Spec{
			ID:    e.ID,
			Title: e.Title,
			// Experiments are compute-bound and don't poll ctx; the
			// harness abandons an attempt that outlives its deadline.
			Run: func(ctx context.Context) (string, error) {
				if *compare {
					return e.Compare(opt), nil
				}
				return experiments.RunFidelity(e.ID, opt)
			},
		}
	}

	m, runErr := harness.Run(specs, harness.Options{
		Workers:   *jobs,
		Timeout:   *timeout,
		Retries:   *retries,
		Backoff:   time.Second,
		KeepGoing: *keepGoing,
		OnResult: func(r harness.Result) {
			switch r.Status {
			case harness.StatusOK:
				fmt.Printf("== %s — %s (%.1fs)\n%s\n", r.ID, r.Title, r.Seconds, r.Output)
			case harness.StatusFailed:
				fmt.Fprintf(os.Stderr, "== %s — FAILED after %d attempt(s) (%.1fs): %v\n",
					r.ID, r.Attempts, r.Seconds, r.Err)
				if r.Err != nil && r.Err.Stack != "" {
					fmt.Fprintln(os.Stderr, r.Err.Stack)
				}
			case harness.StatusSkipped:
				fmt.Fprintf(os.Stderr, "== %s — skipped (earlier failure)\n", r.ID)
			}
		},
	})
	if *manifest != "" {
		m.Lint = lintInfo()
		if err := m.WriteFile(*manifest); err != nil {
			return err
		}
		fmt.Println("wrote", *manifest)
	}
	return runErr
}
