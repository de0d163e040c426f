// Command cachesim runs the multiprogrammed workload (or a trace file)
// through one configured memory hierarchy and prints the CPI breakdown,
// miss ratios, and scheduling statistics — the reproduction's
// equivalent of one run of the paper's trace-driven simulator.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/experiments"
	"repro/internal/profiling"
	"repro/internal/report"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "cachesim:", err)
		os.Exit(1)
	}
}

func run() (err error) {
	var (
		preset    = flag.String("preset", "base", "architecture preset: base | optimized")
		policy    = flag.String("policy", "", "override write policy: writeback | wmi | writeonly | subblock")
		l2Size    = flag.Int("l2", 0, "override unified L2 size in KW (0 = preset)")
		l2Access  = flag.Int("l2access", 0, "override L2 access time in cycles (0 = preset)")
		l2Split   = flag.Bool("split", false, "split the (unified) L2 into equal halves")
		dirtyBuf  = flag.Bool("dirtybuffer", false, "add the L2 dirty buffer")
		lps       = flag.String("lps", "", "loads-pass-stores: none | assoc | dirtybit")
		level     = flag.Int("level", 8, "multiprogramming level")
		slice     = flag.Uint64("slice", sched.DefaultTimeSlice, "time slice in cycles")
		scale     = flag.Int("scale", 1, "workload scale factor")
		maxInstr  = flag.Uint64("max", 0, "stop after this many instructions (0 = all)")
		traceFile = flag.String("trace", "", "simulate a single recorded trace file instead of the suite")
		selfCheck = flag.Uint64("selfcheck", 0, "verify simulator invariants every N cycles (0 = off)")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf   = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()

	stopProf, err := profiling.Start(*cpuProf, *memProf)
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProf(); perr != nil && err == nil {
			err = perr
		}
	}()

	if *scale < 1 {
		return fmt.Errorf("-scale must be >= 1 (got %d)", *scale)
	}
	if *level < 1 {
		return fmt.Errorf("-level must be >= 1 (got %d)", *level)
	}
	cfg, err := experiments.BuildConfig(experiments.ConfigSpec{
		Preset:      *preset,
		Policy:      *policy,
		L2KW:        *l2Size,
		L2Access:    *l2Access,
		Split:       *l2Split,
		DirtyBuffer: *dirtyBuf,
		LPS:         *lps,
	})
	if err != nil {
		return err
	}
	cfg.SelfCheck = *selfCheck

	var procs []sched.Process
	if *traceFile != "" {
		f, err := os.Open(*traceFile)
		if err != nil {
			return err
		}
		defer f.Close()
		rec, err := trace.ReadAll(f)
		if err != nil {
			return err
		}
		procs = []sched.Process{{Name: *traceFile, Stream: rec.NewCursor()}}
	} else {
		procs = workload.ReplayProcesses(workload.Record(*scale))
	}

	res, err := sim.Run(cfg, procs, sched.Config{
		Level:           *level,
		TimeSlice:       *slice,
		MaxInstructions: *maxInstr,
	})
	if err != nil {
		return err
	}
	st := res.Stats

	fmt.Println("architecture:", cfg)
	fmt.Println(st.Breakdown())
	fmt.Printf("miss ratios: L1-I %.4f  L1-D %.4f (read %.4f, write %.4f)  L2 %.4f (I %.4f, D %.4f)\n",
		st.L1IMissRatio(), st.L1DMissRatio(), st.L1DReadMissRatio(), st.L1DWriteMissRatio(),
		st.L2MissRatio(), st.L2IMissRatio(), st.L2DMissRatio())
	fmt.Printf("TLB misses: I %d  D %d\n", st.ITLBMisses, st.DTLBMisses)
	fmt.Printf("write buffer: %d enqueues, %d full stalls, %d flushes\n",
		st.WBEnqueues, st.WBFullStalls, st.WBFlushes)
	fmt.Printf("scheduler: %s\n", res.Sched)
	if len(res.Sched.PerProcess) > 0 {
		fmt.Printf("per-process instructions:\n%s", report.FormatPerProcess(res.Sched.PerProcess))
	}
	return nil
}
