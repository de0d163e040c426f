// Package sim ties the pieces together: it runs a multiprogrammed
// workload (scheduler + trace streams) against one configured memory
// system (core.System) and returns both the cache statistics and the
// scheduling statistics.
package sim

import (
	"repro/internal/core"
	"repro/internal/sched"
)

// Result bundles the outcome of one simulation run.
type Result struct {
	Stats core.Stats
	Sched sched.Result
}

// CPI returns the run's cycles per instruction.
func (r Result) CPI() float64 { return r.Stats.CPI() }

// Run simulates procs on a fresh system built from cfg, and releases the
// system's cache arrays for the next run once its results are read.
//
// Errors come from three places: an unimplementable configuration or a
// stream the scheduler cannot step (before any simulation), a target
// fault mid-run, or — when cfg.SelfCheck is enabled — a failed
// invariant check after the final write-buffer drain. In the latter two
// cases the Result still carries the statistics of the instructions
// that ran.
func Run(cfg core.Config, procs []sched.Process, scfg sched.Config) (Result, error) {
	sys, err := core.NewSystem(cfg)
	if err != nil {
		return Result{}, err
	}
	defer sys.Release()
	sres, err := sched.Run(sys, procs, scfg)
	if err != nil {
		return Result{Stats: sys.Stats(), Sched: sres}, err
	}
	sys.DrainWriteBuffer()
	if cfg.SelfCheck > 0 {
		if err := sys.CheckInvariants(); err != nil {
			return Result{Stats: sys.Stats(), Sched: sres}, err
		}
	}
	return Result{Stats: sys.Stats(), Sched: sres}, nil
}
