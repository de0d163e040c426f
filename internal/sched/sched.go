// Package sched implements the paper's multiprogramming model: a
// round-robin scheduler that multiplexes benchmark trace streams onto
// one simulated memory system, switching contexts when a process makes a
// voluntary system call or exhausts its time slice. It is the in-memory
// equivalent of the paper's UNIX-pipe file-descriptor multiplexor.
//
// Each benchmark is one process with its own PID-prefixed address space,
// so caches and the TLB are not flushed on switches. When a benchmark
// terminates, the next benchmark in order starts, until all have run.
//
// There is one scheduler loop, the Runner's. Run drives a Runner to the
// end of the workload in measure mode; sampled simulation drives one by
// hand through skip, warm and measure phases. Every process stream is a
// packed-trace cursor (*trace.Cursor), stepped straight off its words.
// A recording grows as its cursors read it, so the source it records,
// such as an emulator, fails when the first run reaches the failing
// event: the cursor reports the fault (Cursor.Err), and the run that
// reached it fails like a target fault, naming the process. A run that
// stops short of it never sees it. The one other stream the scheduler
// takes is a trace.BatchStream that is not a cursor, in measure mode
// only: the timing wrappers of perfbench's traced replay are the only
// such streams. Such a stream can fail, and its failure
// (trace.StreamErr) ends the run the same way.
package sched

import (
	"fmt"
	"math"

	"repro/internal/mmu"
	"repro/internal/trace"
)

// DefaultTimeSlice is the paper's chosen slice: 500,000 CPU cycles
// (2 ms at 4 ns/cycle), a compromise between the VAX 8800's measured
// 7.7 ms between context switches and 0.9 ms between interrupts.
const DefaultTimeSlice = 500_000

// Target is the simulated system the scheduler drives. *core.System and
// the screening analyzer (*stackdist.Analyzer) satisfy it.
type Target interface {
	// Now returns the current cycle, used for time-slice accounting.
	Now() uint64
	// StepScan steps process pid straight off the next events of a
	// packed-trace cursor. It consumes events until it has executed a
	// syscall event (reported true), the clock has advanced at least
	// max cycles since entry, a fault latches (returned, counting the
	// faulting instruction), or the cursor runs out; n == 0 with
	// max > 0 and a nil error means the cursor is exhausted. Every
	// instruction costs at least one cycle, so a scan handed the cycles
	// left in a time slice stops after the instruction at which a
	// per-event loop would switch.
	StepScan(pid mmu.PID, c *trace.Cursor, max int) (n int, syscall bool, err error)
}

// BatchTarget is a Target that can also step a slice of decoded events:
// StepBatch has StepScan's stops, with len(evs) as the cycle budget. The
// scheduler calls it only for a trace.BatchStream that is not a cursor.
// *core.System satisfies it.
type BatchTarget interface {
	Target
	StepBatch(pid mmu.PID, evs []trace.Event) (n int, err error)
}

// Process names a benchmark trace to run.
type Process struct {
	Name   string
	Stream trace.Stream
}

// Config parameterizes a multiprogrammed run.
type Config struct {
	// Level is the multiprogramming level: how many processes run
	// concurrently. Zero means 8, the paper's choice. If fewer
	// processes are supplied than the level, all of them run.
	Level int
	// TimeSlice is the slice length in cycles; zero means
	// DefaultTimeSlice.
	TimeSlice uint64
	// NoSyscallSwitch disables the pessimistic assumption that every
	// voluntary system call causes a context switch.
	NoSyscallSwitch bool
	// MaxInstructions stops the run early after this many instructions
	// in total (0 = run every process to completion). Used to bound
	// sweep costs.
	MaxInstructions uint64
}

// Result reports what the scheduler did.
type Result struct {
	Instructions    uint64
	Switches        uint64 // total context switches taken
	SyscallSwitches uint64 // switches caused by voluntary system calls
	SliceSwitches   uint64 // switches caused by time-slice expiry
	Completed       []string
	// PerProcess counts instructions executed by each named process.
	PerProcess map[string]uint64
	// CyclesPerSwitch is the average number of cycles between context
	// switches, the quantity the paper quotes (~310,000 for its
	// workload at a 500,000-cycle slice).
	CyclesPerSwitch float64
}

// Run multiplexes procs onto target and returns scheduling statistics:
// it drives a Runner to the end of the workload in measure mode.
// Processes beyond the multiprogramming level start, in order, as
// earlier ones terminate.
//
// A non-nil error means a stream is not one the scheduler can step (see
// NewRunner), or a stream failed or the target faulted and the run
// stopped early. After a failure the Result still describes the
// instructions that did run, so callers in keep-going mode can report
// partial progress.
func Run(target Target, procs []Process, cfg Config) (Result, error) {
	r, err := NewRunner(target, procs, cfg)
	if err != nil {
		return Result{}, err
	}
	_, err = r.RunFor(math.MaxUint64, ModeMeasure)
	return r.Result(), err
}

func (r *Result) finish(cycles uint64) {
	if r.Switches > 0 {
		r.CyclesPerSwitch = float64(cycles) / float64(r.Switches)
	}
}

// String summarizes the result.
func (r Result) String() string {
	return fmt.Sprintf("%d instructions, %d switches (%d syscall, %d slice), %.0f cycles/switch, %d completed",
		r.Instructions, r.Switches, r.SyscallSwitches, r.SliceSwitches, r.CyclesPerSwitch, len(r.Completed))
}
