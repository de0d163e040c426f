// Package sched implements the paper's multiprogramming model: a
// round-robin scheduler that multiplexes benchmark trace streams onto
// one simulated memory system, switching contexts when a process makes a
// voluntary system call or exhausts its time slice. It is the in-memory
// equivalent of the paper's UNIX-pipe file-descriptor multiplexor.
//
// Each benchmark is one process with its own PID-prefixed address space,
// so caches and the TLB are not flushed on switches. When a benchmark
// terminates, the next benchmark in order starts, until all have run.
package sched

import (
	"fmt"

	"repro/internal/mmu"
	"repro/internal/trace"
)

// DefaultTimeSlice is the paper's chosen slice: 500,000 CPU cycles
// (2 ms at 4 ns/cycle), a compromise between the VAX 8800's measured
// 7.7 ms between context switches and 0.9 ms between interrupts.
const DefaultTimeSlice = 500_000

// Target is the simulated system the scheduler drives. *core.System
// satisfies it.
type Target interface {
	// Step simulates one instruction of process pid. A non-nil error
	// means the target faulted and cannot make further progress; the
	// scheduler stops and surfaces the error with process context.
	Step(pid mmu.PID, ev *trace.Event) error
	// Now returns the current cycle, used for time-slice accounting.
	Now() uint64
}

// BatchTarget is a Target that can additionally execute a whole slice
// of events in one call, eliminating the per-instruction interface
// dispatch. StepBatch must behave exactly like successive Steps, with
// two deterministic early stops: after an executed syscall event, and
// once the clock has advanced at least len(evs) cycles since entry
// (every instruction costs at least one cycle, so a batch of at most k
// events can never run past a deadline k cycles away by more than the
// final instruction — the same overshoot a serial Step loop has).
// *core.System satisfies it.
type BatchTarget interface {
	Target
	StepBatch(pid mmu.PID, evs []trace.Event) (n int, err error)
}

// ScanTarget is a BatchTarget that can also step straight off a
// packed-trace cursor. StepScan must behave exactly like StepBatch over
// the cursor's next max events (the same syscall and cycle-budget
// stops, the same fault counting), consuming from the cursor what it
// executed and reporting whether the last consumed event was a
// syscall; n == 0 with a nil error means the cursor is exhausted. The
// scheduler uses it for processes whose stream is a *trace.Cursor, so a
// quantum is stepped without decoding events into a buffer first.
// *core.System satisfies it.
type ScanTarget interface {
	BatchTarget
	StepScan(pid mmu.PID, c *trace.Cursor, max int) (n int, syscall bool, err error)
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

// process is one live process.
type process struct {
	name string
	pid  mmu.PID
	src  trace.Stream
}

// Run multiplexes procs onto target and returns scheduling statistics.
// Processes beyond the multiprogramming level start, in order, as
// earlier ones terminate.
//
// A non-nil error means the run stopped early: either the target
// faulted on a Step, or a process's trace stream failed mid-quantum (a
// corrupt tape, a broken pipe — any Stream whose Err() reports one).
// The Result still describes the instructions that did run, so callers
// in keep-going mode can report partial progress.
func Run(target Target, procs []Process, cfg Config) (Result, error) {
	level := cfg.Level
	if level <= 0 {
		level = 8
	}
	slice := cfg.TimeSlice
	if slice == 0 {
		slice = DefaultTimeSlice
	}

	res := Result{PerProcess: make(map[string]uint64)}
	var active []*process
	nextPID := mmu.PID(1)
	pending := procs
	start := func() {
		if len(pending) == 0 {
			return
		}
		p := pending[0]
		pending = pending[1:]
		active = append(active, &process{name: p.Name, pid: nextPID, src: p.Stream})
		nextPID++
		if nextPID == 0 {
			nextPID = 1
		}
	}
	for len(active) < level && len(pending) > 0 {
		start()
	}

	bt, hasBatch := target.(BatchTarget)
	st, _ := target.(ScanTarget)

	startCycle := target.Now()
	cur := 0
	for len(active) > 0 {
		if cur >= len(active) {
			cur = 0
		}
		p := active[cur]
		sliceEnd := target.Now() + slice

		var out quantumOutcome
		var err error
		if bs, ok := p.src.(trace.BatchStream); ok && hasBatch {
			out, err = runQuantumBatched(bt, st, bs, p, &res, sliceEnd, cfg)
		} else {
			out, err = runQuantumSerial(target, p, &res, sliceEnd, cfg)
		}
		switch out {
		case quantumFailed:
			res.finish(target.Now() - startCycle)
			return res, err
		case quantumMaxed:
			res.finish(target.Now() - startCycle)
			return res, nil
		case quantumTerminated:
			res.Completed = append(res.Completed, p.name)
			active = append(active[:cur], active[cur+1:]...)
			start()
			// The slot now holds the next process (or wrapped); do not
			// advance so the replacement runs in the departed slot.
			continue
		case quantumSwitched:
			cur++
		}
	}
	res.finish(target.Now() - startCycle)
	return res, nil
}

// quantumOutcome says why one process's turn on the CPU ended.
type quantumOutcome uint8

const (
	quantumSwitched   quantumOutcome = iota // syscall or slice-expiry switch (counted in res)
	quantumTerminated                       // the process's trace ran out
	quantumMaxed                            // cfg.MaxInstructions reached
	quantumFailed                           // target fault or stream error
)

// runQuantumSerial runs one time slice of p by stepping the target one
// event at a time — the reference semantics, used for targets or
// streams without batch support.
func runQuantumSerial(target Target, p *process, res *Result, sliceEnd uint64, cfg Config) (quantumOutcome, error) {
	var ev trace.Event
	for {
		if !p.src.Next(&ev) {
			if err := trace.StreamErr(p.src); err != nil {
				return quantumFailed, fmt.Errorf("sched: process %q: trace stream after %d instructions: %w",
					p.name, res.PerProcess[p.name], err)
			}
			return quantumTerminated, nil
		}
		err := target.Step(p.pid, &ev)
		res.Instructions++
		res.PerProcess[p.name]++
		if err != nil {
			return quantumFailed, fmt.Errorf("sched: process %q at instruction %d, cycle %d: %w",
				p.name, res.Instructions, target.Now(), err)
		}
		if cfg.MaxInstructions > 0 && res.Instructions >= cfg.MaxInstructions {
			return quantumMaxed, nil
		}
		if ev.Syscall && !cfg.NoSyscallSwitch {
			res.Switches++
			res.SyscallSwitches++
			return quantumSwitched, nil
		}
		if target.Now() >= sliceEnd {
			res.Switches++
			res.SliceSwitches++
			return quantumSwitched, nil
		}
	}
}

// quantumBatchMax bounds one StepBatch call's event count, keeping the
// slice handed to the target (and a Cursor's decode buffer) cache-sized
// even for very long time slices.
const quantumBatchMax = 4096

// runQuantumBatched runs one time slice of p through the batched fast
// path: events are peeked in bulk from the stream and handed to the
// target in slices sized so a batch can never run past the points where
// the serial loop would stop — the batch is capped at (sliceEnd - now)
// events, so its cycle budget expires exactly at sliceEnd; it is capped
// at the instructions remaining under cfg.MaxInstructions; and the
// target stops it after an executed syscall. Statistics updates are
// identical to the serial path, but the per-process map counter is
// written once per batch instead of once per instruction.
//
// When st is non-nil and the stream is a packed-trace cursor, each batch
// is a StepScan over the cursor instead of Batch plus StepBatch. The
// quantumBatchMax cap exists to bound the decode buffer, so a scan
// skips it: the same cycle budget sets the same stop points.
func runQuantumBatched(bt BatchTarget, st ScanTarget, bs trace.BatchStream, p *process, res *Result, sliceEnd uint64, cfg Config) (quantumOutcome, error) {
	cur, _ := bs.(*trace.Cursor)
	scan := cur != nil && st != nil
	for {
		now := bt.Now()
		if now >= sliceEnd {
			res.Switches++
			res.SliceSwitches++
			return quantumSwitched, nil
		}
		k := sliceEnd - now
		if cfg.MaxInstructions > 0 {
			if rem := cfg.MaxInstructions - res.Instructions; rem < k {
				k = rem
			}
		}
		var (
			n       int
			syscall bool
			err     error
		)
		if scan {
			n, syscall, err = st.StepScan(p.pid, cur, int(k))
		} else {
			if k > quantumBatchMax {
				k = quantumBatchMax
			}
			evs := bs.Batch(int(k))
			if len(evs) > 0 {
				n, err = bt.StepBatch(p.pid, evs)
				bs.Skip(n)
				if n > 0 {
					syscall = evs[n-1].Syscall
				}
			}
		}
		if n == 0 && err == nil {
			if err := trace.StreamErr(bs); err != nil {
				return quantumFailed, fmt.Errorf("sched: process %q: trace stream after %d instructions: %w",
					p.name, res.PerProcess[p.name], err)
			}
			return quantumTerminated, nil
		}
		res.Instructions += uint64(n)
		res.PerProcess[p.name] += uint64(n)
		if err != nil {
			return quantumFailed, fmt.Errorf("sched: process %q at instruction %d, cycle %d: %w",
				p.name, res.Instructions, bt.Now(), err)
		}
		if cfg.MaxInstructions > 0 && res.Instructions >= cfg.MaxInstructions {
			return quantumMaxed, nil
		}
		if !cfg.NoSyscallSwitch && syscall {
			res.Switches++
			res.SyscallSwitches++
			return quantumSwitched, nil
		}
	}
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
