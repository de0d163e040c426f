package sched

import (
	"fmt"
	"maps"
	"math"

	"repro/internal/mmu"
	"repro/internal/trace"
)

// Mode selects the fidelity at which a Runner advances the workload.
type Mode uint8

const (
	// ModeMeasure drives the target cycle-accurately through StepScan.
	ModeMeasure Mode = iota
	// ModeWarm advances architectural state functionally through the
	// target's WarmScan: caches and TLB stay warm, but no cycles are
	// charged; the virtual clock advances at the configured nominal CPI
	// instead.
	ModeWarm
	// ModeSkip fast-forwards the trace without touching the target at
	// all (trace.Cursor.SkipScan), advancing the virtual clock at the
	// nominal CPI. Syscall boundaries are still honored.
	ModeSkip
)

// String names the mode for error messages.
func (m Mode) String() string {
	switch m {
	case ModeMeasure:
		return "measure"
	case ModeWarm:
		return "warm"
	case ModeSkip:
		return "skip"
	}
	return fmt.Sprintf("Mode(%d)", uint8(m))
}

// WarmTarget is a Target that can also warm straight off a packed-trace
// cursor: WarmScan advances the target's architectural state with no
// cycle accounting, consuming at most max events and stopping after a
// syscall event exactly as StepScan does. Continuous functional warming
// in sampled simulation is only affordable through it. *core.System
// satisfies it.
type WarmTarget interface {
	Target
	WarmScan(pid mmu.PID, c *trace.Cursor, max int) (n int, syscall bool, err error)
}

// nomCPIScale is the fixed-point denominator for the nominal clock: the
// per-instruction charge of skipped/warmed work is kept in 1/256-cycle
// units so the virtual clock is exact integer arithmetic (float cycle
// accumulation would make switch points depend on summation order).
const nomCPIScale = 256

// Runner is the round-robin scheduler: level, time slices, syscall
// switches, process replacement and MaxInstructions are all decided
// here, and Run is a Runner driven to the end in measure mode. The
// Runner is resumable: it advances in caller-controlled instruction
// budgets at a caller-controlled fidelity per call. Sampled simulation
// uses that to alternate skip → warm → measure phases over one workload
// while preserving quantum state (a measurement interval can start and
// end mid-quantum, exactly where a full replay would be).
//
// Time-slice accounting runs on a virtual clock: the target's real
// cycle count plus a nominal charge for every skipped or warmed
// instruction (SetNominalCPI). Context-switch cadence during
// fast-forward therefore tracks the measured CPI instead of freezing
// (which would let a slice never expire) or ticking at the wrong rate.
type Runner struct {
	target Target
	batch  BatchTarget // nil if the target cannot step decoded events
	warm   WarmTarget  // nil if the target cannot warm
	cfg    Config
	level  int
	slice  uint64

	res     Result
	active  []*process
	pending []Process
	nextPID mmu.PID
	cur     int

	nomCharge uint64 // per-instruction virtual-clock charge, 1/256 cycles
	nominal   uint64 // accumulated nominal charge, 1/256 cycles
	startV    uint64 // virtual cycle at construction
	sliceEnd  uint64 // virtual-clock deadline of the current quantum
	inSlice   bool   // a quantum is in progress (sliceEnd is valid)
	done      bool
	err       error
}

// process is one live process. Its stream is a cursor, or, for
// measure-mode runs only, a BatchStream that is not one.
type process struct {
	name string
	pid  mmu.PID
	c    *trace.Cursor
	bs   trace.BatchStream // set when c is nil
}

// NewRunner builds a resumable scheduler over procs. Every process
// stream must be a *trace.Cursor; a trace.BatchStream that is not one is
// accepted when the target is a BatchTarget, and then runs in measure
// mode only.
func NewRunner(target Target, procs []Process, cfg Config) (*Runner, error) {
	batch, _ := target.(BatchTarget)
	for _, p := range procs {
		if _, ok := p.Stream.(*trace.Cursor); ok {
			continue
		}
		if _, ok := p.Stream.(trace.BatchStream); ok && batch != nil {
			continue
		}
		return nil, fmt.Errorf("sched: process %q: stream %T is not a packed-trace cursor; record it with trace.Record", p.Name, p.Stream)
	}
	level := cfg.Level
	if level <= 0 {
		level = 8
	}
	slice := cfg.TimeSlice
	if slice == 0 {
		slice = DefaultTimeSlice
	}
	r := &Runner{
		target:    target,
		batch:     batch,
		cfg:       cfg,
		level:     level,
		slice:     slice,
		res:       Result{PerProcess: make(map[string]uint64)},
		pending:   procs,
		nextPID:   1,
		nomCharge: nomCPIScale, // nominal CPI 1.0 until the caller measures
	}
	r.warm, _ = target.(WarmTarget)
	for len(r.active) < r.level && len(r.pending) > 0 {
		r.start()
	}
	r.startV = r.vnow()
	if len(r.active) == 0 {
		r.done = true
	}
	return r, nil
}

// start admits the next pending process.
func (r *Runner) start() {
	if len(r.pending) == 0 {
		return
	}
	p := r.pending[0]
	r.pending = r.pending[1:]
	proc := &process{name: p.Name, pid: r.nextPID}
	if c, ok := p.Stream.(*trace.Cursor); ok {
		proc.c = c
	} else {
		proc.bs, _ = p.Stream.(trace.BatchStream) // NewRunner checked it
	}
	r.active = append(r.active, proc)
	r.nextPID++
	if r.nextPID == 0 {
		r.nextPID = 1
	}
}

// SetNominalCPI sets the virtual-clock charge per skipped or warmed
// instruction. Values below 1 are clamped to 1 (an instruction costs at
// least its issue cycle). Sampled simulation updates this after each
// measured interval so fast-forwarded time flows at the workload's
// measured rate.
func (r *Runner) SetNominalCPI(cpi float64) {
	if cpi < 1 {
		cpi = 1
	}
	r.nomCharge = uint64(cpi*nomCPIScale + 0.5)
}

// vnow returns the virtual clock: real cycles plus nominal charges.
func (r *Runner) vnow() uint64 { return r.target.Now() + r.nominal/nomCPIScale }

// Done reports whether the workload is exhausted (or stopped by
// MaxInstructions or a fault); further RunFor calls do nothing.
func (r *Runner) Done() bool { return r.done }

// Err returns the latched fault, if any.
func (r *Runner) Err() error { return r.err }

// Result snapshots the scheduling statistics so far. Instructions and
// PerProcess count every consumed instruction regardless of mode;
// CyclesPerSwitch is computed on the virtual clock.
func (r *Runner) Result() Result {
	res := r.res
	res.PerProcess = maps.Clone(r.res.PerProcess)
	res.Completed = append([]string(nil), r.res.Completed...)
	res.finish(r.vnow() - r.startV)
	return res
}

// RunFor advances the workload by up to budget instructions at the
// given mode, across context switches and process replacements, and
// returns how many instructions were consumed. It returns short only
// when the workload is exhausted, Config.MaxInstructions is reached, or
// the target faults (the error is latched, like the target's own).
func (r *Runner) RunFor(budget uint64, mode Mode) (uint64, error) {
	if r.err != nil {
		return 0, r.err
	}
	if mode == ModeWarm && r.warm == nil {
		return 0, fmt.Errorf("sched: runner target %T does not implement WarmTarget; cannot run in warm mode", r.target)
	}
	var ran uint64
	for ran < budget && !r.done {
		if len(r.active) == 0 {
			r.done = true
			break
		}
		if r.cur >= len(r.active) {
			r.cur = 0
		}
		p := r.active[r.cur]
		if !r.inSlice {
			// Saturate: a deadline past the end of the clock never
			// expires, where a wrapped one would expire at once.
			r.sliceEnd = r.vnow() + r.slice
			if r.sliceEnd < r.slice {
				r.sliceEnd = math.MaxUint64
			}
			r.inSlice = true
		}
		out, n, err := r.runChunk(p, mode, budget-ran)
		ran += n
		switch out {
		case chunkRunning:
			// Quantum continues; loop re-checks budget and deadlines.
		case chunkSwitched:
			r.inSlice = false
			r.cur++
		case chunkTerminated:
			r.res.Completed = append(r.res.Completed, p.name)
			r.active = append(r.active[:r.cur], r.active[r.cur+1:]...)
			r.start()
			r.inSlice = false
			// Do not advance cur: the replacement runs in this slot.
		case chunkMaxed:
			r.done = true
		case chunkFailed:
			r.err = err
			return ran, err
		}
	}
	return ran, nil
}

// chunkOutcome says how one step of a quantum ended.
type chunkOutcome uint8

const (
	chunkRunning chunkOutcome = iota
	chunkSwitched
	chunkTerminated
	chunkMaxed
	chunkFailed
)

// maxChunk clamps a chunk's cycle budget before it is converted to
// events or handed to a scan as an int, so nothing overflows however
// long the slice. Cutting a chunk short moves no switch: a scan stops
// at syscalls and at the cursor's end on its own, and the slice check
// runs after every chunk.
const maxChunk = math.MaxInt32

// quantumBatchMax bounds the events one Batch decodes for a stream that
// is not a cursor, keeping the decode buffer cache-sized.
const quantumBatchMax = 4096

// runChunk performs one bounded step of p in the given mode: at most
// budget instructions and at most the current quantum's remaining
// virtual cycles. It updates instruction and switch accounting.
func (r *Runner) runChunk(p *process, mode Mode, budget uint64) (chunkOutcome, uint64, error) {
	now := r.vnow()
	if now >= r.sliceEnd {
		r.res.Switches++
		r.res.SliceSwitches++
		return chunkSwitched, 0, nil
	}
	// Convert the quantum's remaining virtual cycles into a maximum
	// event count that cannot overshoot the deadline by more than one
	// instruction: measured instructions cost at least one cycle each;
	// skipped/warmed instructions cost nomCharge/256 >= 1.
	k := min(r.sliceEnd-now, maxChunk)
	if mode != ModeMeasure {
		k = (k*nomCPIScale + r.nomCharge - 1) / r.nomCharge
	}
	if r.cfg.MaxInstructions > 0 {
		rem := r.cfg.MaxInstructions - r.res.Instructions
		if rem == 0 {
			return chunkMaxed, 0, nil
		}
		k = min(k, rem)
	}
	k = min(k, budget)

	var (
		n       int
		syscall bool
		err     error
	)
	switch {
	case p.c == nil:
		n, syscall, err = r.stepBatch(p, mode, int(k))
	case mode == ModeSkip:
		n, syscall = p.c.SkipScan(int(k))
	case mode == ModeWarm:
		n, syscall, err = r.warm.WarmScan(p.pid, p.c, int(k))
	default:
		n, syscall, err = r.target.StepScan(p.pid, p.c, int(k))
	}
	if n == 0 && err == nil {
		if p.c == nil || p.c.Err() == nil {
			return chunkTerminated, 0, nil
		}
		err = p.c.Err()
	}
	if mode != ModeMeasure {
		r.nominal += uint64(n) * r.nomCharge
	}
	r.res.Instructions += uint64(n)
	r.res.PerProcess[p.name] += uint64(n)
	if err != nil {
		return chunkFailed, uint64(n), fmt.Errorf("sched: process %q at instruction %d, cycle %d (%s mode): %w",
			p.name, r.res.Instructions, r.vnow(), mode, err)
	}
	if r.cfg.MaxInstructions > 0 && r.res.Instructions >= r.cfg.MaxInstructions {
		return chunkMaxed, uint64(n), nil
	}
	if syscall && !r.cfg.NoSyscallSwitch {
		r.res.Switches++
		r.res.SyscallSwitches++
		return chunkSwitched, uint64(n), nil
	}
	if r.vnow() >= r.sliceEnd {
		r.res.Switches++
		r.res.SliceSwitches++
		return chunkSwitched, uint64(n), nil
	}
	return chunkRunning, uint64(n), nil
}

// stepBatch runs a measure-mode chunk of a process whose stream is a
// trace.BatchStream but not a cursor: Batch, then the target's
// StepBatch. An empty batch ends the process, or, when the stream
// reports a failure through trace.StreamErr, the run with that error.
// Only perfbench's traced replay takes this branch, because
// its timing wrappers hide the cursor to time the decode; the branch
// goes when they do.
func (r *Runner) stepBatch(p *process, mode Mode, k int) (n int, syscall bool, err error) {
	if mode != ModeMeasure {
		return 0, false, fmt.Errorf("stream %T is not a packed-trace cursor", p.bs)
	}
	evs := p.bs.Batch(min(k, quantumBatchMax))
	if len(evs) == 0 {
		return 0, false, trace.StreamErr(p.bs)
	}
	n, err = r.batch.StepBatch(p.pid, evs)
	p.bs.Skip(n)
	return n, n > 0 && evs[n-1].Syscall, err
}
