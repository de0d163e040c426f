package sched

import (
	"fmt"
	"maps"

	"repro/internal/mmu"
	"repro/internal/trace"
)

// Mode selects the fidelity at which a Runner advances the workload.
type Mode uint8

const (
	// ModeMeasure drives the target cycle-accurately — identical
	// semantics to Run's batched quantum path: StepScan straight off
	// the words when the target is a ScanTarget and the stream a
	// *trace.Cursor, Batch plus StepBatch otherwise.
	ModeMeasure Mode = iota
	// ModeWarm advances architectural state functionally via WarmBatch:
	// caches and TLB stay warm, but no cycles are charged; the virtual
	// clock advances at the configured nominal CPI instead.
	ModeWarm
	// ModeSkip fast-forwards the trace without touching the target at
	// all (SkipScan when the stream supports it), advancing the virtual
	// clock at the nominal CPI. Syscall boundaries are still honored.
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

// WarmTarget is a BatchTarget that can additionally advance its
// architectural state functionally, with no cycle accounting. WarmBatch
// must consume events exactly like StepBatch would (including the
// stop-after-syscall early exit) while leaving the clock and statistics
// untouched. *core.System satisfies it.
type WarmTarget interface {
	BatchTarget
	WarmBatch(pid mmu.PID, evs []trace.Event) (n int, err error)
}

// ScanWarmTarget is a WarmTarget that can also warm straight off a
// packed-trace cursor: WarmScan must be state-equivalent to draining
// the same events through WarmBatch, with the same consume-and-stop
// syscall contract. It is ScanTarget's functional-warming counterpart:
// the runner uses it automatically for warm-mode work on processes
// whose stream is a *trace.Cursor, and continuous functional warming in
// sampled simulation is only affordable through this path.
// *core.System satisfies it.
type ScanWarmTarget interface {
	WarmTarget
	WarmScan(pid mmu.PID, c *trace.Cursor, max int) (n int, syscall bool, err error)
}

// nomCPIScale is the fixed-point denominator for the nominal clock: the
// per-instruction charge of skipped/warmed work is kept in 1/256-cycle
// units so the virtual clock is exact integer arithmetic (float cycle
// accumulation would make switch points depend on summation order).
const nomCPIScale = 256

// Runner is a resumable round-robin scheduler: the same multiprogramming
// model as Run (level, time slices, syscall switches, process
// replacement), but advanced in caller-controlled instruction budgets
// at a caller-controlled fidelity per call. Sampled simulation uses it
// to alternate skip → warm → measure phases over one workload while
// preserving quantum state (a measurement interval can start and end
// mid-quantum, exactly where a full replay would be).
//
// Time-slice accounting runs on a virtual clock: the target's real
// cycle count plus a nominal charge for every skipped or warmed
// instruction (SetNominalCPI). Context-switch cadence during
// fast-forward therefore tracks the measured CPI instead of freezing
// (which would let a slice never expire) or ticking at the wrong rate.
type Runner struct {
	target   BatchTarget
	scan     ScanTarget     // nil if the target cannot step off cursors
	warm     WarmTarget     // nil if the target cannot warm
	scanWarm ScanWarmTarget // nil if the target cannot warm off cursors
	cfg      Config
	level    int
	slice    uint64

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

// NewRunner builds a resumable scheduler over procs. Every process
// stream must implement trace.BatchStream (packed-trace Cursors and
// MemTraces do); a Runner's whole point is bulk fast-forward, and the
// batch contract is what makes its stop points deterministic.
func NewRunner(target BatchTarget, procs []Process, cfg Config) (*Runner, error) {
	for _, p := range procs {
		if _, ok := p.Stream.(trace.BatchStream); !ok {
			return nil, fmt.Errorf("sched: runner process %q: stream %T does not implement trace.BatchStream", p.Name, p.Stream)
		}
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
		cfg:       cfg,
		level:     level,
		slice:     slice,
		res:       Result{PerProcess: make(map[string]uint64)},
		pending:   procs,
		nextPID:   1,
		nomCharge: nomCPIScale, // nominal CPI 1.0 until the caller measures
	}
	r.scan, _ = target.(ScanTarget)
	r.warm, _ = target.(WarmTarget)
	r.scanWarm, _ = target.(ScanWarmTarget)
	for len(r.active) < r.level && len(r.pending) > 0 {
		r.start()
	}
	r.startV = r.vnow()
	if len(r.active) == 0 {
		r.done = true
	}
	return r, nil
}

// start admits the next pending process, mirroring Run.
func (r *Runner) start() {
	if len(r.pending) == 0 {
		return
	}
	p := r.pending[0]
	r.pending = r.pending[1:]
	r.active = append(r.active, &process{name: p.Name, pid: r.nextPID, src: p.Stream})
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

// Err returns the latched fault or stream error, if any.
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
			r.sliceEnd = r.vnow() + r.slice
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

// chunkOutcome says how one batched step of a quantum ended.
type chunkOutcome uint8

const (
	chunkRunning chunkOutcome = iota
	chunkSwitched
	chunkTerminated
	chunkMaxed
	chunkFailed
)

// runChunk performs one bounded batch of p in the given mode: at most
// budget instructions, at most the current quantum's remaining virtual
// cycles, at most quantumBatchMax events. It updates instruction and
// switch accounting exactly like Run's quantum loops.
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
	k := r.sliceEnd - now
	if mode != ModeMeasure {
		k = (k*nomCPIScale + r.nomCharge - 1) / r.nomCharge
	}
	if r.cfg.MaxInstructions > 0 {
		rem := r.cfg.MaxInstructions - r.res.Instructions
		if rem == 0 {
			return chunkMaxed, 0, nil
		}
		if rem < k {
			k = rem
		}
	}
	if budget < k {
		k = budget
	}
	// The batch cap bounds the decode-ahead buffer, so it applies only
	// when events are materialized. SkipScan, WarmScan and StepScan
	// walk the packed words in place; capping them would both re-pay
	// the skip-index residue walk every quantumBatchMax events and add
	// call overhead, without changing where switches land
	// (fast-forwarded instructions all pay the same uniform
	// virtual-time charge, measured ones stop at the cycle budget, and
	// all three scans stop at syscalls on their own).
	cur, isCursor := p.src.(*trace.Cursor)
	scan := false
	switch mode {
	case ModeSkip:
		_, scan = p.src.(trace.SkipScanner)
	case ModeWarm:
		scan = isCursor && r.scanWarm != nil
	case ModeMeasure:
		scan = isCursor && r.scan != nil
	}
	if k > quantumBatchMax && !scan {
		k = quantumBatchMax
	}

	bs := p.src.(trace.BatchStream)
	var (
		n       int
		syscall bool
		err     error
	)
	switch {
	case mode == ModeSkip:
		if ss, ok := p.src.(trace.SkipScanner); ok {
			n, syscall = ss.SkipScan(int(k))
		} else {
			evs := bs.Batch(int(k))
			for n < len(evs) && !syscall {
				syscall = evs[n].Syscall
				n++
			}
			bs.Skip(n)
		}
		if n == 0 {
			return r.terminated(p)
		}
	case scan:
		if mode == ModeWarm {
			n, syscall, err = r.scanWarm.WarmScan(p.pid, cur, int(k))
		} else {
			n, syscall, err = r.scan.StepScan(p.pid, cur, int(k))
		}
		if n == 0 && err == nil {
			return r.terminated(p)
		}
	default:
		evs := bs.Batch(int(k))
		if len(evs) == 0 {
			return r.terminated(p)
		}
		if mode == ModeMeasure {
			n, err = r.target.StepBatch(p.pid, evs)
		} else {
			n, err = r.warm.WarmBatch(p.pid, evs)
		}
		bs.Skip(n)
		if n > 0 {
			syscall = evs[n-1].Syscall
		}
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

// terminated handles an exhausted stream: a stream error fails the run,
// otherwise the process completed.
func (r *Runner) terminated(p *process) (chunkOutcome, uint64, error) {
	if err := trace.StreamErr(p.src); err != nil {
		return chunkFailed, 0, fmt.Errorf("sched: process %q: trace stream after %d instructions: %w",
			p.name, r.res.PerProcess[p.name], err)
	}
	return chunkTerminated, 0, nil
}
