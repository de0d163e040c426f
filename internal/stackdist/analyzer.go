package stackdist

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/mmu"
	"repro/internal/sched"
	"repro/internal/trace"
)

// FilterStats counts the filter L1's traffic. The filter is core's
// untimed L1 model (core.Filter), the one functional warming runs, so
// each field counts exactly what the exact simulator's Stats field of
// the same name counts; screening CPI estimates and validation tests
// line the two up.
type FilterStats struct {
	L1IAccesses, L1IMisses        uint64
	L1DReads, L1DReadMisses       uint64
	L1DWrites, L1DWriteMisses     uint64
	WriteOnlyReadMisses           uint64
	SubblockWordMisses            uint64
	L2IReads, L2DReads, L2DWrites uint64
}

// Analyzer is the one-pass engine. It implements sched.Target and
// sched.BatchTarget, so it plugs into the same round-robin
// multiplexing as the cycle-accurate core.System; Step never fails
// (the analyzer has no invariant checker and no fault paths), so a
// pass over a well-formed recording always completes.
type Analyzer struct {
	classes [numClasses]*classAnalyzer
	filter  *core.Filter

	// now is the nominal clock: one cycle per instruction plus the
	// trace's recorded CPU stalls. Cache timing never advances it, so
	// the schedule depends only on the instruction streams — which is
	// exactly the cycle-accurate schedule whenever context switches
	// are syscall-driven rather than slice-expiry-driven.
	now          uint64
	instructions uint64
	maxPID       int
	pid          int // the PID of the instruction being analyzed

	// Fetch line run: fetchShift turns a fetch address into its line
	// number at the finer of the filter L1-I and grid L1-I line sizes,
	// and lastFetch is the previous fetch's PID<<32 | virtual line
	// (noLine before the first fetch).
	fetchShift uint
	lastFetch  uint64

	counts FilterStats
}

// New builds an analyzer for the configuration.
func New(cfg Config) (*Analyzer, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	a := &Analyzer{lastFetch: noLine}
	a.classes[ClassL1I] = newClassAnalyzer(ClassL1I, cfg.L1I)
	a.classes[ClassL1D] = newClassAnalyzer(ClassL1D, cfg.L1D)
	a.classes[ClassL2U] = newClassAnalyzer(ClassL2U, cfg.L2)
	a.classes[ClassL2I] = newClassAnalyzer(ClassL2I, cfg.L2)
	a.classes[ClassL2D] = newClassAnalyzer(ClassL2D, cfg.L2)
	f, err := core.NewFilter(cfg.FilterL1I, cfg.FilterL1D, cfg.FilterPolicy, cfg.MMU, l2Side{a})
	if err != nil {
		return nil, fmt.Errorf("stackdist: %w", err)
	}
	a.filter = f
	filterShift := log2(uint64(cfg.FilterL1I.LineWords * trace.WordBytes))
	a.fetchShift = min(filterShift, a.classes[ClassL1I].offBits)
	return a, nil
}

// Now returns the nominal clock (sched.Target).
func (a *Analyzer) Now() uint64 { return a.now }

// Step analyzes one instruction (sched.Target). The error is always
// nil; the signature satisfies the scheduler's contract.
func (a *Analyzer) Step(pid mmu.PID, ev *trace.Event) error {
	a.step(pid, ev)
	return nil
}

// StepBatch analyzes events back to back (sched.BatchTarget), with the
// same deterministic early-exit rule as core.System.StepBatch: return
// after an executed syscall, or once the clock has advanced at least
// len(evs) cycles since entry. Matching the rule exactly means the
// scheduler produces the same interleaving for the analyzer as for the
// simulator.
func (a *Analyzer) StepBatch(pid mmu.PID, evs []trace.Event) (int, error) {
	stop := a.now + uint64(len(evs))
	for i := range evs {
		ev := &evs[i]
		a.step(pid, ev)
		if ev.Syscall || a.now >= stop {
			return i + 1, nil
		}
	}
	return len(evs), nil
}

// step analyzes one instruction: the fetch, then the data reference.
// The filter runs each access and reports its physical address and
// miss kind; its L2 references arrive through l2Side meanwhile.
func (a *Analyzer) step(pid mmu.PID, ev *trace.Event) {
	a.instructions++
	a.now += 1 + uint64(ev.Stall)
	p := int(pid)
	a.pid = p
	if p > a.maxPID {
		a.maxPID = p
	}
	a.fetch(pid, p, ev.PC)
	switch ev.Kind {
	case trace.Load:
		paddr, miss := a.filter.Load(pid, ev.Data)
		a.classes[ClassL1D].access(paddr, false, p)
		a.counts.L1DReads++
		switch miss {
		case core.NoMiss:
		case core.LineMiss:
			a.counts.L1DReadMisses++
		case core.WriteOnlyMiss:
			a.counts.L1DReadMisses++
			a.counts.WriteOnlyReadMisses++
		case core.WordMiss:
			a.counts.L1DReadMisses++
			a.counts.SubblockWordMisses++
		}
	case trace.Store:
		paddr, miss := a.filter.Store(pid, ev.Data, ev.Size)
		a.classes[ClassL1D].access(paddr, true, p)
		a.counts.L1DWrites++
		if miss != core.NoMiss {
			a.counts.L1DWriteMisses++
		}
	case trace.None:
		// Plain instruction: no data reference.
	}
}

// fetch feeds one instruction fetch to the filter and the ClassL1I
// stacks.
//
// A fetch from the same virtual line as the previous fetch, by the
// same PID, only counts: its line is on top of every L1-I stack and
// resident and most recent in the filter L1-I, because data references
// touch neither, so translation, the filter probe and the walk would
// change nothing. It lands in bucket 0 of the first grid, which the
// snapshot's prefix sum carries to the rest. Virtual line identity is
// sound because a line never spans a page.
func (a *Analyzer) fetch(pid mmu.PID, p int, vaddr uint32) {
	a.counts.L1IAccesses++
	key := uint64(pid)<<32 | uint64(vaddr>>a.fetchShift)
	if key == a.lastFetch {
		a.classes[ClassL1I].grids[0].count(0, false, p)
		return
	}
	a.lastFetch = key
	paddr, miss := a.filter.Fetch(pid, vaddr)
	a.classes[ClassL1I].access(paddr, false, p)
	if miss != core.NoMiss {
		a.counts.L1IMisses++
	}
}

// l2Side is the filter's L2 side (core.L2Observer): it feeds each
// secondary-cache reference, under the current PID, to the unified
// class and to the split class for its side, and counts it.
type l2Side struct{ a *Analyzer }

func (o l2Side) L2Read(addr uint64, instrSide bool) {
	a := o.a
	a.classes[ClassL2U].access(addr, false, a.pid)
	if instrSide {
		a.classes[ClassL2I].access(addr, false, a.pid)
		a.counts.L2IReads++
		return
	}
	a.classes[ClassL2D].access(addr, false, a.pid)
	a.counts.L2DReads++
}

func (o l2Side) L2Write(addr uint64) {
	a := o.a
	a.classes[ClassL2U].access(addr, true, a.pid)
	a.classes[ClassL2D].access(addr, true, a.pid)
	a.counts.L2DWrites++
}

// Analyze runs one pass over the processes under the round-robin
// scheduler and returns the grid result. This is the package's main
// entry point: one call, one replay, every configuration.
func Analyze(cfg Config, procs []sched.Process, scfg sched.Config) (*Result, sched.Result, error) {
	a, err := New(cfg)
	if err != nil {
		return nil, sched.Result{}, err
	}
	sres, err := sched.Run(a, procs, scfg)
	if err != nil {
		return nil, sres, fmt.Errorf("stackdist: %w", err)
	}
	return a.Result(), sres, nil
}
