package stackdist

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/mmu"
	"repro/internal/sched"
	"repro/internal/trace"
)

// FilterStats counts the filter L1's traffic. The filter (core.Filter)
// applies the exact simulator's own cache-state transitions, so each
// field counts exactly what the exact simulator's Stats field of the
// same name counts; screening CPI estimates and validation tests
// line the two up.
type FilterStats struct {
	L1IAccesses, L1IMisses        uint64
	L1DReads, L1DReadMisses       uint64
	L1DWrites, L1DWriteMisses     uint64
	WriteOnlyReadMisses           uint64
	SubblockWordMisses            uint64
	L2IReads, L2DReads, L2DWrites uint64
}

// Analyzer is the one-pass engine. It implements sched.Target, so it
// plugs into the same round-robin multiplexing as the cycle-accurate
// core.System, and the scheduler steps it straight off packed-trace
// cursors; it never fails (the analyzer has no invariant checker and no
// fault paths), so a pass over a well-formed recording always
// completes.
type Analyzer struct {
	// classes holds the selected classes' analyzers (Config.Classes);
	// an unselected class's entry is nil, and feeding it does nothing.
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
	// number at the finer of the filter L1-I and grid L1-I line sizes
	// (the filter's alone when ClassL1I is unselected), and lastFetch is
	// the previous fetch's PID<<32 | virtual line (noLine before the
	// first fetch).
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
	for c, spec := range [numClasses]GridSpec{cfg.L1I, cfg.L1D, cfg.L2, cfg.L2, cfg.L2} {
		if cfg.Classes.Has(Class(c)) {
			a.classes[c] = newClassAnalyzer(Class(c), spec)
		}
	}
	f, err := core.NewFilter(cfg.FilterL1I, cfg.FilterL1D, cfg.FilterPolicy, cfg.MMU, l2Side{a})
	if err != nil {
		return nil, fmt.Errorf("stackdist: %w", err)
	}
	a.filter = f
	a.fetchShift = log2(uint64(cfg.FilterL1I.LineWords * trace.WordBytes))
	if l1i := a.classes[ClassL1I]; l1i != nil {
		a.fetchShift = min(a.fetchShift, l1i.offBits)
	}
	return a, nil
}

// Now returns the nominal clock (sched.Target).
func (a *Analyzer) Now() uint64 { return a.now }

// Step analyzes one instruction: the per-event reference StepScan is
// held to, as core.System.Step is for the simulator. The error is
// always nil.
func (a *Analyzer) Step(pid mmu.PID, ev *trace.Event) error {
	a.step(pid, ev.PC, ev.Data, ev.Kind, ev.Size, ev.Stall)
	return nil
}

// StepScan analyzes the next events of a packed cursor in place
// through trace.DecodeAt, without building Events (sched.Target). Its
// stops are core.System.StepScan's, so the scheduler produces the same
// interleaving for the analyzer as for the simulator: the scan consumes
// events until it has analyzed a syscall event (reported true), the
// clock has advanced at least max cycles since entry, or the cursor runs
// out; n == 0 with max > 0 means c is exhausted. The error is always
// nil.
func (a *Analyzer) StepScan(pid mmu.PID, c *trace.Cursor, max int) (n int, syscall bool, err error) {
	if max <= 0 {
		return 0, false, nil
	}
	stop := a.now + uint64(max)
	words, w := c.RawWords()
	for w < len(words) {
		pc, meta, data, next := trace.DecodeAt(words, w)
		w = next
		n++
		a.step(pid, pc, data, trace.Kind(meta>>trace.MetaKindShift),
			uint8(meta>>trace.MetaSizeShift), uint8(meta>>trace.MetaStallShift))
		if meta&trace.MetaSyscallBit != 0 {
			syscall = true
			break
		}
		if a.now >= stop {
			break
		}
	}
	c.RawAdvance(w, n)
	return n, syscall, nil
}

// step analyzes one instruction from its decoded fields: the fetch,
// then the data reference. It is the one per-instruction body of Step
// and StepScan. The filter runs each access and reports its
// physical address and miss kind; its L2 references arrive through
// l2Side meanwhile.
func (a *Analyzer) step(pid mmu.PID, pc, data uint32, kind trace.Kind, size, stall uint8) {
	a.instructions++
	a.now += 1 + uint64(stall)
	p := int(pid)
	a.pid = p
	if p > a.maxPID {
		a.maxPID = p
	}
	a.fetch(pid, p, pc)
	switch kind {
	case trace.Load:
		paddr, miss := a.filter.Load(pid, data)
		if l1d := a.classes[ClassL1D]; l1d != nil {
			l1d.access(paddr, false, p)
		}
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
		paddr, miss := a.filter.Store(pid, data, size)
		if l1d := a.classes[ClassL1D]; l1d != nil {
			l1d.access(paddr, true, p)
		}
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
		if l1i := a.classes[ClassL1I]; l1i != nil {
			l1i.grids[0].count(0, false, p)
		}
		return
	}
	a.lastFetch = key
	paddr, miss := a.filter.Fetch(pid, vaddr)
	if l1i := a.classes[ClassL1I]; l1i != nil {
		l1i.access(paddr, false, p)
	}
	if miss != core.NoMiss {
		a.counts.L1IMisses++
	}
}

// l2Side is the filter's L2 side (core.L2Observer): it feeds each
// secondary-cache reference, under the current PID, to the unified
// class and to the split class for its side (those selected), and
// counts it.
type l2Side struct{ a *Analyzer }

func (o l2Side) L2Read(addr uint64, instrSide bool) {
	if instrSide {
		o.a.counts.L2IReads++
		o.a.l2Access(addr, false, ClassL2I)
		return
	}
	o.a.counts.L2DReads++
	o.a.l2Access(addr, false, ClassL2D)
}

func (o l2Side) L2Write(addr uint64) {
	o.a.counts.L2DWrites++
	o.a.l2Access(addr, true, ClassL2D)
}

// l2Access feeds one secondary-cache reference to the unified class
// and to side's split class, each if selected.
func (a *Analyzer) l2Access(addr uint64, write bool, side Class) {
	if l2u := a.classes[ClassL2U]; l2u != nil {
		l2u.access(addr, write, a.pid)
	}
	if c := a.classes[side]; c != nil {
		c.access(addr, write, a.pid)
	}
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
