package stackdist

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/mmu"
	"repro/internal/sched"
	"repro/internal/trace"
)

// FilterStats counts the filter L1's traffic, mirroring the exact
// simulator's corresponding Stats fields so screening CPI estimates
// and validation tests can line the two up.
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
	cfg    Config
	mmu    *mmu.MMU
	policy core.WritePolicy

	classes [numClasses]*classAnalyzer
	fl1i    *filterCache
	fl1d    *filterCache

	// now is the nominal clock: one cycle per instruction plus the
	// trace's recorded CPU stalls. Cache timing never advances it, so
	// the schedule depends only on the instruction streams — which is
	// exactly the cycle-accurate schedule whenever context switches
	// are syscall-driven rather than slice-expiry-driven.
	now          uint64
	instructions uint64
	maxPID       int

	// Fetch line run: fetchShift turns a fetch address into its line
	// number at the finer of the filter L1-I and grid L1-I line sizes,
	// and lastFetch is the previous fetch's PID<<32 | virtual line
	// (noLine before the first fetch).
	fetchShift uint
	lastFetch  uint64

	filter FilterStats
}

// New builds an analyzer for the configuration.
func New(cfg Config) (*Analyzer, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m, err := mmu.New(cfg.MMU)
	if err != nil {
		return nil, fmt.Errorf("stackdist: MMU: %w", err)
	}
	a := &Analyzer{
		cfg:       cfg,
		mmu:       m,
		policy:    cfg.FilterPolicy,
		fl1i:      newFilterCache(cfg.FilterL1I),
		fl1d:      newFilterCache(cfg.FilterL1D),
		lastFetch: noLine,
	}
	a.classes[ClassL1I] = newClassAnalyzer(ClassL1I, cfg.L1I)
	a.classes[ClassL1D] = newClassAnalyzer(ClassL1D, cfg.L1D)
	a.classes[ClassL2U] = newClassAnalyzer(ClassL2U, cfg.L2)
	a.classes[ClassL2I] = newClassAnalyzer(ClassL2I, cfg.L2)
	a.classes[ClassL2D] = newClassAnalyzer(ClassL2D, cfg.L2)
	a.fetchShift = min(a.fl1i.offBits, a.classes[ClassL1I].offBits)
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
func (a *Analyzer) step(pid mmu.PID, ev *trace.Event) {
	a.instructions++
	a.now += 1 + uint64(ev.Stall)
	if p := int(pid); p > a.maxPID {
		a.maxPID = p
	}
	a.fetchInstruction(pid, ev.PC)
	switch ev.Kind {
	case trace.Load:
		a.load(pid, ev.Data)
	case trace.Store:
		a.store(pid, ev.Data, ev.Size)
	case trace.None:
		// Plain instruction: no data reference.
	}
}

// fetchInstruction mirrors System.fetchInstruction without timing: the
// L1-I stream feeds the ClassL1I stacks, and filter misses feed the
// instruction side of the L2 stream.
//
// A fetch from the same virtual line as the previous fetch, by the
// same PID, only counts: its line is on top of every L1-I stack and
// resident and most recent in the filter L1-I, because data references
// touch neither, so translation, the filter probe and the walk would
// change nothing. It lands in bucket 0 of the first grid, which the
// snapshot's prefix sum carries to the rest. Virtual line identity is
// sound because a line never spans a page.
func (a *Analyzer) fetchInstruction(pid mmu.PID, vaddr uint32) {
	p := int(pid)
	a.filter.L1IAccesses++
	key := uint64(pid)<<32 | uint64(vaddr>>a.fetchShift)
	if key == a.lastFetch {
		a.classes[ClassL1I].grids[0].count(0, false, p)
		return
	}
	a.lastFetch = key
	paddr, _ := a.mmu.TranslateI(pid, vaddr)
	a.classes[ClassL1I].access(paddr, false, p)
	f := a.fl1i
	line := f.lineAddr(paddr)
	if slot := f.find(line); slot >= 0 && f.flags[slot]&fValid != 0 {
		f.touch(slot)
		return
	}
	a.filter.L1IMisses++
	a.l2Access(paddr, false, p, true)
	f.insert(line, fValid, f.fullMask)
}

// l2Access feeds one secondary-cache reference to the unified class
// and to the split class for its side.
func (a *Analyzer) l2Access(addr uint64, write bool, pid int, instrSide bool) {
	a.classes[ClassL2U].access(addr, write, pid)
	if instrSide {
		a.classes[ClassL2I].access(addr, write, pid)
		a.filter.L2IReads++
		return
	}
	a.classes[ClassL2D].access(addr, write, pid)
	if write {
		a.filter.L2DWrites++
	} else {
		a.filter.L2DReads++
	}
}

// refillData mirrors System.refill on the data side for a one-line
// fetch: under write-back, the dirty victim's write lands in the L2
// stream right after the refill read — the order the write buffer
// produces under LPSNone, where every refill drains the buffer before
// reading L2.
func (a *Analyzer) refillData(paddr uint64, pid int) {
	f := a.fl1d
	line := f.lineAddr(paddr)
	var victimAddr uint64
	victimDirty := false
	if a.policy == core.WriteBack {
		slot := f.find(line)
		if slot < 0 {
			slot = f.victimSlot(line)
		}
		if f.tags[slot] != fTagInvalid && f.flags[slot]&fDirty != 0 {
			victimDirty = true
			victimAddr = f.tags[slot] << f.offBits
			f.flags[slot] &^= fDirty
		}
	}
	a.l2Access(paddr, false, pid, false)
	if victimDirty {
		a.l2Access(victimAddr, true, pid, false)
	}
	f.insert(line, fValid, f.fullMask)
}

// load mirrors System.load without timing.
func (a *Analyzer) load(pid mmu.PID, vaddr uint32) {
	paddr, _ := a.mmu.TranslateD(pid, vaddr)
	p := int(pid)
	a.classes[ClassL1D].access(paddr, false, p)
	a.filter.L1DReads++
	f := a.fl1d
	line := f.lineAddr(paddr)
	if slot := f.find(line); slot >= 0 {
		fl := f.flags[slot]
		switch {
		case fl&fWriteOnly != 0:
			a.filter.WriteOnlyReadMisses++
		case a.policy == core.Subblock && f.masks[slot]&(1<<f.wordOf(paddr)) == 0:
			a.filter.SubblockWordMisses++
		case fl&fValid != 0:
			f.touch(slot)
			return
		}
	}
	a.filter.L1DReadMisses++
	a.refillData(paddr, p)
}

// store mirrors System.store without timing. Write-through policies
// place the stored word in the L2 stream at store time — the order the
// write buffer produces under LPSNone — and the per-policy allocation
// behavior matches the simulator's state machine branch for branch.
func (a *Analyzer) store(pid mmu.PID, vaddr uint32, size uint8) {
	paddr, _ := a.mmu.TranslateD(pid, vaddr)
	p := int(pid)
	a.classes[ClassL1D].access(paddr, true, p)
	a.filter.L1DWrites++
	if a.policy != core.WriteBack {
		a.l2Access(paddr&^3, true, p, false)
	}
	f := a.fl1d
	line := f.lineAddr(paddr)
	slot := f.find(line)

	switch a.policy {
	case core.WriteBack:
		if slot >= 0 && f.flags[slot]&fValid != 0 {
			f.flags[slot] |= fDirty
			f.touch(slot)
			return
		}
		a.filter.L1DWriteMisses++
		a.refillData(paddr, p)
		if slot = f.find(line); slot >= 0 {
			f.flags[slot] |= fDirty
		}

	case core.WriteMissInvalidate:
		if slot >= 0 && f.flags[slot]&fValid != 0 {
			f.touch(slot)
			return
		}
		a.filter.L1DWriteMisses++
		victim := f.victimSlot(line)
		if f.tags[victim] != fTagInvalid {
			f.tags[victim] = fTagInvalid
			f.flags[victim] = 0
			f.masks[victim] = 0
		}

	case core.WriteOnly:
		if slot >= 0 && f.flags[slot]&(fValid|fWriteOnly) != 0 {
			f.flags[slot] |= fDirty
			f.touch(slot)
			return
		}
		a.filter.L1DWriteMisses++
		f.insert(line, fWriteOnly|fDirty, 0)

	case core.Subblock:
		fullWord := size >= trace.WordBytes && paddr&3 == 0
		if slot >= 0 && f.flags[slot]&fValid != 0 {
			if fullWord {
				f.masks[slot] |= 1 << f.wordOf(paddr)
			}
			f.flags[slot] |= fDirty
			f.touch(slot)
			return
		}
		a.filter.L1DWriteMisses++
		var mask uint32
		if fullWord {
			mask = 1 << f.wordOf(paddr)
		}
		f.insert(line, fValid|fDirty, mask)
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
