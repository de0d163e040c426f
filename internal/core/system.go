package core

import (
	"repro/internal/mmu"
	"repro/internal/trace"
)

// System is one simulated memory hierarchy: split L1, write buffer,
// unified or split L2, main memory, and the MMU. Feed it scheduled trace
// events with Step; read results from Stats.
//
// Timing is a single global cycle clock. Each instruction costs one
// issue cycle plus attributed stall cycles; the write buffer drains
// against the same clock in the background.
type System struct {
	l1Pair // the MMU, the caches, and their state transitions (warm.go)
	cfg    Config
	wb     *writeBuffer

	now          uint64
	memBusyUntil uint64 // main-memory occupancy from dirty-buffer drains
	flushBarrier uint64 // dirty-bit scheme: L2-D fetches wait past this
	nextCheck    uint64 // next self-check cycle when cfg.SelfCheck > 0
	fault        error  // first model fault; latched, Step refuses to run past it
	stats        Stats
}

// NewSystem validates cfg and builds a simulator.
func NewSystem(cfg Config) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m, err := mmu.New(cfg.MMU)
	if err != nil {
		return nil, err
	}
	s := &System{l1Pair: newL1Pair(m, &cfg), cfg: cfg}
	if cfg.L2Split {
		s.l2i = &l2bank{c: newCache(cfg.L2I.Geom), timing: cfg.L2I.Timing}
		s.l2d = &l2bank{c: newCache(cfg.L2D.Geom), timing: cfg.L2D.Timing}
	} else {
		u := &l2bank{c: newCache(cfg.L2U.Geom), timing: cfg.L2U.Timing}
		s.l2i, s.l2d = u, u
	}
	overlap := uint64(2)
	if lat := uint64(s.l2d.timing.Latency); lat < overlap {
		overlap = lat
	}
	if cfg.WBNoOverlap {
		overlap = 0
	}
	s.wb = newWriteBuffer(cfg.WBEntries, overlap, s.wbService)
	return s, nil
}

// Config returns the configuration the system was built with.
func (s *System) Config() Config { return s.cfg }

// Err returns the latched model fault, or nil. Once a fault is
// recorded (a write-buffer overflow, a failed invariant check) the
// system refuses further work: every subsequent Step returns the same
// error, so partial statistics remain attributable to the cycles that
// ran before the fault.
func (s *System) Err() error { return s.fault }

// fail latches the first model fault.
func (s *System) fail(err error) {
	if s.fault == nil && err != nil {
		s.fault = err
	}
}

// Now returns the current cycle.
func (s *System) Now() uint64 { return s.now }

// MMU exposes the memory management unit (for TLB statistics).
func (s *System) MMU() *mmu.MMU { return s.mmu }

// Stats returns a snapshot of the accumulated statistics.
func (s *System) Stats() Stats {
	st := s.stats
	st.Cycles = s.now
	st.ITLBMisses = s.mmu.ITLB().Stats().Misses
	st.DTLBMisses = s.mmu.DTLB().Stats().Misses
	return st
}

// stallFor charges n stall cycles to cause and advances the clock.
func (s *System) stallFor(cause Cause, n uint64) {
	if n == 0 {
		return
	}
	s.stats.Stalls[cause] += n
	s.now += n
}

// stallUntil advances the clock to target, charging the wait to cause.
func (s *System) stallUntil(cause Cause, target uint64) {
	if target > s.now {
		s.stallFor(cause, target-s.now)
	}
}

// Step simulates one instruction of process pid. A non-nil error means
// the model faulted (write-buffer overflow, failed self-check); the
// fault is latched, so retrying the Step returns the same error.
func (s *System) Step(pid mmu.PID, ev *trace.Event) error {
	if s.fault != nil {
		return s.fault
	}
	s.step(pid, noRun, ev.PC, ev.Data, ev.Kind, ev.Size, ev.Stall)
	return s.fault
}

// noRun is the line-run state of a call that has fetched nothing yet.
// It matches no line: a fetch address shifted right by at least the
// two byte-offset bits fits in 30 bits.
const noRun = ^uint32(0)

// step executes one instruction unconditionally; callers check the
// latched fault before and after. It is the one per-instruction body of
// Step, StepBatch and StepScan.
//
// run is the caller's line-run state: the virtual L1-I line of the
// previous fetch of this call when that fetch left its line resident
// and most recently used in its set, else noRun. step returns the state
// for the next instruction. A fetch from the run's line only counts its
// L1-I access and its I-TLB hit, and skips the translation and the
// probe (DESIGN.md §7, "Host fast paths"). That is exact because only an
// I-side refill writes L1-I: data references, write-buffer drains and
// L2 victims never touch it, so the probe would hit and its touch would
// leave the replacement state as it is. The same page's previous
// translation is the I-TLB's last key, so the lookup is a certain hit
// (see mmu.MMU.RepeatI). Callers keep run within one call for one PID;
// a virtual line names one physical line only within one address
// space.
func (s *System) step(pid mmu.PID, run, pc, data uint32, kind trace.Kind, size, stall uint8) uint32 {
	s.stats.Instructions++
	s.now++ // issue cycle
	if stall > 0 {
		s.stallFor(CauseCPU, uint64(stall))
	}
	if line := pc >> s.l1i.offBits; line == run {
		s.stats.L1IAccesses++
		s.mmu.RepeatI()
	} else if s.fetchInstruction(pid, pc) {
		run = line
	} else {
		run = noRun
	}
	switch kind {
	case trace.Load:
		s.load(pid, data)
	case trace.Store:
		s.store(pid, data, size)
	case trace.None:
		// No data reference; the fetch above was the only access.
	}
	s.wb.popCompleted(s.now)
	if s.cfg.SelfCheck > 0 && s.now >= s.nextCheck {
		s.nextCheck = s.now + s.cfg.SelfCheck
		s.fail(s.CheckInvariants())
	}
	return run
}

// StepBatch simulates events of process pid back to back, without the
// per-instruction interface dispatch a caller would otherwise pay, and
// returns how many of evs were executed. Semantics are exactly n
// successive Step calls: the returned n counts every attempted
// instruction, including one that latched a fault (whose error is
// returned, as Step would).
//
// The batch ends early, with a nil error, at two deterministic points:
//
//   - after an executed syscall event, so a scheduler can honor
//     syscall-triggered context switches at the exact instruction a
//     serial Step loop would; and
//   - once the clock has advanced at least len(evs) cycles since entry.
//     Every instruction costs at least one cycle, so a caller that
//     wants to run to a deadline at most k cycles away passes at most k
//     events and never overshoots; re-checking Now after the batch
//     returns recovers the exact serial switch point.
func (s *System) StepBatch(pid mmu.PID, evs []trace.Event) (int, error) {
	if s.fault != nil {
		if len(evs) == 0 {
			return 0, s.fault
		}
		return 1, s.fault
	}
	stop := s.now + uint64(len(evs))
	run := noRun
	for i := range evs {
		ev := &evs[i]
		run = s.step(pid, run, ev.PC, ev.Data, ev.Kind, ev.Size, ev.Stall)
		if s.fault != nil {
			return i + 1, s.fault
		}
		if ev.Syscall || s.now >= stop {
			return i + 1, nil
		}
	}
	return len(evs), nil
}

// StepScan is StepBatch straight off a packed cursor's words: it steps
// the events in place through trace.DecodeAt, without building Events.
// The contract is StepBatch's over the next max events of c: the scan
// consumes events until it has executed a syscall event (reported
// true), the clock has advanced at least max cycles since entry, a fault
// latches (returned, counting the faulting instruction), or the cursor
// runs out; n == 0 with max > 0 and a nil error means c is exhausted.
func (s *System) StepScan(pid mmu.PID, c *trace.Cursor, max int) (n int, syscall bool, err error) {
	if max <= 0 {
		return 0, false, s.fault
	}
	if s.fault != nil {
		// Like StepBatch, count the attempted instruction.
		n, _ = c.SkipScan(1)
		return n, false, s.fault
	}
	stop := s.now + uint64(max)
	run := noRun
	words, w := c.RawWords()
	for w < len(words) {
		pc, meta, data, next := trace.DecodeAt(words, w)
		w = next
		n++
		run = s.step(pid, run, pc, data, trace.Kind(meta>>trace.MetaKindShift),
			uint8(meta>>trace.MetaSizeShift), uint8(meta>>trace.MetaStallShift))
		if s.fault != nil {
			break
		}
		if meta&trace.MetaSyscallBit != 0 {
			syscall = true
			break
		}
		if s.now >= stop {
			break
		}
	}
	c.RawAdvance(w, n)
	return n, syscall, s.fault
}

// Run consumes an entire single-process stream (convenience for tests,
// examples, and single-program simulations). The returned statistics
// cover the instructions that ran, even when the run ends in an error.
func (s *System) Run(pid mmu.PID, src trace.Stream) (Stats, error) {
	var ev trace.Event
	for src.Next(&ev) {
		if err := s.Step(pid, &ev); err != nil {
			return s.Stats(), err
		}
	}
	if err := trace.StreamErr(src); err != nil {
		return s.Stats(), err
	}
	s.DrainWriteBuffer()
	return s.Stats(), s.fault
}

// Release hands the system's cache arrays back for reuse by later
// NewSystem calls, so a caller that simulates one configuration after
// another (a sweep, a serving daemon) does not allocate them afresh for
// each. Read the results first: the system must not be used after
// Release (a later step panics on the cleared caches). Calling Release
// again does nothing.
func (s *System) Release() {
	if s.l1i == nil {
		return
	}
	s.l1i.release()
	s.l1d.release()
	s.l2i.c.release()
	if s.l2d != s.l2i {
		s.l2d.c.release()
	}
	s.l1i, s.l1d, s.l2i, s.l2d = nil, nil, nil, nil
}

// DrainWriteBuffer retires all pending writes without charging CPU
// stalls, so final L2 state and statistics are consistent at the end of
// a simulation.
func (s *System) DrainWriteBuffer() { s.wb.popAll() }

// waitWBEmpty stalls until the write buffer has drained, charging the
// wait to the WB cause, and retires the drained entries.
func (s *System) waitWBEmpty() {
	if s.wb.len() == 0 {
		return
	}
	s.stallUntil(CauseWB, s.wb.emptyCompletion(s.now))
	s.wb.popAll()
}

// fetchInstruction services the instruction fetch at vaddr and reports
// whether the fetched line is now resident and most recently used in
// its set, as a line run needs: a hit always leaves it so, a refill when
// iRefillKeepsLine.
func (s *System) fetchInstruction(pid mmu.PID, vaddr uint32) bool {
	paddr, tlbHit := s.mmu.TranslateI(pid, vaddr)
	if !tlbHit && s.cfg.TLBMissPenalty > 0 {
		s.stallFor(CauseTLB, uint64(s.cfg.TLBMissPenalty))
	}
	s.stats.L1IAccesses++
	if s.l1i.probe(s.l1i.lineAddr(paddr)) >= 0 {
		return true
	}
	s.stats.L1IMisses++
	if s.cfg.IMissWaitsForWB {
		s.waitWBEmpty()
	}
	s.refill(s.l1i, s.l2i, paddr, s.l1iFetchBytes, true)
	return s.iRefillKeepsLine
}

// refill fetches the aligned fetch block containing paddr from the given
// L2 bank into l1, charging refill cycles to the L1 miss cause and
// memory penalties to the L2 miss cause for the side.
func (s *System) refill(l1 *cache, bank *l2bank, paddr, fetchBytes uint64, instrSide bool) {
	missCause, memCause := CauseL1DMiss, CauseL2DMiss
	if instrSide {
		missCause, memCause = CauseL1IMiss, CauseL2IMiss
	}
	block := paddr &^ (fetchBytes - 1)

	// Evictions are handled before the L2 read so that any flush the
	// replacement triggers lands its writes in L2 first.
	if !instrSide {
		var buf [8]victim
		for _, v := range s.victims(block, buf[:0]) {
			s.evictFor(v)
		}
	}

	refillCycles, memCycles := s.l2Read(bank, block, int(fetchBytes)/trace.WordBytes, instrSide)
	s.stallFor(missCause, refillCycles)
	s.stallFor(memCause, memCycles)
	l1.fill(block, fetchBytes)
}

// evictFor does the timed work of displacing a dirty L1-D line: a
// write-back victim enters the write buffer; under the dirty-bit
// loads-pass-stores scheme, replacing a dirty line flushes the write
// buffer to keep L2-D consistent without associative matching.
func (s *System) evictFor(v victim) {
	if !s.writeThrough {
		s.enqueueWrite(v.line<<s.l1d.offBits, 1<<s.l1d.offBits)
		return
	}
	if s.cfg.LoadsPassStores == LPSDirtyBit {
		// The replaced dirty line may have writes still in the buffer.
		// The buffer drains in the background; only fetches ordered
		// after this point must wait for it (the flush barrier) — with
		// one exception: a read that reallocates this very line (a
		// write-only line being read) must see its writes in L2 first,
		// so it waits for the whole drain now.
		s.stats.WBFlushes++
		if v.self {
			s.waitWBEmpty()
		} else {
			s.flushBarrier = s.wb.emptyCompletion(s.now)
		}
	}
}

// enqueueWrite places bytes at addr into the write buffer as one or more
// entries of the configured width, stalling for free slots as needed.
func (s *System) enqueueWrite(addr, bytes uint64) {
	entryBytes := uint64(s.cfg.WBEntryWords * trace.WordBytes)
	for off := uint64(0); off < bytes; off += entryBytes {
		if s.wb.full() {
			s.stats.WBFullStalls++
			s.stallUntil(CauseWB, s.wb.headComplete())
			s.wb.popCompleted(s.now)
		}
		w := int(entryBytes) / trace.WordBytes
		if rem := int(bytes-off) / trace.WordBytes; rem < w {
			w = rem
		}
		if w < 1 {
			w = 1 // partial-word store still occupies a one-word entry
		}
		if err := s.wb.push(addr+off, w, s.now); err != nil {
			s.fail(err)
			return
		}
		s.stats.WBEnqueues++
	}
}

// load services a data read at vaddr.
func (s *System) load(pid mmu.PID, vaddr uint32) {
	paddr, tlbHit := s.mmu.TranslateD(pid, vaddr)
	if !tlbHit && s.cfg.TLBMissPenalty > 0 {
		s.stallFor(CauseTLB, uint64(s.cfg.TLBMissPenalty))
	}
	s.stats.L1DReads++
	switch s.readMiss(s.l1d.find(s.l1d.lineAddr(paddr)), paddr) {
	case NoMiss:
		return
	case WriteOnlyMiss:
		s.stats.WriteOnlyReadMisses++
	case WordMiss:
		s.stats.SubblockWordMisses++
	case LineMiss:
	}
	s.stats.L1DReadMisses++
	s.beforeDataMissFetch(paddr)
	s.refill(s.l1d, s.l2d, paddr, s.l1dFetchBytes, false)
}

// beforeDataMissFetch applies the configured loads-pass-stores scheme
// before a data-side refill reads L2.
func (s *System) beforeDataMissFetch(paddr uint64) {
	switch s.cfg.LoadsPassStores {
	case LPSNone:
		s.waitWBEmpty()
	case LPSAssociative:
		if t, ok := s.wb.matchCompletion(paddr, s.l1d.offBits); ok {
			s.stats.WBFlushes++
			s.stallUntil(CauseWB, t)
			s.wb.popCompleted(s.now)
		}
	case LPSDirtyBit:
		// The read proceeds unless a recent dirty replacement left a
		// flush in progress, in which case fetches wait it out.
		if s.flushBarrier > s.now {
			s.stallUntil(CauseWB, s.flushBarrier)
			s.wb.popCompleted(s.now)
		}
	}
}

// store services a data write of size bytes at vaddr.
func (s *System) store(pid mmu.PID, vaddr uint32, size uint8) {
	paddr, tlbHit := s.mmu.TranslateD(pid, vaddr)
	if !tlbHit && s.cfg.TLBMissPenalty > 0 {
		s.stallFor(CauseTLB, uint64(s.cfg.TLBMissPenalty))
	}
	s.stats.L1DWrites++
	if s.writeThrough {
		s.enqueueWrite(paddr&^3, uint64(trace.WordBytes)) // one word-wide entry
	}
	line := s.l1d.lineAddr(paddr)
	if s.writeHit(s.l1d.probe(line), paddr, size) {
		if !s.writeThrough {
			// Two-cycle write-back hit: tag check before commit. A
			// write-through hit writes while the tag checks.
			s.stallFor(CauseL1Write, 1)
		}
		return
	}
	s.stats.L1DWriteMisses++
	if s.writeThrough {
		// The write corrupted whatever the index selected; a second
		// cycle invalidates it or installs the new tag.
		s.stallFor(CauseL1Write, 1)
	}
	// A write-back miss takes one cycle, then write-allocates: the
	// refill waits for the buffer to empty, as every miss does.
	ev := s.writeMiss(line, paddr, size, func() {
		s.waitWBEmpty()
		s.refill(s.l1d, s.l2d, paddr, s.l1dFetchBytes, false)
	})
	if ev.dirty {
		s.evictFor(victim{line: ev.line})
	}
}

// l2Read performs an L1 refill read of `words` at block from bank,
// returning the refill cycles and any main-memory penalty cycles.
func (s *System) l2Read(bank *l2bank, block uint64, words int, instrSide bool) (refill, mem uint64) {
	if instrSide {
		s.stats.L2IAccesses++
	} else {
		s.stats.L2DAccesses++
	}
	refill = uint64(bank.timing.RefillCycles(words))
	hit, ev := bank.access(block, false)
	if hit {
		return refill, 0
	}
	if instrSide {
		s.stats.L2IMisses++
	} else {
		s.stats.L2DMisses++
	}
	return refill, s.memoryFetch(ev, s.now+refill)
}

// wbService drains one write-buffer entry into L2-D beginning at cycle
// start and returns the cycles the drain occupies.
func (s *System) wbService(addr uint64, words int, start uint64) uint64 {
	s.stats.L2DAccesses++
	cycles := uint64(s.l2d.timing.AccessTime())
	if hit, ev := s.l2d.access(addr, true); !hit {
		// Write-allocate: the line must be fetched from memory before
		// the (partial) write can be merged.
		s.stats.L2DMisses++
		cycles += s.memoryFetch(ev, start+cycles)
	}
	return cycles
}

// memoryFetch returns the penalty cycles of an L2 miss whose line comes
// from main memory at cycle start, having displaced ev from L2,
// accounting for a dirty victim (written back inline, or via the dirty
// buffer when configured) and for the memory bus still being busy with a
// previous dirty-buffer write-back.
func (s *System) memoryFetch(ev evicted, start uint64) uint64 {
	var wait uint64
	if s.memBusyUntil > start {
		wait = s.memBusyUntil - start
	}
	penalty := uint64(s.cfg.MemCleanPenalty)
	if ev.dirty {
		s.stats.L2DDirtyMisses++
		if s.cfg.L2DirtyBuffer {
			// Read the requested line first; the dirty line drains from
			// the buffer afterwards, keeping the bus busy.
			s.memBusyUntil = start + wait + penalty +
				uint64(s.cfg.MemDirtyPenalty-s.cfg.MemCleanPenalty)
			return wait + penalty
		}
		penalty = uint64(s.cfg.MemDirtyPenalty)
	}
	s.memBusyUntil = start + wait + penalty
	return wait + penalty
}
