package core

import (
	"repro/internal/mmu"
	"repro/internal/trace"
)

// Functional warming: the fast-forward mode of sampled simulation.
//
// WarmBatch advances the architectural state an upcoming measurement
// interval depends on — L1/L2 tag and replacement state, line flags and
// subblock masks, TLB contents — without any cycle accounting: no
// clock, no stall attribution, no Stats counters, no write-buffer
// timing. Each warm helper mirrors its cycle-accurate sibling
// (fetchInstruction/load/store/refill/l2Read/wbService) with the timing
// stripped out; keep the pairs in sync when the exact model changes.
//
// One ordering rule is inherited from the write buffer: a write-back
// victim's L2 probe happens in FIFO order *after* the refill read that
// displaced it (the exact engine enqueues the victim, reads L2, and
// drains the buffer afterwards). warmRefill therefore collects victims
// first but applies their L2 writes after the read. Write-through
// stores have no such reordering window that the exact engine's
// wait-for-empty rules would preserve, so they probe L2 immediately.

// WarmBatch functionally executes events of process pid and returns how
// many were consumed. Like StepBatch it stops early, after the event,
// when an executed event is a syscall, so a scheduler can honor
// syscall-triggered context switches at the exact instruction a full
// replay would. A latched model fault refuses further work exactly as
// Step does.
func (s *System) WarmBatch(pid mmu.PID, evs []trace.Event) (int, error) {
	if s.fault != nil {
		if len(evs) == 0 {
			return 0, s.fault
		}
		return 1, s.fault
	}
	for i := range evs {
		ev := &evs[i]
		s.warmFetch(pid, ev.PC)
		switch ev.Kind {
		case trace.Load:
			s.warmLoad(pid, ev.Data)
		case trace.Store:
			s.warmStore(pid, ev.Data, ev.Size)
		case trace.None:
			// No data reference; the fetch above was the only access.
		}
		if ev.Syscall {
			return i + 1, nil
		}
	}
	return len(evs), nil
}

// warmFetch mirrors fetchInstruction: TLB, L1-I probe, refill on miss,
// and the same report of whether a line run may start.
func (s *System) warmFetch(pid mmu.PID, vaddr uint32) bool {
	paddr := s.mmu.TranslateWarmI(pid, vaddr)
	line := s.l1i.lineAddr(paddr)
	if slot := s.l1i.find(line); slot >= 0 && s.l1i.flags[slot]&flagValid != 0 {
		s.l1i.touch(slot)
		return true
	}
	s.warmRefill(s.l1i, s.l2i, paddr, s.l1iFetchBytes, true)
	return s.iRefillKeepsLine
}

// warmLoad mirrors load, including the write-only and subblock
// word-miss reallocation cases.
func (s *System) warmLoad(pid mmu.PID, vaddr uint32) {
	paddr := s.mmu.TranslateWarmD(pid, vaddr)
	line := s.l1d.lineAddr(paddr)
	if slot := s.l1d.find(line); slot >= 0 {
		f := s.l1d.flags[slot]
		switch {
		case f&flagWriteOnly != 0:
			// Write-only lines service writes, not reads: reallocate.
		case s.cfg.WritePolicy == Subblock && s.l1d.masks[slot]&(1<<s.l1d.wordOf(paddr)) == 0:
			// Tag matches but this word was never validated.
		case f&flagValid != 0:
			s.l1d.touch(slot)
			return
		}
	}
	s.warmRefill(s.l1d, s.l2d, paddr, s.l1dFetchBytes, false)
}

// warmStore mirrors store across all four write policies.
func (s *System) warmStore(pid mmu.PID, vaddr uint32, size uint8) {
	paddr := s.mmu.TranslateWarmD(pid, vaddr)
	if s.cfg.writeThrough() {
		// The exact engine enqueues a one-word write-buffer entry whose
		// drain probes L2-D; functionally that is an immediate L2 write.
		s.warmL2Write(paddr &^ 3)
	}
	line := s.l1d.lineAddr(paddr)
	slot := s.l1d.find(line)

	switch s.cfg.WritePolicy {
	case WriteBack:
		if slot >= 0 && s.l1d.flags[slot]&flagValid != 0 {
			s.l1d.flags[slot] |= flagDirty
			s.l1d.touch(slot)
			return
		}
		// Write-allocate.
		s.warmRefill(s.l1d, s.l2d, paddr, s.l1dFetchBytes, false)
		if slot = s.l1d.find(line); slot >= 0 {
			s.l1d.flags[slot] |= flagDirty
		}

	case WriteMissInvalidate:
		if slot >= 0 && s.l1d.flags[slot]&flagValid != 0 {
			s.l1d.touch(slot)
			return
		}
		// The write corrupted whatever the index selected.
		victim := s.l1d.victimSlot(line)
		if s.l1d.tags[victim] != tagInvalid {
			s.l1d.tags[victim] = tagInvalid
			s.l1d.flags[victim] = 0
			s.l1d.masks[victim] = 0
		}

	case WriteOnly:
		if slot >= 0 && s.l1d.flags[slot]&(flagValid|flagWriteOnly) != 0 {
			s.l1d.flags[slot] |= flagDirty
			s.l1d.touch(slot)
			return
		}
		s.warmEvictFlags(s.l1d, line)
		s.l1d.insert(line, flagWriteOnly|flagDirty, 0)

	case Subblock:
		fullWord := size >= trace.WordBytes && paddr&3 == 0
		if slot >= 0 && s.l1d.flags[slot]&flagValid != 0 {
			if fullWord {
				s.l1d.masks[slot] |= 1 << s.l1d.wordOf(paddr)
			}
			s.l1d.flags[slot] |= flagDirty
			s.l1d.touch(slot)
			return
		}
		s.warmEvictFlags(s.l1d, line)
		var mask uint32
		if fullWord {
			mask = 1 << s.l1d.wordOf(paddr)
		}
		s.l1d.insert(line, flagValid|flagDirty, mask)
	}
}

// warmRefill mirrors refill: eviction handling, one L2 read for the
// aligned fetch block (Config.Validate guarantees it fits one L2 line),
// and the L1 inserts. Write-back victim probes of L2 are deferred until
// after the read to match the write buffer's FIFO order.
func (s *System) warmRefill(l1 *cache, bank *l2bank, paddr, fetchBytes uint64, instrSide bool) {
	block := paddr &^ (fetchBytes - 1)
	lineBytes := uint64(l1.geom.LineWords * trace.WordBytes)
	var victimBuf [8]uint64
	victims := victimBuf[:0]
	if !instrSide {
		for off := uint64(0); off < fetchBytes; off += lineBytes {
			line := l1.lineAddr(block + off)
			slot := l1.find(line)
			if slot < 0 {
				slot = l1.victimSlot(line)
			}
			if l1.tags[slot] == tagInvalid || l1.flags[slot]&flagDirty == 0 {
				continue
			}
			if s.cfg.WritePolicy == WriteBack {
				victims = append(victims, l1.tags[slot]<<l1.offBits)
				l1.flags[slot] &^= flagDirty
			} else if s.cfg.LoadsPassStores == LPSDirtyBit {
				l1.flags[slot] &^= flagDirty
			}
		}
	}

	s.warmL2Read(bank, block)
	for _, addr := range victims {
		s.warmL2Write(addr)
	}

	for off := uint64(0); off < fetchBytes; off += lineBytes {
		l1.insert(l1.lineAddr(block+off), flagValid, l1.fullMask)
	}
}

// warmEvictFlags mirrors evictFor for the write-through policies, where
// a displaced dirty line's data already reached the write buffer word
// by word: only the loads-pass-stores dirty bit needs maintaining.
func (s *System) warmEvictFlags(l1 *cache, line uint64) {
	slot := l1.find(line)
	if slot < 0 {
		slot = l1.victimSlot(line)
	}
	if l1.tags[slot] == tagInvalid || l1.flags[slot]&flagDirty == 0 {
		return
	}
	if s.cfg.LoadsPassStores == LPSDirtyBit {
		l1.flags[slot] &^= flagDirty
	}
}

// warmL2Read mirrors l2Read + memoryFetch content effects.
func (s *System) warmL2Read(bank *l2bank, block uint64) {
	line := bank.c.lineAddr(block)
	if slot := bank.c.find(line); slot >= 0 && bank.c.flags[slot]&flagValid != 0 {
		bank.c.touch(slot)
		return
	}
	bank.c.insert(line, flagValid, bank.c.fullMask)
}

// warmL2Write mirrors wbService: an L2-D write hit dirties and touches
// the line; a miss write-allocates it dirty.
func (s *System) warmL2Write(addr uint64) {
	bank := s.l2d
	line := bank.c.lineAddr(addr)
	if slot := bank.c.find(line); slot >= 0 && bank.c.flags[slot]&flagValid != 0 {
		bank.c.flags[slot] |= flagDirty
		bank.c.touch(slot)
		return
	}
	bank.c.insert(line, flagValid|flagDirty, bank.c.fullMask)
}

// CacheFingerprint hashes the functional cache state — tags, flags,
// subblock masks, and replacement state of both L1s and the L2 bank(s)
// — into one FNV-1a value. Equal fingerprints mean bit-identical cache
// contents; tests use it to pin the warm path against a full replay.
func (s *System) CacheFingerprint() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	word := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime64
			v >>= 8
		}
	}
	arrays := []*cache{s.l1i, s.l1d, s.l2i.c}
	if s.l2d != s.l2i {
		arrays = append(arrays, s.l2d.c)
	}
	for _, c := range arrays {
		for i := range c.tags {
			word(c.tags[i])
			word(uint64(c.flags[i]))
			word(uint64(c.masks[i]))
		}
		for _, w := range c.lruWay {
			word(uint64(w))
		}
	}
	return h
}

// WarmScan is WarmBatch straight over a packed cursor's word stream:
// events are stepped in place through trace.DecodeAt, never
// materialized, and one L1-I probe serves a run of fetches from one
// line. It exists because continuous functional warming is what keeps
// sampled simulation unbiased on workloads whose L2 reuse distances
// exceed any affordable warmup window, and at that duty cycle the
// per-event decode and fetch-probe costs dominate.
//
// The line run is the exact engine's (see step), minus the TLB count,
// which functional warming does not keep: a run starts at a fetch that
// left its line resident and most recently used, and no data reference
// touches L1-I, so skipping the repeat probes leaves tags, flags and
// replacement state bit-identical to probing every instruction. Lines
// are compared on virtual addresses, which is sound within one call
// (one PID) because a cache line never spans pages.
//
// The contract matches WarmBatch: up to max events are consumed, a
// consumed syscall event stops the scan (reported true), and n == 0
// with max > 0 means the cursor is exhausted.
func (s *System) WarmScan(pid mmu.PID, c *trace.Cursor, max int) (int, bool, error) {
	if s.fault != nil {
		return 0, false, s.fault
	}
	n := 0
	// Consume the cursor's decoded read-ahead first; RawWords is only
	// valid once no batched events are pending.
	if pending := c.Pending(); len(pending) > 0 {
		if len(pending) > max {
			pending = pending[:max]
		}
		k, err := s.WarmBatch(pid, pending)
		c.Skip(k)
		n += k
		if err != nil {
			return n, false, err
		}
		if k > 0 && pending[k-1].Syscall {
			return n, true, nil
		}
		if n >= max {
			return n, false, nil
		}
	}
	words, w := c.RawWords()
	drained := n
	shift := s.l1i.offBits
	run := noRun
	syscall := false
	for n < max && w < len(words) {
		pc, meta, data, next := trace.DecodeAt(words, w)
		w = next
		n++
		if line := pc >> shift; line != run {
			run = noRun
			if s.warmFetch(pid, pc) {
				run = line
			}
		}
		switch trace.Kind(meta >> trace.MetaKindShift) {
		case trace.Load:
			s.warmLoad(pid, data)
		case trace.Store:
			s.warmStore(pid, data, uint8(meta>>trace.MetaSizeShift))
		case trace.None:
			// Fetch-only instruction; nothing further to warm.
		}
		if meta&trace.MetaSyscallBit != 0 {
			syscall = true
			break
		}
	}
	c.RawAdvance(w, n-drained) // raw-consumed events only
	return n, syscall, nil
}
