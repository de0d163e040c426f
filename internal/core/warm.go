package core

import (
	"fmt"

	"repro/internal/mmu"
	"repro/internal/trace"
)

// Functional warming, and the one untimed model of the L1 pair.
//
// l1Pair's warm helpers are the L1 write-policy state machine (fetch,
// load, store and refill across the four write policies) with the
// timing stripped out: no clock, no stall attribution, no Stats
// counters, no write-buffer timing. Tags, flags, subblock masks and
// replacement state move as in the exact engine's fetchInstruction,
// load, store, refill and evictFor; TestWarmMatchesExactFinalState and
// internal/stackdist's FuzzScreeningMatchesExact hold them to it. Two
// callers drive the model:
//
//   - System's functional warming (WarmScan), the
//     fast-forward mode of sampled simulation, whose L2 side is its
//     real L2 banks;
//   - Filter, the one-pass analyzer's L1 (internal/stackdist), whose
//     L2 side is an L2Observer that turns the L2 reference stream into
//     stack-distance histograms.
//
// One ordering rule is inherited from the write buffer: a write-back
// victim's L2 probe happens in FIFO order *after* the refill read that
// displaced it (the exact engine enqueues the victim, reads L2, and
// drains the buffer afterwards). warmRefill therefore collects victims
// first but applies their L2 writes after the read. Write-through
// stores have no such reordering window that the exact engine's
// wait-for-empty rules would preserve, so they probe L2 immediately.

// l1Pair is the split L1 with its MMU and its L2 side. System embeds
// it; its timed paths use the same caches.
type l1Pair struct {
	mmu      *mmu.MMU
	l1i, l1d *cache
	// The L2 side: the real banks (aliases of one bank when unified),
	// or, when l2obs is set, an observer and no banks.
	l2i, l2d *l2bank
	l2obs    L2Observer

	policy      WritePolicy
	dVictimScan bool // policy == WriteBack || LoadsPassStores == LPSDirtyBit

	l1iFetchBytes uint64
	l1dFetchBytes uint64
	// iRefillKeepsLine: an L1-I refill leaves the fetched line resident
	// and most recently used in its set. It does unless the refill
	// block spans more lines than L1-I has sets, when a later line of
	// the block can land in the fetched line's set.
	iRefillKeepsLine bool
}

// newL1Pair builds the L1 caches cfg describes over m; the caller
// supplies the L2 side.
func newL1Pair(m *mmu.MMU, cfg *Config) l1Pair {
	p := l1Pair{
		mmu:           m,
		l1i:           newCache(cfg.L1I),
		l1d:           newCache(cfg.L1D),
		policy:        cfg.WritePolicy,
		l1iFetchBytes: uint64(cfg.l1iFetch() * trace.WordBytes),
		l1dFetchBytes: uint64(cfg.l1dFetch() * trace.WordBytes),
	}
	p.iRefillKeepsLine = uint64(cfg.l1iFetch()/cfg.L1I.LineWords) <= p.l1i.sets
	p.dVictimScan = p.policy == WriteBack || cfg.LoadsPassStores == LPSDirtyBit
	return p
}

// MissKind says whether an untimed L1 access missed, and why.
type MissKind uint8

const (
	// NoMiss: the access hit.
	NoMiss MissKind = iota
	// LineMiss: no line in the set matched the address.
	LineMiss
	// WriteOnlyMiss: a load matched a write-only line, which services
	// writes, not reads (Section 6).
	WriteOnlyMiss
	// WordMiss: a load matched a subblock line whose word was never
	// validated.
	WordMiss
)

// L2Observer is a Filter's L2 side. It receives the L1 pair's
// secondary-cache references in the order the exact simulator's L2
// sees them under LPSNone, in place of a simulated L2.
type L2Observer interface {
	// L2Read is the refill read of the L1 block at addr, from the
	// instruction side or the data side.
	L2Read(addr uint64, instrSide bool)
	// L2Write is a data-side write at addr: a write-back victim line,
	// or a write-through store's word.
	L2Write(addr uint64)
}

// warmFetch mirrors fetchInstruction: TLB, L1-I probe, refill on miss.
// A hit leaves the line resident and most recently used, as a line run
// needs; so does a refill when iRefillKeepsLine.
func (p *l1Pair) warmFetch(pid mmu.PID, vaddr uint32) (uint64, MissKind) {
	paddr := p.mmu.TranslateWarmI(pid, vaddr)
	line := p.l1i.lineAddr(paddr)
	if slot := p.l1i.find(line); slot >= 0 && p.l1i.flags[slot]&flagValid != 0 {
		p.l1i.touch(slot)
		return paddr, NoMiss
	}
	p.warmRefill(p.l1i, p.l2i, paddr, p.l1iFetchBytes, true)
	return paddr, LineMiss
}

// warmLoad mirrors load, including the write-only and subblock
// word-miss reallocation cases.
func (p *l1Pair) warmLoad(pid mmu.PID, vaddr uint32) (uint64, MissKind) {
	paddr := p.mmu.TranslateWarmD(pid, vaddr)
	miss := LineMiss
	if slot := p.l1d.find(p.l1d.lineAddr(paddr)); slot >= 0 {
		f := p.l1d.flags[slot]
		switch {
		case f&flagWriteOnly != 0:
			// Write-only lines service writes, not reads: reallocate.
			miss = WriteOnlyMiss
		case p.policy == Subblock && p.l1d.masks[slot]&(1<<p.l1d.wordOf(paddr)) == 0:
			// Tag matches but this word was never validated.
			miss = WordMiss
		case f&flagValid != 0:
			p.l1d.touch(slot)
			return paddr, NoMiss
		}
	}
	p.warmRefill(p.l1d, p.l2d, paddr, p.l1dFetchBytes, false)
	return paddr, miss
}

// warmStore mirrors store across all four write policies.
func (p *l1Pair) warmStore(pid mmu.PID, vaddr uint32, size uint8) (uint64, MissKind) {
	paddr := p.mmu.TranslateWarmD(pid, vaddr)
	if p.policy != WriteBack {
		// The exact engine enqueues a one-word write-buffer entry whose
		// drain probes L2-D; functionally that is an immediate L2 write.
		p.warmL2Write(paddr &^ 3)
	}
	l1d := p.l1d
	line := l1d.lineAddr(paddr)
	slot := l1d.find(line)

	switch p.policy {
	case WriteBack:
		if slot >= 0 && l1d.flags[slot]&flagValid != 0 {
			l1d.flags[slot] |= flagDirty
			l1d.touch(slot)
			return paddr, NoMiss
		}
		// Write-allocate.
		p.warmRefill(l1d, p.l2d, paddr, p.l1dFetchBytes, false)
		if slot = l1d.find(line); slot >= 0 {
			l1d.flags[slot] |= flagDirty
		}

	case WriteMissInvalidate:
		if slot >= 0 && l1d.flags[slot]&flagValid != 0 {
			l1d.touch(slot)
			return paddr, NoMiss
		}
		// The write corrupted whatever the index selected.
		victim := l1d.victimSlot(line)
		if l1d.tags[victim] != tagInvalid {
			l1d.tags[victim] = tagInvalid
			l1d.flags[victim] = 0
			l1d.masks[victim] = 0
		}

	case WriteOnly:
		if slot >= 0 && l1d.flags[slot]&(flagValid|flagWriteOnly) != 0 {
			l1d.flags[slot] |= flagDirty
			l1d.touch(slot)
			return paddr, NoMiss
		}
		// Here and in the subblock case, evictFor's work is timing only:
		// the displaced line's words already reached the write buffer,
		// and insert rewrites the slot's flags, dirty bit included.
		l1d.insert(line, flagWriteOnly|flagDirty, 0)

	case Subblock:
		fullWord := size >= trace.WordBytes && paddr&3 == 0
		if slot >= 0 && l1d.flags[slot]&flagValid != 0 {
			if fullWord {
				l1d.masks[slot] |= 1 << l1d.wordOf(paddr)
			}
			l1d.flags[slot] |= flagDirty
			l1d.touch(slot)
			return paddr, NoMiss
		}
		var mask uint32
		if fullWord {
			mask = 1 << l1d.wordOf(paddr)
		}
		l1d.insert(line, flagValid|flagDirty, mask)
	}
	return paddr, LineMiss
}

// warmRefill mirrors refill: eviction handling, one L2 read for the
// aligned fetch block (Config.Validate guarantees it fits one L2 line),
// and the L1 inserts. Write-back victim probes of L2 are deferred until
// after the read to match the write buffer's FIFO order.
//
// The victim scan runs only where it can act: under write-back, which
// collects victims, or under the dirty bit, which clears flags. A
// write-through policy without the dirty bit would probe every line of
// the block and change nothing.
func (p *l1Pair) warmRefill(l1 *cache, bank *l2bank, paddr, fetchBytes uint64, instrSide bool) {
	block := paddr &^ (fetchBytes - 1)
	lineBytes := uint64(l1.geom.LineWords * trace.WordBytes)
	var victimBuf [8]uint64
	victims := victimBuf[:0]
	if !instrSide && p.dVictimScan {
		for off := uint64(0); off < fetchBytes; off += lineBytes {
			line := l1.lineAddr(block + off)
			slot := l1.find(line)
			if slot < 0 {
				slot = l1.victimSlot(line)
			}
			if l1.tags[slot] == tagInvalid || l1.flags[slot]&flagDirty == 0 {
				continue
			}
			if p.policy == WriteBack {
				victims = append(victims, l1.tags[slot]<<l1.offBits)
			}
			l1.flags[slot] &^= flagDirty
		}
	}

	p.warmL2Read(bank, block, instrSide)
	for _, addr := range victims {
		p.warmL2Write(addr)
	}

	for off := uint64(0); off < fetchBytes; off += lineBytes {
		l1.insert(l1.lineAddr(block+off), flagValid, l1.fullMask)
	}
}

// warmL2Read mirrors l2Read + memoryFetch content effects, or hands the
// read to the observer.
func (p *l1Pair) warmL2Read(bank *l2bank, block uint64, instrSide bool) {
	if p.l2obs != nil {
		p.l2obs.L2Read(block, instrSide)
		return
	}
	line := bank.c.lineAddr(block)
	if slot := bank.c.find(line); slot >= 0 && bank.c.flags[slot]&flagValid != 0 {
		bank.c.touch(slot)
		return
	}
	bank.c.insert(line, flagValid, bank.c.fullMask)
}

// warmL2Write mirrors wbService: an L2-D write hit dirties and touches
// the line; a miss write-allocates it dirty. Under an observer the
// write goes to the observer instead.
func (p *l1Pair) warmL2Write(addr uint64) {
	if p.l2obs != nil {
		p.l2obs.L2Write(addr)
		return
	}
	bank := p.l2d
	line := bank.c.lineAddr(addr)
	if slot := bank.c.find(line); slot >= 0 && bank.c.flags[slot]&flagValid != 0 {
		bank.c.flags[slot] |= flagDirty
		bank.c.touch(slot)
		return
	}
	bank.c.insert(line, flagValid|flagDirty, bank.c.fullMask)
}

// Filter is the L1 pair as the one-pass analyzer uses it: the untimed
// model functional warming runs, with an L2Observer as its L2 side. It
// fetches one line per miss and runs under LPSNone; under those
// settings its L2 references follow the exact simulator's L2 probes in
// order (DESIGN.md §11 gives the exactness domain).
type Filter struct{ p l1Pair }

// NewFilter builds a Filter with the given L1 geometries, data-side
// write policy and MMU, whose L2 references go to l2.
func NewFilter(l1i, l1d CacheGeom, policy WritePolicy, mmuCfg mmu.Config, l2 L2Observer) (*Filter, error) {
	if err := l1i.Validate("filter L1-I"); err != nil {
		return nil, err
	}
	if err := l1d.Validate("filter L1-D"); err != nil {
		return nil, err
	}
	m, err := mmu.New(mmuCfg)
	if err != nil {
		return nil, fmt.Errorf("core: MMU: %w", err)
	}
	f := &Filter{newL1Pair(m, &Config{L1I: l1i, L1D: l1d, WritePolicy: policy})}
	f.p.l2obs = l2
	return f, nil
}

// Fetch is one instruction fetch at vaddr: translation, the L1-I probe,
// and a refill on a miss. It returns the physical address and whether
// the fetch missed (LineMiss).
func (f *Filter) Fetch(pid mmu.PID, vaddr uint32) (uint64, MissKind) {
	return f.p.warmFetch(pid, vaddr)
}

// Load is one data read at vaddr. It returns the physical address and
// the kind of L1-D miss, if any.
func (f *Filter) Load(pid mmu.PID, vaddr uint32) (uint64, MissKind) {
	return f.p.warmLoad(pid, vaddr)
}

// Store is one data write of size bytes at vaddr under the filter's
// write policy. It returns the physical address and whether the write
// missed (LineMiss).
func (f *Filter) Store(pid mmu.PID, vaddr uint32, size uint8) (uint64, MissKind) {
	return f.p.warmStore(pid, vaddr, size)
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

// WarmScan functionally executes the next events of process pid
// straight off a packed cursor's word stream, with no cycle accounting:
// events are stepped in place through trace.DecodeAt, never
// materialized, and one L1-I probe serves a run of fetches from one
// line. Cache and TLB contents move as on the cycle-accurate path
// (TestWarmMatchesExactFinalState pins the cache state where the
// write-buffer ordering makes that exact), while the clock and Stats
// stay untouched. Continuous functional warming is what keeps sampled
// simulation unbiased on workloads whose L2 reuse distances exceed any
// affordable warmup window, and at that duty cycle the per-event decode
// and fetch-probe costs dominate.
//
// The line run is the exact engine's (see step), minus the TLB count,
// which functional warming does not keep: a run starts at a fetch that
// left its line resident and most recently used, and no data reference
// touches L1-I, so skipping the repeat probes leaves tags, flags and
// replacement state bit-identical to probing every instruction. Lines
// are compared on virtual addresses, which is sound within one call
// (one PID) because a cache line never spans pages.
//
// Up to max events are consumed; a consumed syscall event stops the
// scan (reported true), so a scheduler can honor syscall-triggered
// context switches at the exact instruction a full replay would, and
// n == 0 with max > 0 means the cursor is exhausted. A latched model
// fault refuses further work exactly as Step does.
func (s *System) WarmScan(pid mmu.PID, c *trace.Cursor, max int) (int, bool, error) {
	if s.fault != nil {
		return 0, false, s.fault
	}
	words, w := c.RawWords()
	shift := s.l1i.offBits
	run := noRun
	n := 0
	syscall := false
	for n < max && w < len(words) {
		pc, meta, data, next := trace.DecodeAt(words, w)
		w = next
		n++
		if line := pc >> shift; line != run {
			run = noRun
			if _, miss := s.warmFetch(pid, pc); miss == NoMiss || s.iRefillKeepsLine {
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
	c.RawAdvance(w, n)
	return n, syscall, nil
}
