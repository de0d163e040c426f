package core

import (
	"fmt"

	"repro/internal/mmu"
	"repro/internal/trace"
)

// The one model of cache state, and functional warming.
//
// Every cache-state transition has one definition here, on l1Pair, or
// on cache and l2bank below it: the L1-I fetch probe (cache.probe), the
// L1-D read-hit test (readMiss), each write policy's write-hit and
// write-miss update (writeHit, writeMiss), a data refill's victim
// selection with its dirty-bit clear (victims), the block fill
// (cache.fill) and the L2 read and write probes (l2bank.access). Tags,
// flags, subblock masks and replacement state move only through them.
// Three callers drive the transitions:
//
//   - the cycle-accurate engine (System's fetchInstruction, load, store
//     and refill), which adds the timing: stalls, Stats counters, the
//     write buffer, the loads-pass-stores schemes and the flush barrier;
//   - functional warming (WarmScan), the fast-forward mode of sampled
//     simulation, through the warm helpers below, with no clock and no
//     Stats, whose L2 side is the system's real L2 banks;
//   - Filter, the one-pass analyzer's L1 (internal/stackdist), through
//     the same warm helpers, whose L2 side is an L2Observer that turns
//     the L2 reference stream into stack-distance histograms.
//
// What the warm helpers keep of their own is the L2 order, inherited
// from the write buffer: a write-back victim's L2 probe happens in FIFO
// order *after* the refill read that displaced it (the exact engine
// enqueues the victim, reads L2, and drains the buffer afterwards), so
// warmRefill applies its victims' L2 writes after the read. Write-through
// stores have no such reordering window that the exact engine's
// wait-for-empty rules would preserve, so they probe L2 immediately.
// Where those rules fully order L2 probes (LPSNone with IMissWaitsForWB)
// warm state equals exact state; FuzzWarmMatchesExact holds them to it.

// l2bank couples a secondary-cache array with its timing.
type l2bank struct {
	c      *cache
	timing BankTiming
}

// access is the L2 read and write probe of the line holding addr. A hit
// makes the line most recently used, and a write dirties it; a miss
// installs the line from memory, dirty when written (write-allocate),
// and returns the line it displaced. Every resident L2 line is valid:
// only this install puts lines there.
func (b *l2bank) access(addr uint64, write bool) (hit bool, ev evicted) {
	line := b.c.lineAddr(addr)
	flags := flagValid
	if write {
		flags |= flagDirty
	}
	if slot := b.c.probe(line); slot >= 0 {
		b.c.flags[slot] |= flags
		return true, evicted{}
	}
	return false, b.c.insert(line, flags, b.c.fullMask)
}

// l1Pair is the split L1 with its MMU and its L2 side, and the write
// policy's transitions over them. System embeds it.
type l1Pair struct {
	mmu      *mmu.MMU
	l1i, l1d *cache
	// The L2 side: the real banks (aliases of one bank when unified),
	// or, when l2obs is set, an observer and no banks.
	l2i, l2d *l2bank
	l2obs    L2Observer

	policy       WritePolicy
	writeThrough bool // policy != WriteBack: every store's word goes to L2-D
	dVictimScan  bool // policy == WriteBack || LoadsPassStores == LPSDirtyBit

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
		writeThrough:  cfg.WritePolicy != WriteBack,
		l1iFetchBytes: uint64(cfg.l1iFetch() * trace.WordBytes),
		l1dFetchBytes: uint64(cfg.l1dFetch() * trace.WordBytes),
	}
	p.iRefillKeepsLine = uint64(cfg.l1iFetch()/cfg.L1I.LineWords) <= p.l1i.sets
	p.dVictimScan = !p.writeThrough || cfg.LoadsPassStores == LPSDirtyBit
	return p
}

// MissKind says whether an L1 access missed, and why.
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

// readMiss is the L1-D read-hit test of a load of paddr whose line find
// placed at slot (-1: not resident): NoMiss, with the line now most
// recently used, or why the load misses. A resident line that is not
// write-only is valid.
func (p *l1Pair) readMiss(slot int, paddr uint64) MissKind {
	switch {
	case slot < 0:
		return LineMiss
	case p.l1d.flags[slot]&flagWriteOnly != 0:
		// Write-only lines service writes, not reads: miss and
		// reallocate (Section 6).
		return WriteOnlyMiss
	case p.policy == Subblock && p.l1d.masks[slot]&(1<<p.l1d.wordOf(paddr)) == 0:
		// Tag matches but this word was never validated.
		return WordMiss
	}
	p.l1d.touch(slot)
	return NoMiss
}

// writeHit is the write policy's write-hit update for a store of size
// bytes at paddr whose line probe found at slot (-1: not resident), and
// reports whether the store hit. Every resident line takes writes (valid
// lines under every policy, and write-only ones under the write-only
// policy, the only one that makes them), so the store hits where the
// line is resident. A hit sets the dirty bit (write-back data, or the
// loads-pass-stores dirty bit) except under write-miss-invalidate, which
// keeps no dirty state, and under subblock placement a full-word write
// validates its word.
func (p *l1Pair) writeHit(slot int, paddr uint64, size uint8) bool {
	if slot < 0 {
		return false
	}
	if p.policy != WriteMissInvalidate {
		p.l1d.flags[slot] |= flagDirty
	}
	if p.policy == Subblock {
		p.l1d.masks[slot] |= p.l1d.validated(paddr, size)
	}
	return true
}

// writeMiss is the write policy's write-miss update for a store of size
// bytes at paddr whose line, line, is not resident, and returns the line
// it displaced. Write-back write-allocates: allocate is the caller's
// refill of paddr's block, after which the store dirties the line.
func (p *l1Pair) writeMiss(line, paddr uint64, size uint8, allocate func()) evicted {
	l1d := p.l1d
	switch p.policy {
	case WriteBack:
		allocate()
		// A later line of a block wider than L1-D's sets may have
		// displaced the line again.
		if slot := l1d.find(line); slot >= 0 {
			l1d.flags[slot] |= flagDirty
		}
	case WriteMissInvalidate:
		// The write corrupted whatever line the index selected.
		v := l1d.victimSlot(line)
		l1d.tags[v], l1d.flags[v], l1d.masks[v] = tagInvalid, 0, 0
	case WriteOnly:
		// The line now services writes, so later writes to it hit.
		return l1d.insert(line, flagWriteOnly|flagDirty, 0)
	case Subblock:
		// The tag is installed; only a full-word write validates its
		// word, a partial write validates nothing.
		return l1d.insert(line, flagValid|flagDirty, l1d.validated(paddr, size))
	}
	return evicted{}
}

// A victim is a dirty L1-D line that a refill displaces or reinstalls,
// or that a write miss displaces.
type victim struct {
	line uint64 // its line address
	self bool   // the refill reinstalls this very line (a write-only line being read)
}

// victims is a data refill's victim selection, before its L2 read: for
// each line of the L1-D fetch block at block, in order, the slot the
// fill will take (the line's own if resident, else its set's victim).
// Each dirty victim is appended to vs and its dirty bit cleared, so a
// second pass cannot hand it over twice. The scan runs only where a
// dirty victim matters: under write-back, whose victims carry their data
// to L2-D, and under the dirty bit, whose victims flush the write
// buffer. A write-through policy without the dirty bit would probe every
// line of the block and change nothing.
func (p *l1Pair) victims(block uint64, vs []victim) []victim {
	if !p.dVictimScan {
		return vs
	}
	l1d := p.l1d
	for off := uint64(0); off < p.l1dFetchBytes; off += 1 << l1d.offBits {
		line := l1d.lineAddr(block + off)
		slot := l1d.find(line)
		if slot < 0 {
			slot = l1d.victimSlot(line)
		}
		if l1d.tags[slot] == tagInvalid || l1d.flags[slot]&flagDirty == 0 {
			continue
		}
		vs = append(vs, victim{line: l1d.tags[slot], self: l1d.tags[slot] == line})
		l1d.flags[slot] &^= flagDirty
	}
	return vs
}

// warmFetch is an untimed instruction fetch: translation, the L1-I
// probe, and a refill on a miss. A hit leaves the line resident and most
// recently used, as a line run needs; so does a refill when
// iRefillKeepsLine.
func (p *l1Pair) warmFetch(pid mmu.PID, vaddr uint32) (uint64, MissKind) {
	paddr := p.mmu.TranslateWarmI(pid, vaddr)
	if p.l1i.probe(p.l1i.lineAddr(paddr)) >= 0 {
		return paddr, NoMiss
	}
	p.warmRefill(p.l1i, p.l2i, paddr, p.l1iFetchBytes, true)
	return paddr, LineMiss
}

// warmLoad is an untimed data read, refilling on any kind of miss.
func (p *l1Pair) warmLoad(pid mmu.PID, vaddr uint32) (uint64, MissKind) {
	paddr := p.mmu.TranslateWarmD(pid, vaddr)
	miss := p.readMiss(p.l1d.find(p.l1d.lineAddr(paddr)), paddr)
	if miss != NoMiss {
		p.warmRefill(p.l1d, p.l2d, paddr, p.l1dFetchBytes, false)
	}
	return paddr, miss
}

// warmStore is an untimed data write of size bytes at vaddr.
func (p *l1Pair) warmStore(pid mmu.PID, vaddr uint32, size uint8) (uint64, MissKind) {
	paddr := p.mmu.TranslateWarmD(pid, vaddr)
	if p.writeThrough {
		// The exact engine enqueues a one-word write-buffer entry whose
		// drain probes L2-D; functionally that is an immediate L2 write.
		p.warmL2Write(paddr &^ 3)
	}
	line := p.l1d.lineAddr(paddr)
	if p.writeHit(p.l1d.probe(line), paddr, size) {
		return paddr, NoMiss
	}
	// The line the miss displaces needs only timed work (a dirty-bit
	// flush): its words already went to L2 with their stores.
	p.writeMiss(line, paddr, size, func() {
		p.warmRefill(p.l1d, p.l2d, paddr, p.l1dFetchBytes, false)
	})
	return paddr, LineMiss
}

// warmRefill is an untimed refill of the aligned fetch block containing
// paddr (Config.Validate guarantees it fits one L2 line): the victim
// selection, one L2 read, the write-back victims' L2 writes after it in
// write-buffer order, and the block fill.
func (p *l1Pair) warmRefill(l1 *cache, bank *l2bank, paddr, fetchBytes uint64, instrSide bool) {
	block := paddr &^ (fetchBytes - 1)
	var buf [8]victim
	vs := buf[:0]
	if !instrSide {
		vs = p.victims(block, vs)
	}
	p.warmL2Read(bank, block, instrSide)
	if !p.writeThrough {
		for _, v := range vs {
			p.warmL2Write(v.line << l1.offBits)
		}
	}
	l1.fill(block, fetchBytes)
}

// warmL2Read is an untimed L2 refill read of the block at block, or
// hands the read to the observer.
func (p *l1Pair) warmL2Read(bank *l2bank, block uint64, instrSide bool) {
	if p.l2obs != nil {
		p.l2obs.L2Read(block, instrSide)
		return
	}
	bank.access(block, false)
}

// warmL2Write is an untimed L2-D write at addr, or hands the write to
// the observer.
func (p *l1Pair) warmL2Write(addr uint64) {
	if p.l2obs != nil {
		p.l2obs.L2Write(addr)
		return
	}
	p.l2d.access(addr, true)
}

// Filter is the L1 pair as the one-pass analyzer uses it: the warm
// helpers over the one model of cache state, with an L2Observer as its
// L2 side. It
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
// line. Cache and TLB contents move through the cycle-accurate path's
// transitions (FuzzWarmMatchesExact pins the cache state where the
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
// Up to max events are consumed, across the recording's chunk ends
// without stopping there; a consumed syscall event stops the scan
// (reported true), so a scheduler can honor syscall-triggered
// context switches at the exact instruction a full replay would, and
// n == 0 with max > 0 means the cursor is exhausted. A latched model
// fault refuses further work exactly as Step does.
func (s *System) WarmScan(pid mmu.PID, c *trace.Cursor, max int) (int, bool, error) {
	if s.fault != nil {
		return 0, false, s.fault
	}
	if max <= 0 {
		return 0, false, nil
	}
	words, w := c.RawWords()
	shift := s.l1i.offBits
	run := noRun
	n, n0 := 0, 0 // n0: n when the scan entered words
	syscall := false
scan:
	for w < len(words) {
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
				break scan
			}
		}
		if n == max {
			break
		}
		c.RawAdvance(w, n-n0)
		n0 = n
		words, w = c.RawWords()
	}
	c.RawAdvance(w, n-n0)
	return n, syscall, nil
}
