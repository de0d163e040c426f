package core

import (
	"math/rand"
	"testing"

	"repro/internal/synth"
	"repro/internal/trace"
)

// warmTestTrace builds a packed synthetic trace whose working sets
// overflow the Base L1s, so the warm path exercises refills, evictions,
// and write-backs, not just hits.
func warmTestTrace(t *testing.T, n uint64) *trace.Recorded {
	t.Helper()
	g := synth.New(synth.Config{
		Instructions: n,
		LoadFrac:     0.20,
		StoreFrac:    0.10,
		CodeBytes:    64 * 1024,
		DataBytes:    512 * 1024,
		SeqFrac:      0.5,
		HotFrac:      0.3,
		SyscallEvery: 10_000,
		Seed:         0x5eed,
	})
	return trace.Pack(g)
}

// replayExact steps every event through a fresh cycle-accurate system
// and drains the write buffer, returning the final cache fingerprint.
func replayExact(t *testing.T, cfg Config, rec *trace.Recorded) uint64 {
	t.Helper()
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	cur := rec.NewCursor()
	var ev trace.Event
	for cur.Next(&ev) {
		if err := s.Step(1, &ev); err != nil {
			t.Fatalf("Step: %v", err)
		}
	}
	s.DrainWriteBuffer()
	return s.CacheFingerprint()
}

// replayWarm feeds the same events through WarmBatch in randomly sized
// chunks (exercising the syscall early-stop and resume points) and
// returns the final cache fingerprint.
func replayWarm(t *testing.T, cfg Config, rec *trace.Recorded) uint64 {
	t.Helper()
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	cur := rec.NewCursor()
	rng := rand.New(rand.NewSource(3)) //lint:allow determinism fixed-seed test chunking
	for {
		b := cur.Batch(1 + rng.Intn(2000))
		if len(b) == 0 {
			break
		}
		n, err := s.WarmBatch(1, b)
		if err != nil {
			t.Fatalf("WarmBatch: %v", err)
		}
		cur.Skip(n)
	}
	return s.CacheFingerprint()
}

// replayWarmScan drives WarmScan — the raw-word path — over
// a fresh cursor in randomly sized chunks. Random pre-batching leaves
// decoded read-ahead pending on the cursor, so the scan's pending-drain
// prologue and its resume-after-syscall points are both exercised.
func replayWarmScan(t *testing.T, cfg Config, rec *trace.Recorded) uint64 {
	t.Helper()
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	cur := rec.NewCursor()
	rng := rand.New(rand.NewSource(7)) //lint:allow determinism fixed-seed test chunking
	for {
		if rng.Intn(4) == 0 {
			cur.Batch(1 + rng.Intn(300)) // read-ahead only; WarmScan must drain it
		}
		n, _, err := s.WarmScan(1, cur, 1+rng.Intn(2000))
		if err != nil {
			t.Fatalf("WarmScan: %v", err)
		}
		if n == 0 {
			break
		}
	}
	if got := s.Stats().Instructions; got != 0 {
		t.Fatalf("WarmScan counted %d instructions; functional warming must not touch Stats", got)
	}
	if got := s.Now(); got != 0 {
		t.Fatalf("WarmScan advanced the clock to %d; functional warming must not cost cycles", got)
	}
	return s.CacheFingerprint()
}

// TestWarmScanMatchesWarmBatch pins the raw-word scanner against the
// decoded path: for every write policy, WarmScan over the packed words
// must leave bit-identical cache state to WarmBatch over the decoded
// events — same refills, evictions, flags, masks, and replacement
// order — regardless of chunking or pending read-ahead.
func TestWarmScanMatchesWarmBatch(t *testing.T) {
	rec := warmTestTrace(t, 120_000)
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"base-writeback", func(c *Config) {}},
		{"wmi", func(c *Config) { c.WritePolicy = WriteMissInvalidate }},
		{"writeonly", func(c *Config) { c.WritePolicy = WriteOnly }},
		{"subblock", func(c *Config) { c.WritePolicy = Subblock }},
		{"writeback-2way-l1d", func(c *Config) { c.L1D.Ways = 2 }},
		{"writeback-small-l2", func(c *Config) {
			c.L2U.Geom.SizeWords = 16 * 1024
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Base()
			tc.mutate(&cfg)
			batch := replayWarm(t, cfg, rec)
			scan := replayWarmScan(t, cfg, rec)
			if batch != scan {
				t.Fatalf("cache state diverged: WarmBatch fingerprint %#x, WarmScan %#x", batch, scan)
			}
		})
	}
}

// TestWarmScanWideRefillEndsLineRun gives a 2-way L1-I a refill block
// twice its set count, so the refill that a fetch misses into installs
// a later line of the block over the fetched one as most recently used
// in its set. A second fetch from the same line must still touch it:
// such a refill starts no line run.
func TestWarmScanWideRefillEndsLineRun(t *testing.T) {
	cfg := Base()
	cfg.L1I = CacheGeom{SizeWords: 32, LineWords: 4, Ways: 2}
	cfg.L1IFetch = 32
	evs := []trace.Event{{PC: 0x1000}, {PC: 0x1004}}
	batch, scan := newSys(t, cfg), newSys(t, cfg)
	if _, err := batch.WarmBatch(pid, evs); err != nil {
		t.Fatalf("WarmBatch: %v", err)
	}
	if _, _, err := scan.WarmScan(pid, trace.Pack(trace.NewMemTrace(evs)).NewCursor(), len(evs)); err != nil {
		t.Fatalf("WarmScan: %v", err)
	}
	if b, s := batch.CacheFingerprint(), scan.CacheFingerprint(); b != s {
		t.Fatalf("cache state diverged: WarmBatch %#x, WarmScan %#x", b, s)
	}
}

// TestWarmScanSyscallStop pins WarmScan's early-stop contract on the
// raw-word path: the syscall event is consumed, the one after it is
// not, and the scan reports the stop.
func TestWarmScanSyscallStop(t *testing.T) {
	s, err := NewSystem(Base())
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	var mt trace.MemTrace
	mt.Append(trace.Event{PC: 0x1000})
	mt.Append(trace.Event{PC: 0x1004, Syscall: true})
	mt.Append(trace.Event{PC: 0x1008})
	cur := trace.Pack(&mt).NewCursor()
	n, syscall, err := s.WarmScan(1, cur, 100)
	if err != nil {
		t.Fatalf("WarmScan: %v", err)
	}
	if n != 2 || !syscall {
		t.Fatalf("WarmScan = (%d, %v), want (2, true): stop after the syscall event", n, syscall)
	}
	n, syscall, err = s.WarmScan(1, cur, 100)
	if err != nil {
		t.Fatalf("WarmScan resume: %v", err)
	}
	if n != 1 || syscall {
		t.Fatalf("WarmScan resume = (%d, %v), want (1, false)", n, syscall)
	}
}

// TestWarmMatchesExactFinalState pins the functional-warming guarantee
// the sampled engine's fast-forward relies on: for configurations whose
// wait-for-write-buffer rules fully order L2 probes (every L1 miss
// waits for the buffer to empty before reading L2 — Base's write-back +
// LPSNone + IMissWaitsForWB, and the write-through policies under the
// same ordering), a WarmBatch replay leaves bit-identical cache state
// to a full cycle-accurate replay followed by a write-buffer drain.
//
// Configurations that relax the ordering (LPSAssociative/LPSDirtyBit,
// concurrent I-refill) let the exact engine interleave buffered writes
// with later reads at timing-dependent points; there the warm state is
// approximate by design, and the sampled-vs-exact CPI bound in
// internal/sample is the governing test.
func TestWarmMatchesExactFinalState(t *testing.T) {
	rec := warmTestTrace(t, 120_000)
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"base-writeback", func(c *Config) {}},
		{"wmi", func(c *Config) { c.WritePolicy = WriteMissInvalidate }},
		{"writeonly", func(c *Config) { c.WritePolicy = WriteOnly }},
		{"subblock", func(c *Config) { c.WritePolicy = Subblock }},
		{"writeback-2way-l1d", func(c *Config) { c.L1D.Ways = 2 }},
		{"writeback-small-l2", func(c *Config) {
			c.L2U.Geom.SizeWords = 16 * 1024
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Base()
			tc.mutate(&cfg)
			exact := replayExact(t, cfg, rec)
			warm := replayWarm(t, cfg, rec)
			if exact != warm {
				t.Fatalf("cache state diverged: exact fingerprint %#x, warm %#x", exact, warm)
			}
		})
	}
}

// TestWarmBatchSyscallStop pins WarmBatch's early-stop contract: the
// syscall event is consumed, the one after it is not.
func TestWarmBatchSyscallStop(t *testing.T) {
	s, err := NewSystem(Base())
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	evs := []trace.Event{
		{PC: 0x1000},
		{PC: 0x1004, Syscall: true},
		{PC: 0x1008},
	}
	n, err := s.WarmBatch(1, evs)
	if err != nil {
		t.Fatalf("WarmBatch: %v", err)
	}
	if n != 2 {
		t.Fatalf("WarmBatch consumed %d events, want 2 (stop after syscall)", n)
	}
	if got := s.Stats().Instructions; got != 0 {
		t.Fatalf("WarmBatch counted %d instructions; functional warming must not touch Stats", got)
	}
	if got := s.Now(); got != 0 {
		t.Fatalf("WarmBatch advanced the clock to %d; functional warming must not cost cycles", got)
	}
}

// TestStatsDelta pins Delta as the exact inverse of accumulation.
func TestStatsDelta(t *testing.T) {
	a := Stats{Instructions: 10, Cycles: 25, L1IMisses: 3, WBEnqueues: 2}
	a.Stalls[CauseWB] = 5
	b := a
	b.Instructions += 7
	b.Cycles += 30
	b.L1IMisses += 1
	b.Stalls[CauseWB] += 4
	d := b.Delta(&a)
	if d.Instructions != 7 || d.Cycles != 30 || d.L1IMisses != 1 || d.Stalls[CauseWB] != 4 {
		t.Fatalf("Delta = %+v", d)
	}
	if d.WBEnqueues != 0 {
		t.Fatalf("Delta.WBEnqueues = %d, want 0", d.WBEnqueues)
	}
	// Adding the delta back reproduces the later snapshot.
	sum := a
	sum.Add(&d)
	if sum != b {
		t.Fatalf("a + Delta != b:\n a+d = %+v\n b   = %+v", sum, b)
	}
}
