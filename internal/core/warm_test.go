package core

import (
	"math/rand"
	"testing"

	"repro/internal/synth"
	"repro/internal/trace"
	"repro/internal/workload"
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

// replayWarmScan drives WarmScan over a fresh cursor in randomly sized
// chunks, exercising its resume-after-syscall points, with Batch calls
// in between that must consume nothing, and returns the final cache
// fingerprint.
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
			cur.Batch(1 + rng.Intn(300)) // decodes without consuming
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

// replayWarmEach warms every event of rec one at a time through the
// warm helpers, with no line run: the per-event reference WarmScan is
// held to, as stepSerial is for StepScan. It returns the final cache
// fingerprint.
func replayWarmEach(t *testing.T, cfg Config, rec *trace.Recorded) uint64 {
	t.Helper()
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	cur := rec.NewCursor()
	var ev trace.Event
	for cur.Next(&ev) {
		s.warmFetch(1, ev.PC)
		switch ev.Kind {
		case trace.Load:
			s.warmLoad(1, ev.Data)
		case trace.Store:
			s.warmStore(1, ev.Data, ev.Size)
		case trace.None:
			// Fetch-only instruction; nothing further to warm.
		}
	}
	return s.CacheFingerprint()
}

// TestWarmScanMatchesWarmBatch pins the raw-word scanner against
// warming the same events one at a time (replayWarmEach): for every
// write policy, WarmScan must leave bit-identical cache state — same
// refills, evictions, flags, masks, and replacement order — regardless
// of chunking. Unlike the exact path, the per-event reference also
// covers configurations whose write-buffer ordering lets warm state
// differ from exact state (loads passing stores, and the optimized
// design's concurrent I-refill), so WarmScan's line run is checked
// there too.
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
		{"writeonly-assoc", func(c *Config) {
			c.WritePolicy, c.WBEntries, c.WBEntryWords, c.LoadsPassStores = WriteOnly, 8, 1, LPSAssociative
		}},
		{"optimized", func(c *Config) { *c = Optimized() }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Base()
			tc.mutate(&cfg)
			each := replayWarmEach(t, cfg, rec)
			if scan := replayWarmScan(t, cfg, rec); scan != each {
				t.Fatalf("cache state diverged: per-event warming %#x, WarmScan %#x", each, scan)
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
	rec := trace.Pack(trace.NewMemTrace([]trace.Event{{PC: 0x1000}, {PC: 0x1004}}))
	scan := newSys(t, cfg)
	if _, _, err := scan.WarmScan(pid, rec.NewCursor(), 2); err != nil {
		t.Fatalf("WarmScan: %v", err)
	}
	if e, s := replayExact(t, cfg, rec), scan.CacheFingerprint(); e != s {
		t.Fatalf("cache state diverged: exact %#x, WarmScan %#x", e, s)
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

// TestWarmBatchSyscallStop pins the early-stop contract of warming a
// batch of events: a WarmScan whose budget covers the whole batch
// consumes the syscall event and stops there, and functional warming
// counts no instruction and costs no cycle.
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
	n, _, err := s.WarmScan(1, trace.Pack(trace.NewMemTrace(evs)).NewCursor(), len(evs))
	if err != nil {
		t.Fatalf("WarmScan: %v", err)
	}
	if n != 2 {
		t.Fatalf("warming consumed %d events, want 2 (stop after syscall)", n)
	}
	if got := s.Stats().Instructions; got != 0 {
		t.Fatalf("warming counted %d instructions; functional warming must not touch Stats", got)
	}
	if got := s.Now(); got != 0 {
		t.Fatalf("warming advanced the clock to %d; functional warming must not cost cycles", got)
	}
}

// TestWarmMatchesExactFinalState pins the functional-warming guarantee
// the sampled engine's fast-forward relies on: for configurations whose
// wait-for-write-buffer rules fully order L2 probes (every L1 miss
// waits for the buffer to empty before reading L2 — Base's write-back +
// LPSNone + IMissWaitsForWB, and the write-through policies under the
// same ordering), a WarmScan replay in random chunk sizes leaves
// bit-identical cache state to a full cycle-accurate replay followed by
// a write-buffer drain.
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
			if warm := replayWarmScan(t, cfg, rec); warm != exact {
				t.Fatalf("cache state diverged: exact fingerprint %#x, WarmScan %#x", exact, warm)
			}
		})
	}
}

// TestWarmMatchesExactFinalStateByteStores is the same guarantee over
// the kernel suite's queens recording, under every write policy. Its
// byte stores are partial-word writes, which a subblock line must not
// count as validating their word; the synthetic trace above stores full
// words only.
func TestWarmMatchesExactFinalStateByteStores(t *testing.T) {
	var rec *trace.Recorded
	for _, m := range workload.Members() {
		if m.Name == "queens" {
			rec = trace.Pack(m.NewStream(1))
		}
	}
	if rec == nil {
		t.Fatal("the kernel suite has no queens member")
	}
	for _, policy := range []WritePolicy{WriteBack, WriteMissInvalidate, WriteOnly, Subblock} {
		t.Run(policy.String(), func(t *testing.T) {
			cfg := Base()
			cfg.WritePolicy = policy
			exact := replayExact(t, cfg, rec)
			if scan := replayWarmScan(t, cfg, rec); scan != exact {
				t.Fatalf("cache state diverged: exact fingerprint %#x, WarmScan %#x", exact, scan)
			}
		})
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
