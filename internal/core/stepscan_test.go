package core_test

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/mmu"
	"repro/internal/trace"
	"repro/internal/workload"
)

// scanTestEvents is how many leading events of each recorded
// kernel-suite member the scan differential replays.
const scanTestEvents = 40_000

// scanConfigs returns every write policy x loads-pass-stores scheme the
// model accepts, each with a unified and a split L2, plus 2-way L1-I
// geometries, where a touch moves replacement state. The wide-fetch
// configurations give L1-I a refill block larger than its set count, so
// a refill installs a later line of the block over the fetched line:
// in front of it in a 2-way set, in its place in a direct-mapped one.
func scanConfigs() map[string]core.Config {
	combos := []struct {
		name   string
		policy core.WritePolicy
		lps    core.LPSMode
	}{
		{"writeback", core.WriteBack, core.LPSNone},
		{"wmi", core.WriteMissInvalidate, core.LPSNone},
		{"wmi-assoc", core.WriteMissInvalidate, core.LPSAssociative},
		{"writeonly", core.WriteOnly, core.LPSNone},
		{"writeonly-assoc", core.WriteOnly, core.LPSAssociative},
		{"writeonly-dirtybit", core.WriteOnly, core.LPSDirtyBit},
		{"subblock", core.Subblock, core.LPSNone},
		{"subblock-assoc", core.Subblock, core.LPSAssociative},
	}
	cfgs := make(map[string]core.Config)
	for _, c := range combos {
		cfg := core.Base()
		cfg.WritePolicy = c.policy
		cfg.LoadsPassStores = c.lps
		if c.policy != core.WriteBack {
			cfg.WBEntries, cfg.WBEntryWords = 8, 1
		}
		cfg.SelfCheck = 4096
		cfgs[c.name+"/unified"] = cfg
		cfg.L2Split = true
		cfg.L2I, cfg.L2D = core.SplitBank(cfg.L2U)
		cfg.IMissWaitsForWB = false
		cfgs[c.name+"/split"] = cfg
	}
	twoWay := cfgs["writeback/unified"]
	twoWay.L1I.Ways = 2
	cfgs["writeback/unified/2way-l1i"] = twoWay
	opt := core.Optimized()
	opt.L1I.Ways = 2
	opt.SelfCheck = 4096
	cfgs["optimized/2way-l1i"] = opt
	wide := twoWay
	wide.L1I = core.CacheGeom{SizeWords: 32, LineWords: 4, Ways: 2}
	wide.L1IFetch = 32
	cfgs["writeback/unified/wide-fetch"] = wide
	wide.L1I = core.CacheGeom{SizeWords: 16, LineWords: 4, Ways: 1}
	cfgs["writeback/unified/wide-fetch-dm"] = wide
	return cfgs
}

// scanMembers returns the first scanTestEvents events of every recorded
// kernel-suite member, decoded.
func scanMembers(t *testing.T) [][]trace.Event {
	t.Helper()
	rec := workload.Record(1)
	out := make([][]trace.Event, len(rec))
	for i, r := range rec {
		out[i] = trace.Collect(trace.Limit(r.Trace.NewCursor(), scanTestEvents)).Events()
	}
	return out
}

// stepSerial is StepBatch's contract spelled out with Step, the
// reference without a line run: up to the end of evs, stopping after a
// syscall, once the clock has advanced max cycles, or at a fault.
func stepSerial(sys *core.System, pid mmu.PID, evs []trace.Event, max int) (int, bool, error) {
	stop := sys.Now() + uint64(max)
	for i := range evs {
		if err := sys.Step(pid, &evs[i]); err != nil {
			return i + 1, false, err
		}
		if evs[i].Syscall || sys.Now() >= stop {
			return i + 1, evs[i].Syscall, nil
		}
	}
	return len(evs), false, nil
}

// stepBatched runs Batch plus StepBatch over the next max events of c.
// Where fewer than max events remain, StepBatch's own budget (the batch
// length) ends the first batch early, so it batches again, as the
// scheduler's measure loop does, until the max-cycle budget StepScan
// keeps is spent.
func stepBatched(sys *core.System, pid mmu.PID, c *trace.Cursor, max int) (int, bool, error) {
	stop := sys.Now() + uint64(max)
	n := 0
	for sys.Now() < stop {
		evs := c.Batch(int(stop - sys.Now()))
		if len(evs) == 0 {
			break
		}
		k, err := sys.StepBatch(pid, evs)
		c.Skip(k)
		n += k
		if err != nil || evs[k-1].Syscall {
			return n, err == nil && evs[k-1].Syscall, err
		}
	}
	return n, false, nil
}

// TestStepScanMatchesStepBatch drives the recorded members, one address
// space each, round-robin through three systems in lockstep: StepScan
// over packed cursors, Batch plus StepBatch over a second set of
// cursors, and per-event Step. Every call gets a random cycle budget of
// 1 to 5000, and before some calls the scan's cursor is handed a random
// Batch, which must consume nothing. Each call must consume the same
// events and agree on the syscall stop, and at the end the three
// systems must agree on Stats, clock, cache state and both TLBs'
// counts, with self-checks on throughout.
func TestStepScanMatchesStepBatch(t *testing.T) {
	members := scanMembers(t)
	for name, cfg := range scanConfigs() {
		t.Run(name, func(t *testing.T) {
			scanSys, batchSys, serialSys := newScanSys(t, cfg), newScanSys(t, cfg), newScanSys(t, cfg)
			curs := make([]*trace.Cursor, len(members))
			batchCurs := make([]*trace.Cursor, len(members))
			pos := make([]int, len(members))
			for i, evs := range members {
				rec := trace.Pack(trace.NewMemTrace(evs))
				curs[i], batchCurs[i] = rec.NewCursor(), rec.NewCursor()
			}
			rng := rand.New(rand.NewSource(11)) //lint:allow determinism fixed-seed test schedule
			live := len(members)
			for call := 0; live > 0; call++ {
				m := call % len(members)
				if curs[m] == nil {
					continue
				}
				pid := mmu.PID(m + 1)
				max := 1 + rng.Intn(5000)
				if rng.Intn(4) == 0 {
					curs[m].Batch(1 + rng.Intn(300)) // decodes without consuming
				}
				n, sys, err := scanSys.StepScan(pid, curs[m], max)
				if err != nil {
					t.Fatalf("call %d: StepScan: %v", call, err)
				}
				bn, bsys, berr := stepBatched(batchSys, pid, batchCurs[m], max)
				if berr != nil {
					t.Fatalf("call %d: StepBatch: %v", call, berr)
				}
				sn, ssys, serr := stepSerial(serialSys, pid, members[m][pos[m]:], max)
				if serr != nil {
					t.Fatalf("call %d: Step: %v", call, serr)
				}
				pos[m] += sn
				if n != bn || sys != bsys || n != sn || sys != ssys {
					t.Fatalf("call %d (pid %d, max %d): StepScan (%d, %v), StepBatch (%d, %v), Step (%d, %v)",
						call, pid, max, n, sys, bn, bsys, sn, ssys)
				}
				if n == 0 {
					curs[m] = nil
					live--
				}
			}
			for _, other := range []struct {
				name string
				sys  *core.System
			}{{"StepBatch", batchSys}, {"Step", serialSys}} {
				compareSystems(t, "StepScan", scanSys, other.name, other.sys)
			}
		})
	}
}

func newScanSys(t *testing.T, cfg core.Config) *core.System {
	t.Helper()
	sys, err := core.NewSystem(cfg)
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	return sys
}

// compareSystems fails the test unless a and b agree on everything a
// run reports and on their cache and TLB state.
func compareSystems(t *testing.T, an string, a *core.System, bn string, b *core.System) {
	t.Helper()
	if a.Now() != b.Now() {
		t.Errorf("clock: %s %d, %s %d", an, a.Now(), bn, b.Now())
	}
	if a.Stats() != b.Stats() {
		t.Errorf("stats diverged:\n%s %+v\n%s %+v", an, a.Stats(), bn, b.Stats())
	}
	if fa, fb := a.CacheFingerprint(), b.CacheFingerprint(); fa != fb {
		t.Errorf("cache state: %s %#x, %s %#x", an, fa, bn, fb)
	}
	if ia, ib := a.MMU().ITLB().Stats(), b.MMU().ITLB().Stats(); ia != ib {
		t.Errorf("ITLB: %s %v, %s %v", an, ia, bn, ib)
	}
	if da, db := a.MMU().DTLB().Stats(), b.MMU().DTLB().Stats(); da != db {
		t.Errorf("DTLB: %s %v, %s %v", an, da, bn, db)
	}
}

// TestLineRunEndsWithCall fetches two instructions of one virtual line
// from PID 1 and then from PID 2 in back-to-back calls, the way two
// processes running the same program image meet across a context
// switch. PID 1's second fetch hits and starts a line run, but the line
// names a different physical line in PID 2's address space, so PID 2's
// first fetch must translate and probe: two I-TLB misses and two L1-I
// misses in four fetches on every entry point.
func TestLineRunEndsWithCall(t *testing.T) {
	evs := []trace.Event{{PC: 0x400100}, {PC: 0x400104}}
	rec := trace.Pack(trace.NewMemTrace(evs))
	entries := map[string]func(*core.System, mmu.PID) error{
		"StepScan": func(s *core.System, pid mmu.PID) error {
			_, _, err := s.StepScan(pid, rec.NewCursor(), 1000)
			return err
		},
		"StepBatch": func(s *core.System, pid mmu.PID) error {
			for rest := evs; len(rest) > 0; {
				n, err := s.StepBatch(pid, rest)
				if err != nil {
					return err
				}
				rest = rest[n:]
			}
			return nil
		},
		"Step": func(s *core.System, pid mmu.PID) error {
			for i := range evs {
				if err := s.Step(pid, &evs[i]); err != nil {
					return err
				}
			}
			return nil
		},
	}
	for name, step := range entries {
		t.Run(name, func(t *testing.T) {
			s := newScanSys(t, core.Base())
			for _, pid := range []mmu.PID{1, 2} {
				if err := step(s, pid); err != nil {
					t.Fatalf("pid %d: %v", pid, err)
				}
			}
			st := s.Stats()
			if st.ITLBMisses != 2 || st.L1IMisses != 2 || st.L1IAccesses != 4 {
				t.Fatalf("two PIDs fetching one virtual line: %d ITLB misses, %d L1-I misses in %d accesses; want 2, 2, 4",
					st.ITLBMisses, st.L1IMisses, st.L1IAccesses)
			}
		})
	}
}

// TestStepScanContract pins StepScan's stop points on a tiny stream: a
// syscall event is consumed and reported, the next call resumes after
// it, the cycle budget stops a call, and an exhausted cursor returns
// n == 0.
func TestStepScanContract(t *testing.T) {
	var mt trace.MemTrace
	for i := 0; i < 8; i++ {
		mt.Append(trace.Event{PC: 0x1000 + 4*uint32(i), Syscall: i == 1})
	}
	c := trace.Pack(&mt).NewCursor()
	s := newScanSys(t, core.Base())
	if n, sys, err := s.StepScan(1, c, 1000); err != nil || n != 2 || !sys {
		t.Fatalf("first call = (%d, %v, %v), want (2, true, nil): stop after the syscall", n, sys, err)
	}
	// Every instruction costs at least one cycle and the next two hit
	// the resident line at one cycle each, so a 3-cycle budget stops
	// after exactly three events.
	if n, sys, err := s.StepScan(1, c, 3); err != nil || n != 3 || sys {
		t.Fatalf("budgeted call = (%d, %v, %v), want (3, false, nil)", n, sys, err)
	}
	if n, _, err := s.StepScan(1, c, 1000); err != nil || n != 3 {
		t.Fatalf("draining call = (%d, %v), want 3 events", n, err)
	}
	if n, sys, err := s.StepScan(1, c, 1000); err != nil || n != 0 || sys {
		t.Fatalf("exhausted cursor = (%d, %v, %v), want (0, false, nil)", n, sys, err)
	}
}
