package stackdist_test

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/mmu"
	"repro/internal/sched"
	"repro/internal/stackdist"
	"repro/internal/trace"
	"repro/internal/workload"
)

// smallConfig is a grid small enough to reason about by hand: 4-word
// lines, L1 sizes spanning 64 to 128 sets at 1 and 2 ways.
func smallConfig() stackdist.Config {
	return stackdist.Config{
		L1I: stackdist.GridSpec{LineWords: 4, SizesWords: []int{256}, Ways: []int{1}},
		L1D: stackdist.GridSpec{LineWords: 4, SizesWords: []int{256, 512}, Ways: []int{1, 2}},
		L2:  stackdist.GridSpec{LineWords: 32, SizesWords: []int{8192}, Ways: []int{1}},
	}
}

// analyze runs one single-process event list through the full
// scheduler+analyzer stack.
func analyze(t *testing.T, cfg stackdist.Config, evs []trace.Event) *stackdist.Result {
	t.Helper()
	procs := []sched.Process{{Name: "unit", Stream: trace.NewMemTrace(evs)}}
	res, _, err := stackdist.Analyze(cfg, procs, sched.Config{Level: 1})
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	return res
}

func load(addr uint32) trace.Event {
	return trace.Event{Kind: trace.Load, Data: addr, Size: 4}
}

func storeEv(addr uint32) trace.Event {
	return trace.Event{Kind: trace.Store, Data: addr, Size: 4}
}

// TestGridCountsAcrossGeometries pins the per-set stack-distance
// bookkeeping: one conflict pattern, four geometries, all from one
// pass. Addresses stay inside one 16 KB page, so translation adds a
// frame base whose low bits are zero and every set index below page
// size is exactly the virtual one.
func TestGridCountsAcrossGeometries(t *testing.T) {
	// A and B are 1024 bytes apart: same set in 64- and 32-set caches
	// (4-word = 16-byte lines), different sets in a 128-set cache.
	const a, b = 0x000, 0x400
	res := analyze(t, smallConfig(), []trace.Event{load(a), load(b), load(a)})

	l1d := res.Class(stackdist.ClassL1D)
	cases := []struct {
		size, ways  int
		misses      uint64
		description string
	}{
		{256, 1, 3, "64 sets, direct-mapped: B evicts A, A misses again"},
		{256, 2, 2, "32 sets, 2-way: A survives B at depth 1"},
		{512, 1, 2, "128 sets: A and B do not conflict"},
		{512, 2, 2, "64 sets, 2-way: A survives at depth 1"},
	}
	for _, c := range cases {
		gc, ok := l1d.Counts(c.size, c.ways)
		if !ok {
			t.Fatalf("no counts for %dW %d-way", c.size, c.ways)
		}
		if gc.Reads != 3 || gc.Writes != 0 {
			t.Errorf("%dW %d-way: accesses = %d reads/%d writes, want 3/0", c.size, c.ways, gc.Reads, gc.Writes)
		}
		if gc.Misses() != c.misses {
			t.Errorf("%dW %d-way: misses = %d, want %d (%s)", c.size, c.ways, gc.Misses(), c.misses, c.description)
		}
	}
	if _, ok := l1d.Counts(1024, 1); ok {
		t.Error("Counts invented a geometry outside the grid")
	}
}

// TestRepeatFastPathFoldsIntoBucketZero drives consecutive references
// to one line, whose grid walk stops at the first (fewest-sets) grid
// with the line on top of its set, and checks the snapshot's bucket-0
// prefix sum credits the repeats to distance bucket 0 of this finer
// grid's histogram.
func TestRepeatFastPathFoldsIntoBucketZero(t *testing.T) {
	const a, b = 0x000, 0x400
	res := analyze(t, smallConfig(), []trace.Event{
		load(a), load(a), load(a), load(b), load(a),
	})
	l1d := res.Class(stackdist.ClassL1D)
	// The 64-set grid carries depth 2 ((512W, 2-way) shares it).
	var hist *stackdist.Histogram
	for i := range l1d.Grids {
		if l1d.Grids[i].Sets == 64 {
			hist = &l1d.Grids[i]
		}
	}
	if hist == nil {
		t.Fatal("no 64-set grid")
	}
	// a cold, a@0, a@0, b cold, a@1.
	want := []uint64{2, 1, 2}
	got := []uint64{hist.Reads[0], hist.Reads[1], hist.Reads[hist.Depth]}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("64-set read histogram [d0 d1 overflow] = %v, want %v", got, want)
	}
}

// TestWriteReadSplit checks stores are binned separately from loads.
func TestWriteReadSplit(t *testing.T) {
	const a = 0x100
	res := analyze(t, smallConfig(), []trace.Event{storeEv(a), storeEv(a), load(a)})
	gc, ok := res.Class(stackdist.ClassL1D).Counts(256, 1)
	if !ok {
		t.Fatal("no counts for 256W direct-mapped")
	}
	if gc.Writes != 2 || gc.Reads != 1 {
		t.Errorf("reads/writes = %d/%d, want 1/2", gc.Reads, gc.Writes)
	}
	if gc.WriteMisses != 1 || gc.ReadMisses != 0 {
		t.Errorf("read/write misses = %d/%d, want 0/1 (only the cold store misses)", gc.ReadMisses, gc.WriteMisses)
	}
}

// TestPerProcessHistograms checks the per-PID split sums to the total.
func TestPerProcessHistograms(t *testing.T) {
	rec := workload.RecordPaperLike(3, 4000)
	res, _, err := stackdist.Analyze(paperConfig(), workload.ReplayProcesses(rec), sched.Config{Level: 3})
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	l1i := res.Class(stackdist.ClassL1I)
	for _, h := range l1i.Grids {
		var total, perPID uint64
		for d := 0; d <= h.Depth; d++ {
			total += h.Reads[d] + h.Writes[d]
		}
		for _, row := range h.PerPID {
			for _, v := range row {
				perPID += v
			}
		}
		if total != perPID || total == 0 {
			t.Errorf("%d sets: per-PID sum %d != total %d (or empty)", h.Sets, perPID, total)
		}
	}
}

// paperConfig is the paper-shaped grid used by the integration tests.
func paperConfig() stackdist.Config {
	return stackdist.Config{
		L1I:          stackdist.GridSpec{LineWords: 4, SizesWords: []int{4 * 1024, 16 * 1024}, Ways: []int{1, 2}},
		L1D:          stackdist.GridSpec{LineWords: 4, SizesWords: []int{1 * 1024, 2 * 1024, 4 * 1024, 8 * 1024}, Ways: []int{1, 2}},
		L2:           stackdist.GridSpec{LineWords: 32, SizesWords: []int{64 * 1024, 256 * 1024}, Ways: []int{1, 2}},
		FilterPolicy: core.WriteBack,
	}
}

// serialStream hides a stream's batch interface so the scheduler takes
// the one-instruction Step path.
type serialStream struct{ s trace.Stream }

func (s serialStream) Next(ev *trace.Event) bool { return s.s.Next(ev) }
func (s serialStream) Err() error                { return trace.StreamErr(s.s) }

// countingTarget is an analyzer that counts the scheduler's StepScan
// and StepBatch calls, so a test can tell which path a pass took.
type countingTarget struct {
	*stackdist.Analyzer
	scans, batches int
}

func (c *countingTarget) StepScan(pid mmu.PID, cur *trace.Cursor, max int) (int, bool, error) {
	c.scans++
	return c.Analyzer.StepScan(pid, cur, max)
}

func (c *countingTarget) StepBatch(pid mmu.PID, evs []trace.Event) (int, error) {
	c.batches++
	return c.Analyzer.StepBatch(pid, evs)
}

// batchOnly hides a cursor behind trace.BatchStream alone, so the
// scheduler takes the Batch plus StepBatch path instead of StepScan.
type batchOnly struct{ c *trace.Cursor }

func (b batchOnly) Next(ev *trace.Event) bool   { return b.c.Next(ev) }
func (b batchOnly) Batch(max int) []trace.Event { return b.c.Batch(max) }
func (b batchOnly) Skip(n int)                  { b.c.Skip(n) }

// The scheduler steps an analyzer straight off cursors only because it
// is a ScanTarget.
var _ sched.ScanTarget = (*stackdist.Analyzer)(nil)

// TestScanMatchesBatchAndSerial runs one pass per scheduler path:
// cursors (StepScan), the same cursors behind a BatchStream-only
// wrapper (Batch plus StepBatch) and behind a plain Stream (Step), plus
// cursors that hold decoded but unconsumed events when the pass starts,
// which StepScan must drain first. All four must give the same Result
// and sched.Result, for ScreeningGrid's write-only filter and a
// write-back one, at three levels and three time slices.
func TestScanMatchesBatchAndSerial(t *testing.T) {
	paths := []struct {
		name         string
		wrap         func(i int, c *trace.Cursor) trace.Stream
		scan, batchd bool
	}{
		{"scan", func(_ int, c *trace.Cursor) trace.Stream { return c }, true, false},
		{"batch", func(_ int, c *trace.Cursor) trace.Stream { return batchOnly{c} }, false, true},
		{"serial", func(_ int, c *trace.Cursor) trace.Stream { return serialStream{c} }, false, false},
		{"scan-pending", func(i int, c *trace.Cursor) trace.Stream {
			if len(c.Batch(1+97*i)) == 0 {
				t.Fatal("pending setup: empty recording")
			}
			return c
		}, true, false},
	}
	grids := []struct {
		name string
		cfg  stackdist.Config
	}{
		{"screening", experiments.ScreeningGrid()},
		{"writeback", paperConfig()},
	}
	for _, r := range passRecordings() {
		for _, g := range grids {
			for _, level := range []int{1, 8, 16} {
				for _, slice := range []uint64{100_000, 500_000, 1 << 62} {
					scfg := sched.Config{Level: level, TimeSlice: slice, MaxInstructions: 200_000}
					var (
						want      *stackdist.Result
						wantSched sched.Result
					)
					for _, p := range paths {
						procs := workload.ReplayProcesses(r.rec)
						for i := range procs {
							procs[i].Stream = p.wrap(i, procs[i].Stream.(*trace.Cursor))
						}
						a, err := stackdist.New(g.cfg)
						if err != nil {
							t.Fatal(err)
						}
						target := &countingTarget{Analyzer: a}
						sres, err := sched.Run(target, procs, scfg)
						if err != nil {
							t.Fatalf("%s %s %s %+v: %v", r.name, g.name, p.name, scfg, err)
						}
						where := fmt.Sprintf("%s %s %s level %d slice %d", r.name, g.name, p.name, level, slice)
						if (target.scans > 0) != p.scan || (target.batches > 0) != p.batchd {
							t.Errorf("%s: %d StepScan and %d StepBatch calls, want scan %v batch %v",
								where, target.scans, target.batches, p.scan, p.batchd)
						}
						res := a.Result()
						if want == nil {
							want, wantSched = res, sres
							continue
						}
						if !reflect.DeepEqual(res, want) {
							t.Errorf("%s: result differs from the scan path", where)
						}
						if !reflect.DeepEqual(sres, wantSched) {
							t.Errorf("%s: schedule %+v, scan path %+v", where, sres, wantSched)
						}
					}
				}
			}
		}
	}
}

// TestDeterministicReruns demands the full result — histograms, filter
// counters, per-process rows — be identical across reruns: screening
// results are content-address cached, so a wobble here would poison
// the cache.
func TestDeterministicReruns(t *testing.T) {
	rec := workload.RecordPaperLike(4, 3000)
	run := func() *stackdist.Result {
		res, _, err := stackdist.Analyze(paperConfig(), workload.ReplayProcesses(rec), sched.Config{Level: 4})
		if err != nil {
			t.Fatalf("Analyze: %v", err)
		}
		return res
	}
	r1, r2 := run(), run()
	if !reflect.DeepEqual(r1, r2) {
		t.Error("two passes over the same recording disagree")
	}
}

// TestConfigValidation spot-checks the guard rails.
func TestConfigValidation(t *testing.T) {
	bad := []stackdist.Config{
		{}, // empty grids
		{ // non-power-of-two set count
			L1I: stackdist.GridSpec{LineWords: 4, SizesWords: []int{96}, Ways: []int{1}},
			L1D: stackdist.GridSpec{LineWords: 4, SizesWords: []int{256}, Ways: []int{1}},
			L2:  stackdist.GridSpec{LineWords: 32, SizesWords: []int{8192}, Ways: []int{1}},
		},
		{ // filter line wider than the L2 grid line
			L1I: stackdist.GridSpec{LineWords: 4, SizesWords: []int{256}, Ways: []int{1}},
			L1D: stackdist.GridSpec{LineWords: 4, SizesWords: []int{256}, Ways: []int{1}},
			L2:  stackdist.GridSpec{LineWords: 2, SizesWords: []int{8192}, Ways: []int{1}},
		},
		{ // unknown write policy
			L1I:          stackdist.GridSpec{LineWords: 4, SizesWords: []int{256}, Ways: []int{1}},
			L1D:          stackdist.GridSpec{LineWords: 4, SizesWords: []int{256}, Ways: []int{1}},
			L2:           stackdist.GridSpec{LineWords: 32, SizesWords: []int{8192}, Ways: []int{1}},
			FilterPolicy: core.WritePolicy(99),
		},
		{ // class set naming a class past ClassL2D
			L1I:     stackdist.GridSpec{LineWords: 4, SizesWords: []int{256}, Ways: []int{1}},
			L1D:     stackdist.GridSpec{LineWords: 4, SizesWords: []int{256}, Ways: []int{1}},
			L2:      stackdist.GridSpec{LineWords: 32, SizesWords: []int{8192}, Ways: []int{1}},
			Classes: 1 << 5,
		},
	}
	for i, cfg := range bad {
		if _, err := stackdist.New(cfg); err == nil {
			t.Errorf("config %d: want error, got nil", i)
		}
	}
	if _, err := stackdist.New(smallConfig()); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}
