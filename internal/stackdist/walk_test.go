package stackdist

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/mmu"
	"repro/internal/sched"
	"repro/internal/trace"
	"repro/internal/workload"
)

// oracleRef is one reference of a generated stream.
type oracleRef struct {
	addr  uint64
	write bool
	pid   int
}

// oracleStream generates a seeded reference stream that exercises the
// grid walk's corners: 1–8 PIDs switching at random, reads and writes,
// a small hot line set, strides that collide in one set of every grid,
// long runs on one line (changing PID mid-run), and a wide random
// footprint.
func oracleStream(seed int64) ([]oracleRef, int) {
	rng := rand.New(rand.NewSource(seed))
	npids := 1 + rng.Intn(8)
	hot := make([]uint64, 4+rng.Intn(28))
	for i := range hot {
		hot[i] = uint64(rng.Intn(1 << 16))
	}
	var refs []oracleRef
	pid := 1
	add := func(addr uint64) {
		refs = append(refs, oracleRef{addr, rng.Intn(4) == 0, pid})
	}
	for len(refs) < 4000 {
		if rng.Intn(16) == 0 {
			pid = 1 + rng.Intn(npids)
		}
		switch rng.Intn(4) {
		case 0:
			add(hot[rng.Intn(len(hot))])
		case 1:
			// 4 KB apart: one set in every grid below.
			add(uint64(rng.Intn(8))*16 + uint64(rng.Intn(12))*4096)
		case 2:
			line := uint64(rng.Intn(1 << 12))
			for n := 2 + rng.Intn(40); n > 0; n-- {
				if rng.Intn(12) == 0 {
					pid = 1 + rng.Intn(npids)
				}
				add(line*16 + uint64(rng.Intn(16)))
			}
		default:
			add(uint64(rng.Intn(1 << 20)))
		}
	}
	return refs, npids
}

// oracleGrid is the naive model of one set count: an untruncated
// MRU-first list of lines per set, and histograms binned at
// min(distance, depth) with cold misses in bucket depth.
type oracleGrid struct {
	sets, depth   int
	lists         map[uint64][]uint64
	reads, writes []uint64
	perPID        [][]uint64
}

// oracleGrids lists a grid spec's distinct set counts, ascending, each
// as deep as the largest associativity asked about at that set count.
func oracleGrids(spec GridSpec, maxPID int) []*oracleGrid {
	depths := map[int]int{}
	for _, size := range spec.SizesWords {
		for _, w := range spec.Ways {
			sets := size / (spec.LineWords * w)
			depths[sets] = max(depths[sets], w)
		}
	}
	var gs []*oracleGrid
	for sets, depth := range depths {
		g := &oracleGrid{sets: sets, depth: depth, lists: map[uint64][]uint64{},
			reads: make([]uint64, depth+1), writes: make([]uint64, depth+1),
			perPID: make([][]uint64, maxPID+1)}
		for p := 1; p <= maxPID; p++ {
			g.perPID[p] = make([]uint64, depth+1)
		}
		gs = append(gs, g)
	}
	sort.Slice(gs, func(i, j int) bool { return gs[i].sets < gs[j].sets })
	return gs
}

func (g *oracleGrid) access(line uint64, write bool, pid int) {
	set := line % uint64(g.sets)
	list := g.lists[set]
	b := g.depth // cold
	for i, l := range list {
		if l == line {
			b = min(i, g.depth)
			list = append(list[:i], list[i+1:]...)
			break
		}
	}
	g.lists[set] = append([]uint64{line}, list...)
	if write {
		g.writes[b]++
	} else {
		g.reads[b]++
	}
	g.perPID[pid][b]++
}

// TestWalkMatchesOracle drives classAnalyzer.access directly with 40
// seeded streams and compares every histogram bucket and per-process
// row of the snapshot against the naive oracle. The first grid has
// depths 8, 4, 2 and 1 across its set counts, so the walk crosses
// grids where a line sits at distance 0 in a finer set but deeper in a
// coarser one; the second class has a single grid.
func TestWalkMatchesOracle(t *testing.T) {
	specs := []GridSpec{
		{LineWords: 4, SizesWords: []int{128, 256, 512, 1024}, Ways: []int{1, 2, 4, 8}},
		{LineWords: 8, SizesWords: []int{512}, Ways: []int{2}},
	}
	for seed := int64(1); seed <= 40; seed++ {
		refs, maxPID := oracleStream(seed)
		for si, spec := range specs {
			name := fmt.Sprintf("seed %d grid %d", seed, si)
			c := newClassAnalyzer(ClassL1D, spec)
			oracle := oracleGrids(spec, maxPID)
			lineBytes := uint64(spec.LineWords * trace.WordBytes)
			for _, r := range refs {
				c.access(r.addr, r.write, r.pid)
				for _, g := range oracle {
					g.access(r.addr/lineBytes, r.write, r.pid)
				}
			}
			got := c.snapshot(maxPID)
			if len(got.Grids) != len(oracle) {
				t.Fatalf("%s: %d grids, oracle has %d", name, len(got.Grids), len(oracle))
			}
			for gi, h := range got.Grids {
				o := oracle[gi]
				if h.Sets != o.sets || h.Depth != o.depth {
					t.Fatalf("%s: grid %d is %d sets depth %d, oracle %d sets depth %d",
						name, gi, h.Sets, h.Depth, o.sets, o.depth)
				}
				if !reflect.DeepEqual(h.Reads, o.reads) || !reflect.DeepEqual(h.Writes, o.writes) {
					t.Errorf("%s: %d sets: reads %v writes %v, oracle %v %v",
						name, h.Sets, h.Reads, h.Writes, o.reads, o.writes)
				}
				if !reflect.DeepEqual(h.PerPID, o.perPID) {
					t.Errorf("%s: %d sets: per-PID rows %v, oracle %v", name, h.Sets, h.PerPID, o.perPID)
				}
			}
		}
	}
}

// resultEvery wraps an analyzer and snapshots its result before every
// scan, cutting each scan to at most n cycles, as a caller polling a
// pass in progress would. Shorter scans leave the schedule as it is:
// the scheduler resumes them until the slice's deadline.
type resultEvery struct {
	a *Analyzer
	n int
}

func (r *resultEvery) Now() uint64 { return r.a.Now() }

func (r *resultEvery) StepScan(pid mmu.PID, c *trace.Cursor, max int) (int, bool, error) {
	r.a.Result()
	return r.a.StepScan(pid, c, min(max, r.n))
}

// TestResultMidPassIsReadOnly polls Analyzer.Result throughout a pass
// and demands the final result equal an unpolled pass's: the snapshot's
// bucket-0 prefix sums must go to the copies, never back into the
// histograms.
func TestResultMidPassIsReadOnly(t *testing.T) {
	cfg := Config{
		L1I: GridSpec{LineWords: 4, SizesWords: []int{1024, 4096}, Ways: []int{1, 2}},
		L1D: GridSpec{LineWords: 4, SizesWords: []int{1024, 4096}, Ways: []int{1, 2}},
		L2:  GridSpec{LineWords: 32, SizesWords: []int{16 * 1024, 64 * 1024}, Ways: []int{1, 2}},
	}
	rec := workload.RecordPaperLike(3, 20_000)
	scfg := sched.Config{Level: 3, TimeSlice: 5_000}
	want, _, err := Analyze(cfg, workload.ReplayProcesses(rec), scfg)
	if err != nil {
		t.Fatal(err)
	}
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sched.Run(&resultEvery{a: a, n: 777}, workload.ReplayProcesses(rec), scfg); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Result(), want) {
		t.Error("polling Result mid-pass changed the final result")
	}
}

// TestFetchLineRunSeparatesPIDs fetches one virtual line from two
// address spaces back to back. The two fetches reach different
// physical lines, so the second is a cold miss everywhere, not a
// line-run repeat; a third fetch by the second PID is the repeat.
func TestFetchLineRunSeparatesPIDs(t *testing.T) {
	a, err := New(Config{
		L1I: GridSpec{LineWords: 4, SizesWords: []int{256, 1024}, Ways: []int{1}},
		L1D: GridSpec{LineWords: 4, SizesWords: []int{256}, Ways: []int{1}},
		L2:  GridSpec{LineWords: 32, SizesWords: []int{8192}, Ways: []int{1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []struct {
		pid mmu.PID
		pc  uint32
	}{{1, 0x1000}, {2, 0x1004}, {2, 0x1008}} {
		if err := a.Step(f.pid, &trace.Event{PC: f.pc}); err != nil {
			t.Fatal(err)
		}
	}
	res := a.Result()
	if res.Filter.L1IAccesses != 3 || res.Filter.L1IMisses != 2 {
		t.Errorf("filter L1-I: %d accesses, %d misses; want 3, 2",
			res.Filter.L1IAccesses, res.Filter.L1IMisses)
	}
	for _, h := range res.Class(ClassL1I).Grids {
		if got := []uint64{h.Reads[0], h.Reads[h.Depth]}; !reflect.DeepEqual(got, []uint64{1, 2}) {
			t.Errorf("L1-I %d sets: [d0 overflow] = %v, want [1 2]", h.Sets, got)
		}
		if got := [][]uint64{h.PerPID[1], h.PerPID[2]}; !reflect.DeepEqual(got, [][]uint64{{0, 1}, {1, 1}}) {
			t.Errorf("L1-I %d sets: per-PID rows %v, want [[0 1] [1 1]]", h.Sets, got)
		}
	}
}
